(* The flat fragment image (lib/xml/flat.ml) is a lossless re-encoding
   of a fragment's pointer tree: structure, ids, tags, text, attributes
   and virtual placeholders must all survive [of_tree], encode/decode
   and a [Wire.Frag_flat] section, and every accessor must agree with
   the pointer tree it was built from.  The image is all a site holds,
   so the answer it ships for a slot ([Wire.answer_of_slot]) is pinned
   to the answer of the source node, byte for byte.  Random
   fragmentized documents drive the properties; a few directed cases
   pin the id-index and corruption behaviour.

   Flat.t contains mutexes and atomics, so the comparisons here go
   through per-slot accessors and encoded bytes, never polymorphic
   equality on whole images.

   The second half holds the stage kernels (lib/core/flat_pass.ml) to
   each other and to the pointer passes on the paths test/test_passes.ml
   does not reach: PaX2's combined pass against the qualifier and
   selection passes, also on data and queries that make it skip most
   subtrees, and queries wider than one 63-bit word of qualifier
   entries. *)

module Tree = Pax_xml.Tree
module Intern = Pax_xml.Intern
module Flat = Pax_xml.Flat
module Fragment = Pax_frag.Fragment
module Wire = Pax_wire.Wire
module Query = Pax_xpath.Query
module Compile = Pax_xpath.Compile
module Ast = Pax_xpath.Ast
module Formula = Pax_bool.Formula
module Var = Pax_bool.Var
module Qual_pass = Pax_core.Qual_pass
module Sel_pass = Pax_core.Sel_pass
module Flat_pass = Pax_core.Flat_pass
module H = Test_helpers
module G = QCheck.Gen

let count n =
  match Sys.getenv_opt "PAX_QCHECK_COUNT" with
  | Some s -> (try int_of_string s with _ -> n)
  | None -> n

(* Preorder node list of a pointer tree, virtual nodes included — the
   slot order the flat image promises. *)
let preorder root =
  let acc = ref [] in
  Tree.iter (fun n -> acc := n :: !acc) root;
  List.rev !acc

(* A random fragment store: every fragment root (with its virtual
   placeholders) is a flat-image test subject. *)
let store_gen : Fragment.t G.t =
 fun st ->
  let d = H.Gen.doc ~max_nodes:80 st in
  let cuts = H.Gen.cuts d st in
  Fragment.fragmentize d ~cuts

let arbitrary_store =
  QCheck.make
    ~print:(fun ft -> Format.asprintf "%a" Fragment.pp ft)
    store_gen

let fail fmt = QCheck.Test.fail_reportf fmt

(* Slot accessors vs the pointer tree: ids, tags, kinds, text, numeric
   views, attributes, child counts and the parent/sibling links. *)
let check_accessors fl root =
  let nodes = Array.of_list (preorder root) in
  if Flat.length fl <> Array.length nodes then
    fail "length %d <> %d preorder nodes" (Flat.length fl) (Array.length nodes);
  let index_of_id = Hashtbl.create 16 in
  Array.iteri (fun i (n : Tree.node) -> Hashtbl.replace index_of_id n.Tree.id i) nodes;
  Array.iteri
    (fun i (n : Tree.node) ->
      if Flat.node_id fl i <> n.Tree.id then
        fail "slot %d: id %d <> %d" i (Flat.node_id fl i) n.Tree.id;
      (match n.Tree.kind with
      | Tree.Virtual fid ->
          if not (Flat.is_virtual fl i) || Flat.virtual_fid fl i <> fid then
            fail "slot %d: virtual fid %d lost" i fid
      | Tree.Element ->
          if Flat.is_virtual fl i then fail "slot %d: spurious virtual" i;
          if Flat.tag_name fl i <> n.Tree.tag then
            fail "slot %d: tag %S <> %S" i (Flat.tag_name fl i) n.Tree.tag);
      if Flat.text fl i <> n.Tree.text then fail "slot %d: text differs" i;
      if Flat.num fl i <> Tree.float_of n then fail "slot %d: num differs" i;
      (* The qualifier view: missing text compares as "". *)
      let t = Option.value n.Tree.text ~default:"" in
      if not (Flat.text_equals fl i t) then fail "slot %d: text_equals" i;
      if Flat.text_equals fl i (t ^ "!") then fail "slot %d: text_equals false positive" i;
      if Flat.attrs fl i <> n.Tree.attrs then fail "slot %d: attrs differ" i;
      List.iter
        (fun (k, v) ->
          let key = Intern.find (Flat.intern fl) k in
          if not (Flat.attr_test fl i ~key ~expected:None) then
            fail "slot %d: attr %S presence" i k;
          if
            Flat.attr_test fl i ~key ~expected:(Some (v ^ "!"))
            && List.assoc k n.Tree.attrs <> v ^ "!"
          then fail "slot %d: attr %S false positive" i k)
        n.Tree.attrs;
      if Flat.attr_test fl i ~key:(-1) ~expected:None then
        fail "slot %d: key -1 matched" i;
      (* Structure links, against the pointer tree's child lists. *)
      (match n.Tree.children with
      | [] -> if Flat.first_child fl i <> -1 then fail "slot %d: leaf child" i
      | c :: _ ->
          if Flat.first_child fl i <> Hashtbl.find index_of_id c.Tree.id then
            fail "slot %d: first_child" i);
      let rec check_kids = function
        | a :: (b : Tree.node) :: rest ->
            let ia = Hashtbl.find index_of_id a.Tree.id in
            if Flat.next_sibling fl ia <> Hashtbl.find index_of_id b.Tree.id
            then fail "slot %d: next_sibling" ia;
            if Flat.parent fl ia <> i then fail "slot %d: parent" ia;
            check_kids (b :: rest)
        | [ (a : Tree.node) ] ->
            let ia = Hashtbl.find index_of_id a.Tree.id in
            if Flat.next_sibling fl ia <> -1 then fail "slot %d: last sibling" ia;
            if Flat.parent fl ia <> i then fail "slot %d: parent" ia
        | [] -> ()
      in
      check_kids n.Tree.children;
      let size = Tree.fold (fun acc _ -> acc + 1) 0 n in
      if Flat.subtree_size fl i <> size then fail "slot %d: subtree_size" i)
    nodes;
  if Flat.parent fl 0 <> -1 then fail "root parent";
  true

(* Accessors, then the shipped answer of every slot against its
   source node's, then the id index, present and absent. *)
let check_image fl root =
  ignore (check_accessors fl root : bool);
  List.iteri
    (fun i (n : Tree.node) ->
      if Wire.answer_of_slot fl i <> Wire.answer_of_node n then
        fail "slot %d: shipped answer differs from node %d's" i n.Tree.id;
      if Flat.find_index fl n.Tree.id <> Some i then
        fail "find_index %d" n.Tree.id)
    (preorder root);
  let absent =
    List.fold_left
      (fun m (n : Tree.node) -> max m (n.Tree.id + 1))
      0 (preorder root)
  in
  if Flat.find_index fl absent <> None then fail "find_index absent id";
  true

(* (c) The spine column against its definition, on the columns
   [check_accessors] pins to the pointer tree: some virtual slot in
   [i, i + subtree_size i). *)
let check_spine fl =
  for i = 0 to Flat.length fl - 1 do
    let rec any j =
      j < i + Flat.subtree_size fl i && (Flat.is_virtual fl j || any (j + 1))
    in
    if Flat.on_spine fl i <> any i then fail "slot %d: on_spine" i
  done;
  true

let prop_spine (ft : Fragment.t) =
  Array.for_all
    (fun (fr : Fragment.fragment) ->
      let fl = Fragment.flat ft fr.Fragment.fid in
      check_spine fl
      &&
      match Flat.decode (Flat.encode fl) with
      | Some fl2 -> check_spine fl2
      | None -> fail "decode (encode fl) = None")
    ft.Fragment.fragments

(* The tag mask column against its definition: the OR over
   [i, i + subtree_size i) of bit [code mod 63], all ones for a virtual
   slot. *)
let check_mask fl =
  for i = 0 to Flat.length fl - 1 do
    let m = ref 0 in
    for j = i to i + Flat.subtree_size fl i - 1 do
      let bits =
        if Flat.is_virtual fl j then -1 else 1 lsl (Flat.tag_code fl j mod 63)
      in
      m := !m lor bits
    done;
    if Flat.tag_mask fl i <> !m then fail "slot %d: tag_mask" i
  done;
  true

(* On stores with more than 63 tag names, so masks wrap. *)
let prop_mask (ft : Fragment.t) =
  if Intern.size (Fragment.intern ft) <= 63 then fail "63 tags or fewer";
  Array.for_all
    (fun (fr : Fragment.fragment) ->
      let fl = Fragment.flat ft fr.Fragment.fid in
      check_mask fl
      &&
      match Flat.decode (Flat.encode fl) with
      | Some fl2 -> check_mask fl2
      | None -> fail "decode (encode fl) = None")
    ft.Fragment.fragments

let arbitrary_wide_store =
  QCheck.make
    ~print:(fun ft -> Format.asprintf "%a" Fragment.pp ft)
    (fun st ->
      let d = H.Gen.deep_doc st in
      Fragment.fragmentize d ~cuts:(H.Gen.cuts d st))

let prop_image (ft : Fragment.t) =
  Array.for_all
    (fun (fr : Fragment.fragment) ->
      let fl = Fragment.flat ft fr.Fragment.fid in
      check_image fl fr.Fragment.root)
    ft.Fragment.fragments

(* encode/decode: the wire image rebuilds an equivalent fragment on a
   fresh intern table and on the store's own one, where re-encoding
   gives back the very bytes decoded. *)
let prop_wire (ft : Fragment.t) =
  Array.for_all
    (fun (fr : Fragment.fragment) ->
      let root = fr.Fragment.root in
      let fl = Fragment.flat ft fr.Fragment.fid in
      let s = Flat.encode fl in
      (match Flat.decode s with
      | None -> fail "decode (encode fl) = None"
      | Some fl2 -> ignore (check_image fl2 root : bool));
      (match Flat.decode ~intern:(Fragment.intern ft) s with
      | None -> fail "decode ~intern = None"
      | Some fl2 ->
          ignore (check_image fl2 root : bool);
          if Flat.encode fl2 <> s then fail "encode (decode s) <> s");
      (* Through a Wire section: kind survives and the payload decodes
         to the same image. *)
      (match Wire.section_of_string (Wire.section_to_string (Wire.Frag_flat fl)) with
      | Some (Wire.Frag_flat fl2) -> ignore (check_image fl2 root : bool)
      | _ -> fail "Frag_flat section did not survive");
      true)
    ft.Fragment.fragments

(* Decoding is total: truncations and bit flips of a valid image must
   return [None] or a valid image, never raise. *)
let prop_corrupt (ft : Fragment.t) =
  let s = Flat.encode (Fragment.flat ft 0) in
  let n = String.length s in
  for cut = 0 to min n 40 do
    ignore (Flat.decode (String.sub s 0 cut) : Flat.t option)
  done;
  for i = 0 to min (n - 1) 60 do
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xFF));
    ignore (Flat.decode (Bytes.unsafe_to_string b) : Flat.t option)
  done;
  true

(* Directed: the store's cached image is shared (same physical image
   until an update bumps the generation), and the rebuilt image encodes
   to the same bytes. *)
let test_cache_identity () =
  let b = Tree.builder () in
  let doc =
    Tree.doc_of_root
      (Tree.elem b "a" [ Tree.elem b "b" []; Tree.leaf b "c" "7" ])
  in
  let ft = Fragment.trivial doc in
  let fl1 = Fragment.flat ft 0 in
  let fl2 = Fragment.flat ft 0 in
  Alcotest.(check bool) "same image" true (fl1 == fl2);
  Fragment.bump_generation ft 0;
  let fl3 = Fragment.flat ft 0 in
  Alcotest.(check bool) "rebuilt after bump" true (fl1 != fl3);
  Alcotest.(check string) "rebuild equal" (Flat.encode fl1) (Flat.encode fl3)

(* Directed: the random documents carry at most one attribute per node,
   so attribute order in a shipped answer is pinned here. *)
let test_answer_attrs () =
  let b = Tree.builder () in
  let root =
    Tree.elem b ~attrs:[ ("id", "7"); ("cat", "x"); ("id", "8") ] "a"
      [ Tree.elem b ~text:"t" ~attrs:[ ("k", "v"); ("j", "") ] "b" [] ]
  in
  let ft = Fragment.trivial (Tree.doc_of_root root) in
  let fl = Fragment.flat ft 0 in
  Alcotest.(check bool) "image" true (check_image fl root);
  match Flat.decode (Flat.encode fl) with
  | Some fl2 -> Alcotest.(check bool) "decoded" true (check_image fl2 root)
  | None -> Alcotest.fail "decode (encode fl) = None"

let test_empty_and_garbage () =
  Alcotest.(check bool) "empty" true (Flat.decode "" = None);
  Alcotest.(check bool)
    "garbage" true
    (Flat.decode (String.make 64 '\xFF') = None)

(* ------------------------------------------------------------------ *)
(* stage kernels                                                      *)
(* ------------------------------------------------------------------ *)

(* One fake valuation of every boundary variable a fragment's results
   can mention: sub-fragment qualifier entries and the fragment's own
   stack-initialization variables. *)
let fake_lookup = function
  | Var.Qual (sub, e) -> Some (Formula.bool ((sub + e) mod 2 = 0))
  | Var.Sel_ctx (fid, k) -> Some (Formula.bool ((fid + (2 * k)) mod 3 <> 1))
  | Var.Qual_at _ -> None

let init_for compiled ~fid ~is_root =
  if is_root then Sel_pass.blank_init compiled
  else Sel_pass.symbolic_init compiled ~fid

let resolve_ctxs ctxs =
  List.map (fun (fid, vec) -> (fid, Array.map (Formula.subst fake_lookup) vec)) ctxs

(* (a) PaX2's combined pass = the qualifier pass then the selection
   pass, per fragment, once both sides' candidates and contexts are
   resolved under [fake_lookup]: the same answer slots, the same
   resolved contexts, and the same (unresolved) root qualifier
   vector. *)
let combined_matches_two_pass compiled ft =
  let plan = Flat_pass.make_plan compiled (Fragment.intern ft) in
  List.iter
    (fun fid ->
      let is_root = fid = 0 in
      let fl = Fragment.flat ft fid in
      let init = init_for compiled ~fid ~is_root in
      let oc = Flat_pass.combined_run plan fl ~init ~is_root in
      let fq = Flat_pass.qual_run plan fl ~is_root in
      if oc.Flat_pass.root_qvec <> fq.Flat_pass.q_root_vec then
        fail "F%d: combined root vector <> qualifier pass root vector" fid;
      ignore (Flat_pass.qual_resolve fq fake_lookup : int);
      let os = Flat_pass.sel_run plan fl ~init ~is_root ~qual:(Some fq) in
      let answers certain cands =
        let resolved, _ = Flat_pass.resolve_candidates cands fake_lookup in
        List.sort compare (List.filter (fun i -> i >= 0) certain @ resolved)
      in
      if
        answers oc.Flat_pass.answers oc.Flat_pass.candidates
        <> answers os.Flat_pass.answers os.Flat_pass.candidates
      then fail "F%d: combined answers <> two-pass answers" fid;
      if
        resolve_ctxs oc.Flat_pass.contexts
        <> resolve_ctxs os.Flat_pass.contexts
      then fail "F%d: combined contexts <> two-pass contexts" fid)
    (Fragment.top_down ft);
  true

let prop_combined (s : H.Gen.scenario) =
  combined_matches_two_pass
    (Query.of_ast s.H.Gen.s_query).Query.compiled
    (Pax_dist.Cluster.ftree s.H.Gen.s_cluster)

(* Skipping on the data it is for: an XMark tree cut like the paper's
   FT2, where every site but the first is a fragment, and so is each
   of its regions and auction sections.  Q1 reaches only the people
   sections, so its combined pass must charge under 5% of a walk over
   every slot (n_sel per element, Q1 having no qualifier), and still
   agree with the two passes. *)
let test_xmark_q1_skips () =
  let doc = Pax_xmark.Xmark.doc ~seed:42 ~total_nodes:3000 ~n_sites:3 in
  let sections = [ "regions"; "open_auctions"; "closed_auctions" ] in
  let cuts =
    List.concat_map
      (fun (site : Tree.node) ->
        site.Tree.id
        :: List.filter_map
             (fun (c : Tree.node) ->
               if List.mem c.Tree.tag sections then Some c.Tree.id else None)
             site.Tree.children)
      (List.tl doc.Tree.root.Tree.children)
  in
  let ft = Fragment.fragmentize doc ~cuts in
  Alcotest.(check int) "fragments" 9 (Fragment.n_fragments ft);
  let compiled = (Query.of_string Pax_xmark.Xmark.q1).Query.compiled in
  let plan = Flat_pass.make_plan compiled (Fragment.intern ft) in
  let ops = ref 0 and full = ref 0 in
  List.iter
    (fun fid ->
      let is_root = fid = 0 in
      let fl = Fragment.flat ft fid in
      let init = init_for compiled ~fid ~is_root in
      let oc = Flat_pass.combined_run plan fl ~init ~is_root in
      ops := !ops + oc.Flat_pass.ops;
      for i = 0 to Flat.length fl - 1 do
        if not (Flat.is_virtual fl i) then
          full := !full + compiled.Compile.n_sel
      done)
    (Fragment.top_down ft);
  if !ops * 20 >= !full then
    Alcotest.failf "Q1 charged %d ops, not under 5%% of %d" !ops !full;
  Alcotest.(check bool)
    "= two passes" true
    (combined_matches_two_pass compiled ft)

(* The flat qualifier and selection passes against their pointer
   references, per fragment and per entry (test/test_passes.ml's
   parity check, for the wide queries below). *)
let kernels_match_pointer compiled ft =
  let plan = Flat_pass.make_plan compiled (Fragment.intern ft) in
  List.iter
    (fun fid ->
      let is_root = fid = 0 in
      let root = (Fragment.fragment ft fid).Fragment.root in
      let eval_root =
        if is_root then fst (Sel_pass.context_root compiled root) else root
      in
      let fl = Fragment.flat ft fid in
      let qp = Qual_pass.run compiled eval_root in
      let fq = Flat_pass.qual_run plan fl ~is_root in
      if qp.Qual_pass.ops <> fq.Flat_pass.q_ops then fail "F%d: qual ops" fid;
      if qp.Qual_pass.root_vec <> fq.Flat_pass.q_root_vec then
        fail "F%d: qual root vector" fid;
      for i = 0 to Flat.length fl - 1 do
        if
          Hashtbl.find_opt qp.Qual_pass.vectors (Flat.node_id fl i)
          <> Some fq.Flat_pass.q_vecs.(i)
        then fail "F%d: qual vector at slot %d" fid i
      done;
      if Qual_pass.resolve qp fake_lookup <> Flat_pass.qual_resolve fq fake_lookup
      then fail "F%d: qual resolve ops" fid;
      let init = init_for compiled ~fid ~is_root in
      let sat (v : Tree.node) filter =
        Qual_pass.sat compiled (Hashtbl.find qp.Qual_pass.vectors v.Tree.id) v
          filter
      in
      let sp =
        Sel_pass.run compiled ~init ~root_is_context:is_root ~sat eval_root
      in
      let fs = Flat_pass.sel_run plan fl ~init ~is_root ~qual:(Some fq) in
      let node_ids = List.map (fun (n : Tree.node) -> n.Tree.id) in
      let slot_ids = List.map (Flat_pass.node_id fl) in
      if sp.Sel_pass.ops <> fs.Flat_pass.ops then fail "F%d: sel ops" fid;
      if node_ids sp.Sel_pass.answers <> slot_ids fs.Flat_pass.answers then
        fail "F%d: sel answers" fid;
      if
        List.map (fun ((n : Tree.node), f) -> (n.Tree.id, f)) sp.Sel_pass.candidates
        <> List.map (fun (i, f) -> (Flat_pass.node_id fl i, f)) fs.Flat_pass.candidates
      then fail "F%d: sel candidates" fid;
      if sp.Sel_pass.contexts <> fs.Flat_pass.contexts then
        fail "F%d: sel contexts" fid)
    (Fragment.top_down ft);
  true

(* (b) A query whose qualifier vectors span several words: a random
   path filtered by a conjunction of random qualifiers, grown until it
   has more than 63 entries. *)
let wide_query st =
  let path = H.Gen.path ~qdepth:1 st in
  let rec grow q k =
    let ast = { Ast.absolute = G.bool st; path = Ast.Qualified (path, q) } in
    let compiled = (Query.of_ast ast).Query.compiled in
    if compiled.Compile.n_qual > 63 || k = 0 then (ast, compiled)
    else grow (Ast.QAnd (H.Gen.qual ~qdepth:2 st, q)) (k - 1)
  in
  grow (H.Gen.qual ~qdepth:2 st) 200

let arbitrary_wide =
  QCheck.make
    ~print:(fun (s, ast, _) ->
      Format.asprintf "query: %a@.%s" Ast.pp ast (H.Gen.print_scenario s))
    (fun st ->
      let s = H.Gen.scenario st in
      let ast, compiled = wide_query st in
      (s, ast, compiled))

let prop_wide ((s : H.Gen.scenario), _, compiled) =
  if compiled.Compile.n_qual <= 63 then fail "n_qual %d <= 63" compiled.Compile.n_qual;
  let ft = Pax_dist.Cluster.ftree s.H.Gen.s_cluster in
  kernels_match_pointer compiled ft && combined_matches_two_pass compiled ft

let qtest name ~count:n prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:(count n) arbitrary_store prop)

let () =
  Alcotest.run "flat"
    [
      ( "flat",
        [
          Alcotest.test_case "store image cached until generation bump" `Quick
            test_cache_identity;
          Alcotest.test_case "decode rejects empty and garbage" `Quick
            test_empty_and_garbage;
          Alcotest.test_case "shipped answers keep attribute order" `Quick
            test_answer_attrs;
          qtest "of_tree accessors and shipped answers agree" ~count:200
            prop_image;
          qtest "encode/decode and Frag_flat section roundtrip" ~count:100
            prop_wire;
          qtest "decode is total on corrupt input" ~count:50 prop_corrupt;
          qtest "on_spine = virtual slot in subtree, decoded" ~count:200
            prop_spine;
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~name:"tag_mask = subtree tag OR, decoded"
               ~count:(count 200) arbitrary_wide_store prop_mask);
        ] );
      (* Alcotest pads every row to the longest group name and cuts
         test names to fit the terminal: group names stay at four
         characters so the names above print whole. *)
      ( "pass",
        [
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~name:"combined = qualifier + selection pass"
               ~count:(count 300) H.Gen.arbitrary_scenario prop_combined);
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make
               ~name:"n_qual > 63: kernels = pointers, two-pass"
               ~count:(count 100) arbitrary_wide prop_wide);
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~name:"combined = two-pass, >63 tags, deep"
               ~count:(count 300) H.Gen.arbitrary_deep_scenario prop_combined);
          Alcotest.test_case "XMark Q1 walks under 5% of the slots" `Quick
            test_xmark_q1_skips;
        ] );
    ]
