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
module Qual_pass = Test_helpers.Pointer.Qual_pass
module Sel_pass = Test_helpers.Pointer.Sel_pass
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
      let c = Flat.columns fl in
      if Flat.node_id fl i <> n.Tree.id then
        fail "slot %d: id %d <> %d" i (Flat.node_id fl i) n.Tree.id;
      (match n.Tree.kind with
      | Tree.Virtual fid ->
          if not (Flat.is_virtual fl i) || c.Flat.vfid.(i) <> fid then
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
      | [] -> if c.Flat.first_child.(i) <> -1 then fail "slot %d: leaf child" i
      | k :: _ ->
          if c.Flat.first_child.(i) <> Hashtbl.find index_of_id k.Tree.id then
            fail "slot %d: first_child" i);
      let rec check_kids = function
        | a :: (b : Tree.node) :: rest ->
            let ia = Hashtbl.find index_of_id a.Tree.id in
            if c.Flat.next_sibling.(ia) <> Hashtbl.find index_of_id b.Tree.id
            then fail "slot %d: next_sibling" ia;
            if Flat.parent fl ia <> i then fail "slot %d: parent" ia;
            check_kids (b :: rest)
        | [ (a : Tree.node) ] ->
            let ia = Hashtbl.find index_of_id a.Tree.id in
            if c.Flat.next_sibling.(ia) <> -1 then fail "slot %d: last sibling" ia;
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
  let c = Flat.columns fl in
  for i = 0 to Flat.length fl - 1 do
    let rec any j =
      j < i + Flat.subtree_size fl i && (Flat.is_virtual fl j || any (j + 1))
    in
    if c.Flat.spine.(i) <> any i then fail "slot %d: on_spine" i
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

(* [levels] against its definition: 1 + the largest depth of a slot,
   following [parent] up to the root. *)
let check_levels fl =
  let rec depth i =
    if Flat.parent fl i < 0 then 0 else 1 + depth (Flat.parent fl i)
  in
  let deepest = ref 0 in
  for i = 0 to Flat.length fl - 1 do
    deepest := max !deepest (depth i)
  done;
  if (Flat.columns fl).Flat.levels <> !deepest + 1 then fail "levels";
  true

let prop_levels (ft : Fragment.t) =
  Array.for_all
    (fun (fr : Fragment.fragment) ->
      let fl = Fragment.flat ft fr.Fragment.fid in
      check_levels fl
      &&
      match Flat.decode (Flat.encode fl) with
      | Some fl2 -> check_levels fl2
      | None -> fail "decode (encode fl) = None")
    ft.Fragment.fragments

(* The tag mask column against its definition: the OR over
   [i, i + subtree_size i) of bit [code mod 63], all ones for a virtual
   slot. *)
let check_mask fl =
  let c = Flat.columns fl in
  for i = 0 to Flat.length fl - 1 do
    let m = ref 0 in
    for j = i to i + Flat.subtree_size fl i - 1 do
      let bits =
        if Flat.is_virtual fl j then -1 else 1 lsl (c.Flat.tag.(j) mod 63)
      in
      m := !m lor bits
    done;
    if c.Flat.mask.(i) <> !m then fail "slot %d: tag_mask" i
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
      (match
         Pax_bool.Codec.(
           of_string_opt Wire.section (to_string Wire.section (Wire.Frag_flat fl)))
       with
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

(* Directed: the structure columns must describe one tree in preorder,
   or the kernels' walk could loop or go deeper than [levels]: a next
   sibling pointing back at its slot, and a first child that skips a
   slot, are refused although every reference is in range. *)
let test_decode_checks_tree () =
  let b = Tree.builder () in
  let root = Tree.elem b "a" [ Tree.elem b "b" []; Tree.elem b "c" [] ] in
  let ft = Fragment.trivial (Tree.doc_of_root root) in
  let s = Flat.encode (Fragment.flat ft 0) in
  (* No text or attribute: the 11 node columns of 3 slots end the image. *)
  let column k = String.length s - (4 * 3 * (11 - k)) in
  let with_slot k slot v =
    let b = Bytes.of_string s in
    Bytes.set_int32_le b (column k + (4 * slot)) (Int32.of_int v);
    Flat.decode (Bytes.unsafe_to_string b)
  in
  Alcotest.(check bool) "valid" true (Flat.decode s <> None);
  Alcotest.(check bool) "unchanged rewrite" true (with_slot 3 1 2 <> None);
  Alcotest.(check bool) "next_sibling loop" true (with_slot 3 1 1 = None);
  Alcotest.(check bool) "first_child skips" true (with_slot 2 0 2 = None)

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
   of its regions and auction sections. *)
let xmark_ft2 ?(total_nodes = 3000) () =
  let doc = Pax_xmark.Xmark.doc ~seed:42 ~total_nodes ~n_sites:3 in
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
  ft

(* The combined pass's ops on every fragment of [ft], and what a walk
   of every slot would charge ([n_sel + n_qual] per element); checks
   the pass still agrees with the two passes. *)
let combined_share ft query =
  let compiled = (Query.of_string query).Query.compiled in
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
          full := !full + compiled.Compile.n_sel + compiled.Compile.n_qual
      done)
    (Fragment.top_down ft);
  Alcotest.(check bool)
    "= two passes" true
    (combined_matches_two_pass compiled ft);
  (!ops, !full)

(* [name]'s combined pass is charged under [pct]% of a walk of every
   slot. *)
let check_share ft name query ~pct =
  let ops, full = combined_share ft query in
  if ops * 100 >= full * pct then
    Alcotest.failf "%s charged %d ops, not under %d%% of %d" name ops pct full

(* Q1 reaches only the people sections and has no qualifier. *)
let test_xmark_q1_skips () =
  check_share (xmark_ft2 ()) "Q1" Pax_xmark.Xmark.q1 ~pct:5

(* Q2 reaches annotations below the open auctions only: a child of an
   auction is walked when an annotation is below it.  Q3 and Q4 demand
   every qualifier entry of each fragment root, but a child is walked
   only when its tag can pass a test that demand owes: a
   [closed_auctions] root walks none of its auctions. *)
let test_xmark_q2_q4_skip () =
  let ft = xmark_ft2 () in
  check_share ft "Q2" Pax_xmark.Xmark.q2 ~pct:10;
  check_share ft "Q3" Pax_xmark.Xmark.q3 ~pct:25;
  check_share ft "Q4" Pax_xmark.Xmark.q4 ~pct:25

(* The kernels' counts on XMark FT2 cuts of 3,000 and 12,000 nodes,
   pinned so that a faster kernel cannot change what it charges or
   returns.  Per (nodes, query, fragment): [combined_run]'s ops and its
   numbers of answers, candidates and contexts, then [qual_run]'s ops
   and the ops of [sel_run] over the resolved qualifier pass. *)
let golden_kernel_counts =
  [
    (3000, 1, 0, (152, 22, 0, 2), 0, 5280);
    (3000, 1, 1, (171, 0, 26, 3), 0, 1785);
    (3000, 1, 2, (189, 0, 29, 3), 0, 1795);
    (3000, 1, 3, (5, 0, 0, 0), 0, 1170);
    (3000, 1, 4, (5, 0, 0, 0), 0, 1580);
    (3000, 1, 5, (5, 0, 0, 0), 0, 810);
    (3000, 1, 6, (5, 0, 0, 0), 0, 1170);
    (3000, 1, 7, (5, 0, 0, 0), 0, 1580);
    (3000, 1, 8, (5, 0, 0, 0), 0, 765);
    (3000, 2, 0, (219, 15, 0, 2), 0, 6336);
    (3000, 2, 1, (18, 0, 0, 3), 0, 2142);
    (3000, 2, 2, (18, 0, 0, 3), 0, 2154);
    (3000, 2, 3, (6, 0, 0, 0), 0, 1404);
    (3000, 2, 4, (201, 0, 15, 0), 0, 1896);
    (3000, 2, 5, (71, 0, 5, 0), 0, 972);
    (3000, 2, 6, (6, 0, 0, 0), 0, 1404);
    (3000, 2, 7, (175, 0, 13, 0), 0, 1896);
    (3000, 2, 8, (110, 0, 8, 0), 0, 918);
    (3000, 3, 0, (2465, 5, 0, 2), 21150, 7392);
    (3000, 3, 1, (2409, 0, 3, 3), 7190, 2499);
    (3000, 3, 2, (1926, 0, 4, 3), 7230, 2513);
    (3000, 3, 3, (17, 0, 0, 0), 4670, 1638);
    (3000, 3, 4, (17, 0, 0, 0), 6310, 2212);
    (3000, 3, 5, (17, 0, 0, 0), 3230, 1134);
    (3000, 3, 6, (17, 0, 0, 0), 4670, 1638);
    (3000, 3, 7, (17, 0, 0, 0), 6310, 2212);
    (3000, 3, 8, (17, 0, 0, 0), 3050, 1071);
    (3000, 4, 0, (2465, 5, 0, 2), 21150, 7392);
    (3000, 4, 1, (2409, 0, 3, 3), 7190, 2499);
    (3000, 4, 2, (1926, 0, 4, 3), 7230, 2513);
    (3000, 4, 3, (17, 0, 0, 0), 4670, 1638);
    (3000, 4, 4, (17, 0, 0, 0), 6310, 2212);
    (3000, 4, 5, (17, 0, 0, 0), 3230, 1134);
    (3000, 4, 6, (17, 0, 0, 0), 4670, 1638);
    (3000, 4, 7, (17, 0, 0, 0), 6310, 2212);
    (3000, 4, 8, (17, 0, 0, 0), 3050, 1071);
    (12000, 1, 0, (590, 95, 0, 2), 0, 19825);
    (12000, 1, 1, (627, 0, 102, 3), 0, 7065);
    (12000, 1, 2, (633, 0, 103, 3), 0, 7065);
    (12000, 1, 3, (5, 0, 0, 0), 0, 3720);
    (12000, 1, 4, (5, 0, 0, 0), 0, 6055);
    (12000, 1, 5, (5, 0, 0, 0), 0, 3045);
    (12000, 1, 6, (5, 0, 0, 0), 0, 3790);
    (12000, 1, 7, (5, 0, 0, 0), 0, 6080);
    (12000, 1, 8, (5, 0, 0, 0), 0, 3025);
    (12000, 2, 0, (739, 55, 0, 2), 0, 23790);
    (12000, 2, 1, (18, 0, 0, 3), 0, 8478);
    (12000, 2, 2, (18, 0, 0, 3), 0, 8478);
    (12000, 2, 3, (6, 0, 0, 0), 0, 4464);
    (12000, 2, 4, (695, 0, 53, 0), 0, 7266);
    (12000, 2, 5, (422, 0, 32, 0), 0, 3654);
    (12000, 2, 6, (6, 0, 0, 0), 0, 4548);
    (12000, 2, 7, (708, 0, 54, 0), 0, 7296);
    (12000, 2, 8, (370, 0, 28, 0), 0, 3630);
    (12000, 3, 0, (8991, 13, 0, 2), 79330, 27755);
    (12000, 3, 1, (8004, 0, 11, 3), 28310, 9891);
    (12000, 3, 2, (8182, 0, 12, 3), 28310, 9891);
    (12000, 3, 3, (17, 0, 0, 0), 14870, 5208);
    (12000, 3, 4, (17, 0, 0, 0), 24210, 8477);
    (12000, 3, 5, (17, 0, 0, 0), 12170, 4263);
    (12000, 3, 6, (17, 0, 0, 0), 15150, 5306);
    (12000, 3, 7, (17, 0, 0, 0), 24310, 8512);
    (12000, 3, 8, (17, 0, 0, 0), 12090, 4235);
    (12000, 4, 0, (8991, 13, 0, 2), 79330, 27755);
    (12000, 4, 1, (8004, 0, 11, 3), 28310, 9891);
    (12000, 4, 2, (8182, 0, 12, 3), 28310, 9891);
    (12000, 4, 3, (17, 0, 0, 0), 14870, 5208);
    (12000, 4, 4, (17, 0, 0, 0), 24210, 8477);
    (12000, 4, 5, (17, 0, 0, 0), 12170, 4263);
    (12000, 4, 6, (17, 0, 0, 0), 15150, 5306);
    (12000, 4, 7, (17, 0, 0, 0), 24310, 8512);
    (12000, 4, 8, (17, 0, 0, 0), 12090, 4235);
  ]

(* [Gc.minor_words] of one [combined_run] per fragment, after one
   warm-up run, summed over the fragments, per (nodes, query): the
   kernel allocates no more than these. *)
let golden_combined_words =
  [
    ((3000, 1), 3836);
    ((3000, 2), 4541);
    ((3000, 3), 12846);
    ((3000, 4), 12846);
    ((12000, 1), 7631);
    ((12000, 2), 10016);
    ((12000, 3), 34544);
    ((12000, 4), 34544);
  ]

let golden_queries = Pax_xmark.Xmark.[| q1; q2; q3; q4 |]

(* [f ()] for every (nodes, query, fragment) of the golden tables, with
   the fragment's plan, image and initial selection vector. *)
let over_golden_cases f =
  List.iter
    (fun total_nodes ->
      let ft = xmark_ft2 ~total_nodes () in
      Array.iteri
        (fun qi query ->
          let compiled = (Query.of_string query).Query.compiled in
          let plan = Flat_pass.make_plan compiled (Fragment.intern ft) in
          List.iter
            (fun fid ->
              let is_root = fid = 0 in
              let fl = Fragment.flat ft fid in
              let init = init_for compiled ~fid ~is_root in
              f (total_nodes, qi + 1, fid) plan fl ~init ~is_root)
            (Fragment.top_down ft))
        golden_queries)
    [ 3000; 12000 ]

let test_golden_counts () =
  let seen = ref [] in
  over_golden_cases (fun key plan fl ~init ~is_root ->
      let oc = Flat_pass.combined_run plan fl ~init ~is_root in
      let fq = Flat_pass.qual_run plan fl ~is_root in
      ignore (Flat_pass.qual_resolve fq fake_lookup : int);
      let os = Flat_pass.sel_run plan fl ~init ~is_root ~qual:(Some fq) in
      let nodes, q, fid = key in
      seen :=
        ( nodes,
          q,
          fid,
          ( oc.Flat_pass.ops,
            List.length oc.Flat_pass.answers,
            List.length oc.Flat_pass.candidates,
            List.length oc.Flat_pass.contexts ),
          fq.Flat_pass.q_ops,
          os.Flat_pass.ops )
        :: !seen);
  let row (nodes, q, fid, (ops, a, c, x), qops, sops) =
    Printf.sprintf
      "%d nodes, Q%d, F%d: combined %d ops, %d answers, %d candidates, %d \
       contexts; qual %d ops; sel %d ops"
      nodes q fid ops a c x qops sops
  in
  Alcotest.(check (list string))
    "kernel counts" (List.map row golden_kernel_counts)
    (List.rev_map row !seen)

let test_golden_words () =
  let words = Hashtbl.create 8 in
  over_golden_cases (fun (nodes, q, _) plan fl ~init ~is_root ->
      let run () = Flat_pass.combined_run plan fl ~init ~is_root in
      ignore (Sys.opaque_identity (run ()));
      let before = Gc.minor_words () in
      let oc = run () in
      let after = Gc.minor_words () in
      ignore (Sys.opaque_identity oc);
      let w = Option.value (Hashtbl.find_opt words (nodes, q)) ~default:0. in
      Hashtbl.replace words (nodes, q) (w +. (after -. before)));
  List.iter
    (fun ((nodes, q), limit) ->
      let w = int_of_float (Hashtbl.find words (nodes, q)) in
      if w > limit then
        Alcotest.failf
          "%d nodes, Q%d: combined pass allocated %d minor words, over %d"
          nodes q w limit)
    golden_combined_words

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
          qtest "levels = 1 + deepest slot, decoded" ~count:200 prop_levels;
          Alcotest.test_case "decode rejects a mis-linked tree" `Quick
            test_decode_checks_tree;
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
          Alcotest.test_case "XMark Q2-Q4 walk under 10%, 25%, 25%" `Quick
            test_xmark_q2_q4_skip;
          Alcotest.test_case "XMark golden kernel counts" `Quick
            test_golden_counts;
          Alcotest.test_case "XMark combined pass allocates no more" `Quick
            test_golden_words;
        ] );
    ]
