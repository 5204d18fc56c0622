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
   equality on whole images. *)

module Tree = Pax_xml.Tree
module Intern = Pax_xml.Intern
module Flat = Pax_xml.Flat
module Fragment = Pax_frag.Fragment
module Wire = Pax_wire.Wire
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
        ] );
    ]
