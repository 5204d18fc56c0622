(* Distributed updates: routing to the owning fragment, invariant
   preservation, and queries staying correct after mutation. *)

module Tree = Pax_xml.Tree
module Query = Pax_xpath.Query
module Semantics = Pax_xpath.Semantics
module Fragment = Pax_frag.Fragment
module Update = Pax_frag.Update
module H = Test_helpers

(* Fresh state per test: the clientele tree, fragmented as in Fig. 2. *)
let setup () =
  let c = H.Data.clientele () in
  (c, H.Data.clientele_ftree c)

let reassembled_query ft qs =
  let root = Fragment.reassemble ft in
  Semantics.eval (Pax_xpath.Parse.query qs) root

let test_set_text () =
  let c, ft = setup () in
  (match Update.apply ft (Update.Set_text (c.H.Data.etrade_name, "Etrade Inc")) with
  | Ok _fid -> ()
  | Error e -> Alcotest.fail (Update.error_to_string e));
  let names = reassembled_query ft "//broker/name" in
  Alcotest.(check bool) "name updated" true
    (List.exists (fun n -> Tree.text_of n = "Etrade Inc") names);
  Alcotest.(check bool) "old name gone" false
    (List.exists (fun n -> Tree.text_of n = "E*trade") names)

let test_insert () =
  let c, ft = setup () in
  (* Give Lisa's CIBC broker a new market, built with fresh ids. *)
  let b = Tree.builder_from 10_000 in
  let new_market =
    Tree.elem b "market"
      [
        Tree.leaf b "name" "LSE";
        Tree.elem b "stock"
          [ Tree.leaf b "code" "VOD"; Tree.leaf b "buy" "120"; Tree.leaf b "qt" "10" ];
      ]
  in
  (match Update.apply ft (Update.Insert (c.H.Data.cibc_broker, new_market)) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Update.error_to_string e));
  let markets = reassembled_query ft "//broker[name/text() = \"CIBC\"]/market" in
  Alcotest.(check int) "CIBC now has two markets" 2 (List.length markets);
  let vod = reassembled_query ft "//stock[code/text() = \"VOD\"]" in
  Alcotest.(check int) "new stock visible" 1 (List.length vod)

let test_insert_duplicate_ids_rejected () =
  let c, ft = setup () in
  let b = Tree.builder () (* ids collide with the document *) in
  let clash = Tree.leaf b "x" "y" in
  match Update.apply ft (Update.Insert (c.H.Data.cibc_broker, clash)) with
  | Error (Update.Duplicate_ids _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "duplicate ids must be rejected"

let test_delete () =
  let c, ft = setup () in
  let before = List.length (reassembled_query ft "//stock") in
  (* Delete Bache's NYSE market (entirely inside F0). *)
  let nyse =
    List.find
      (fun (n : Tree.node) ->
        List.exists (fun (c : Tree.node) -> Tree.text_of c = "NYSE") n.Tree.children)
      (Tree.select (fun n -> n.Tree.tag = "market") c.H.Data.doc.Tree.root)
  in
  (match Update.apply ft (Update.Delete nyse.Tree.id) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Update.error_to_string e));
  let after = List.length (reassembled_query ft "//stock") in
  Alcotest.(check int) "one stock fewer" (before - 1) after

let test_delete_fragment_root_rejected () =
  let c, ft = setup () in
  match Update.apply ft (Update.Delete c.H.Data.cut_f1) with
  | Error (Update.Is_fragment_root _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "fragment roots cannot be deleted"

let test_delete_spanning_rejected () =
  let c, ft = setup () in
  (* Anna's whole client subtree contains the virtual node for F1. *)
  let anna_client =
    List.find
      (fun (n : Tree.node) ->
        List.exists (fun (c : Tree.node) -> Tree.text_of c = "Anna") n.Tree.children)
      c.H.Data.doc.Tree.root.Tree.children
  in
  match Update.apply ft (Update.Delete anna_client.Tree.id) with
  | Error (Update.Would_detach_fragments _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "spanning deletes must be rejected"

let test_missing_node () =
  let _, ft = setup () in
  match Update.apply ft (Update.Set_text (424242, "x")) with
  | Error (Update.Node_not_found _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "unknown node must be reported"

let test_locate () =
  let c, ft = setup () in
  match Update.locate ft c.H.Data.cibc_name with
  | Some (fid, n) ->
      Alcotest.(check string) "found the right node" "CIBC" (Tree.text_of n);
      Alcotest.(check bool) "in a non-root fragment" true (fid > 0)
  | None -> Alcotest.fail "locate failed"

(* After a batch of updates, distributed evaluation still matches the
   oracle on the reassembled tree. *)
let test_queries_after_updates () =
  let c, ft = setup () in
  let b = Tree.builder_from 50_000 in
  let extra =
    Tree.elem b "stock"
      [ Tree.leaf b "code" "GOOG"; Tree.leaf b "buy" "401"; Tree.leaf b "qt" "7" ]
  in
  (* Insert a GOOG position into Bache's NASDAQ market (fragment F4). *)
  let nasdaq_market_id = c.H.Data.cut_f4 in
  (match Update.apply ft (Update.Insert (nasdaq_market_id, extra)) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Update.error_to_string e));
  (match Update.apply ft (Update.Set_text (c.H.Data.bache_name, "Bache & Co")) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Update.error_to_string e));
  let cl = Pax_dist.Cluster.one_site_per_fragment ft in
  let q = Query.of_string "//broker[//stock[code/text() = \"GOOG\"][buy > 400]]/name" in
  let r = Pax_core.Pax2.run cl q in
  let oracle = Semantics.eval_ids q.Query.ast (Fragment.reassemble ft) in
  Alcotest.(check (list int)) "PaX2 after updates = oracle on updated tree"
    oracle r.Pax_core.Run_result.answer_ids;
  Alcotest.(check int) "exactly the updated broker" 1 (List.length oracle)

(* An insert may bring a tag no fragment held before.  Every engine
   lowers a query once per run against the store's intern table, so the
   edited fragment's image must have interned the new tag by the time
   the next run starts — not lazily, midway through the run. *)
let test_new_tag_after_insert () =
  let c, ft = setup () in
  let b = Tree.builder_from 60_000 in
  (* Into Bache's NASDAQ market (fragment F4, not the root fragment). *)
  let rating = Tree.leaf b "rating" "AAA" in
  (match Update.apply ft (Update.Insert (c.H.Data.cut_f4, rating)) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Update.error_to_string e));
  let cl = Pax_dist.Cluster.one_site_per_fragment ft in
  List.iter
    (fun qs ->
      let q = Query.of_string qs in
      let oracle = Semantics.eval_ids q.Query.ast (Fragment.reassemble ft) in
      Alcotest.(check int) (qs ^ ": one answer") 1 (List.length oracle);
      List.iter
        (fun (name, run) ->
          Alcotest.(check (list int))
            (Printf.sprintf "%s: %s = oracle" qs name)
            oracle
            (run cl q).Pax_core.Run_result.answer_ids)
        [
          ("PaX2", fun cl q -> Pax_core.Pax2.run cl q);
          ("PaX3", fun cl q -> Pax_core.Pax3.run cl q);
          ("PaX2-XA", fun cl q -> Pax_core.Pax2.run ~annotations:true cl q);
        ])
    [ "//rating"; "//market[rating/text() = \"AAA\"]/name" ]

(* ------------------------------------------------------------------ *)
(* image edits = rebuilt images                                       *)
(* ------------------------------------------------------------------ *)

module Flat = Pax_xml.Flat
module G = QCheck.Gen

(* Random-case counts scale with PAX_QCHECK_COUNT (the @slow suites). *)
let qcheck_count n =
  match Sys.getenv_opt "PAX_QCHECK_COUNT" with
  | Some s -> ( try int_of_string s with _ -> n)
  | None -> n

(* Every id the fragments hold, virtual placeholders included, and one
   no fragment holds: targets for accepted and refused operations
   alike. *)
let all_ids ft =
  let ids = ref [ -7 ] in
  for fid = 0 to Fragment.n_fragments ft - 1 do
    Tree.iter
      (fun n -> ids := n.Tree.id :: !ids)
      (Fragment.fragment ft fid).Fragment.root
  done;
  Array.of_list !ids

(* A random subtree with fresh ids from [next], or, one time in six,
   one reusing an id the document holds (refused as a clash).  Tags
   include two no document carries, so inserts intern new codes. *)
let gen_subtree next st =
  let b =
    if G.int_bound 5 st = 0 then Tree.builder () else Tree.builder_from !next
  in
  let tags = [| "a"; "b"; "e"; "zz" |] in
  let rec build depth =
    let kids = if depth > 2 then 0 else G.int_bound 2 st in
    let children = List.init kids (fun _ -> build (depth + 1)) in
    let attrs = H.Gen.attrs_gen st in
    match H.Gen.text_opt st with
    | Some t -> Tree.elem b ~text:t ~attrs (G.oneofa tags st) children
    | None -> Tree.elem b ~attrs (G.oneofa tags st) children
  in
  let sub = build 0 in
  Tree.iter (fun n -> next := max !next (n.Tree.id + 1)) sub;
  sub

let gen_op ft next st =
  let ids = all_ids ft in
  let id = G.oneofa ids st in
  match G.int_bound 2 st with
  | 0 ->
      Update.Set_text
        (id, G.oneofa [| ""; "x"; "10"; "a longer text, 2.5"; "7" |] st)
  | 1 -> Update.Insert (id, gen_subtree next st)
  | _ -> Update.Delete id

(* Every fragment's image (the patched one the store holds) must equal,
   byte for byte, the image [of_tree] builds from the updated tree over
   the same intern table, with the derived columns and the id index
   agreeing slot by slot.  [site] holds a copy decoded over an intern
   table of its own, patched with each recorded edit as a site server
   patches it (an inserted subtree crossing the wire as its image): it
   must hold the same content. *)
let images_agree ft site =
  let ok = ref true in
  for fid = 0 to Fragment.n_fragments ft - 1 do
    let fl = Fragment.flat ft fid in
    let ref_ =
      Flat.of_tree ~intern:(Fragment.intern ft) (Fragment.fragment ft fid).Fragment.root
    in
    if Flat.encode fl <> Flat.encode ref_ then ok := false
    else begin
      let c = Flat.columns fl and r = Flat.columns ref_ in
      for i = 0 to Flat.length fl - 1 do
        if
          c.Flat.spine.(i) <> r.Flat.spine.(i)
          || c.Flat.mask.(i) <> r.Flat.mask.(i)
          || Flat.num fl i <> Flat.num ref_ i
          || Flat.find_index fl (Flat.node_id fl i) <> Some i
        then ok := false
      done
    end;
    let sfl = site.(fid) in
    let expect = Flat.decode ~intern:(Flat.intern sfl) (Flat.encode fl) in
    if Option.map Flat.encode expect <> Some (Flat.encode sfl) then ok := false
  done;
  !ok

let prop_edit_equals_rebuild =
  QCheck.Test.make ~name:"edited image = of_tree of the updated tree"
    ~count:(qcheck_count 200)
    (QCheck.make ~print:H.Gen.print_scenario H.Gen.scenario)
    (fun sc ->
      let doc = sc.H.Gen.s_doc in
      let st = Random.State.make [| Tree.size doc.Tree.root |] in
      let ft =
        Fragment.fragmentize doc ~cuts:(H.Gen.cuts ~p:0.25 doc st)
      in
      let site_intern = Pax_xml.Intern.create () in
      let site =
        Array.init (Fragment.n_fragments ft) (fun fid ->
            Option.get
              (Flat.decode ~intern:site_intern
                 (Flat.encode (Fragment.flat ft fid))))
      in
      let next = ref (2 * (doc.Tree.node_count + Fragment.n_fragments ft) + 100) in
      let over_wire = function
        | Flat.Insert (id, sub) ->
            Flat.Insert (id, Option.get (Flat.decode (Flat.encode sub)))
        | e -> e
      in
      List.for_all
        (fun _ ->
          let op = gen_op ft next st in
          (match Update.apply ft op with
          | Ok fid -> (
              match Fragment.last_edit ft fid with
              | Some (_, e) -> (
                  match Flat.edit site.(fid) (over_wire e) with
                  | Some fl -> site.(fid) <- fl
                  | None -> QCheck.Test.fail_report "the site refused an edit")
              | None -> QCheck.Test.fail_report "no edit recorded")
          | Error _ -> ());
          images_agree ft site
          || QCheck.Test.fail_reportf "images disagree after %s"
               (match op with
               | Update.Set_text (id, _) -> Printf.sprintf "Set_text %d" id
               | Update.Insert (id, _) -> Printf.sprintf "Insert under %d" id
               | Update.Delete id -> Printf.sprintf "Delete %d" id))
        (List.init (1 + Random.State.int st 8) Fun.id))

(* Each accepted update records its edit against the version it
   patched, and the store's version moves to the new generation; a
   refused one changes neither. *)
let test_versions () =
  let c, ft = setup () in
  let fid =
    match Update.locate ft c.H.Data.etrade_name with
    | Some (fid, _) -> fid
    | None -> Alcotest.fail "node not found"
  in
  Alcotest.(check (pair int int)) "built at construction" (0, 0)
    (Fragment.version ft fid);
  Alcotest.(check bool) "no edit yet" true (Fragment.last_edit ft fid = None);
  let set text =
    match Update.apply ft (Update.Set_text (c.H.Data.etrade_name, text)) with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (Update.error_to_string e)
  in
  set "Etrade";
  let v1 = Fragment.version ft fid in
  Alcotest.(check int) "version at the new generation" 1 (fst v1);
  Alcotest.(check bool) "a writer of its own" true (snd v1 <> 0);
  (match Fragment.last_edit ft fid with
  | Some (base, Flat.Set_text (id, Some "Etrade")) ->
      Alcotest.(check (pair int int)) "based on the built image" (0, 0) base;
      Alcotest.(check int) "names the node" c.H.Data.etrade_name id
  | _ -> Alcotest.fail "the Set_text must be recorded");
  set "E-trade";
  (match Fragment.last_edit ft fid with
  | Some (base, _) ->
      Alcotest.(check (pair int int)) "based on the first edit" v1 base
  | None -> Alcotest.fail "edit recorded");
  let v2 = Fragment.version ft fid in
  (match Update.apply ft (Update.Delete c.H.Data.etrade_name) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Update.error_to_string e));
  (match Update.apply ft (Update.Delete c.H.Data.etrade_name) with
  | Error (Update.Node_not_found _) -> ()
  | _ -> Alcotest.fail "a second delete must be refused");
  Alcotest.(check int) "a refused update keeps the version" 3
    (fst (Fragment.version ft fid));
  match Fragment.last_edit ft fid with
  | Some (base, Flat.Delete _) ->
      Alcotest.(check (pair int int)) "delete based on the second edit" v2 base
  | _ -> Alcotest.fail "the delete must be recorded"

let () =
  Alcotest.run "update"
    [
      ( "operations",
        [
          Alcotest.test_case "set_text" `Quick test_set_text;
          Alcotest.test_case "insert" `Quick test_insert;
          Alcotest.test_case "insert id clash" `Quick test_insert_duplicate_ids_rejected;
          Alcotest.test_case "delete" `Quick test_delete;
          Alcotest.test_case "delete fragment root" `Quick
            test_delete_fragment_root_rejected;
          Alcotest.test_case "delete spanning subtree" `Quick
            test_delete_spanning_rejected;
          Alcotest.test_case "missing node" `Quick test_missing_node;
          Alcotest.test_case "locate" `Quick test_locate;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "queries after updates" `Quick
            test_queries_after_updates;
          Alcotest.test_case "new tag after insert" `Quick
            test_new_tag_after_insert;
        ] );
      ( "image edits",
        [
          Alcotest.test_case "versions and last edits" `Quick test_versions;
          QCheck_alcotest.to_alcotest prop_edit_equals_rebuild;
        ] );
    ]
