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
    ]
