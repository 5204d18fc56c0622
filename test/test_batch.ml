(* Batched evaluation: per-query answers match solo runs, and the whole
   batch still fits in two visits per site. *)

module Tree = Pax_xml.Tree
module Query = Pax_xpath.Query
module Semantics = Pax_xpath.Semantics
module Cluster = Pax_dist.Cluster
module H = Test_helpers

let c = H.Data.clientele ()

let queries =
  [
    "client/name";
    "//broker[//stock/code/text() = \"GOOG\"]/name";
    "client[country/text() = \"US\"]//stock/qt";
    "//market[name/text() = \"NASDAQ\"]";
    "//nothing";
  ]

let run_batch ?annotations () =
  let qs = List.map Query.of_string queries in
  let cl = H.Data.clientele_cluster c in
  Pax_core.Batch.run ?annotations cl qs

let test_each_query_correct () =
  let batch = run_batch () in
  List.iter
    (fun (q, answers) ->
      let expected = Semantics.eval_ids q.Query.ast c.doc.Tree.root in
      Alcotest.(check (list int)) (q.Query.source ^ " in batch") expected
        (List.map (fun (n : Tree.node) -> n.Tree.id) answers))
    batch.Pax_core.Batch.results

let test_two_visits_for_whole_batch () =
  let batch = run_batch () in
  Alcotest.(check bool) "five queries, still <= 2 visits" true
    (batch.Pax_core.Batch.report.Cluster.max_visits <= 2)

let test_annotations_variant () =
  let batch = run_batch ~annotations:true () in
  List.iter
    (fun (q, answers) ->
      let expected = Semantics.eval_ids q.Query.ast c.doc.Tree.root in
      Alcotest.(check (list int)) (q.Query.source ^ " in XA batch") expected
        (List.map (fun (n : Tree.node) -> n.Tree.id) answers))
    batch.Pax_core.Batch.results;
  Alcotest.(check bool) "XA batch <= 2 visits" true
    (batch.Pax_core.Batch.report.Cluster.max_visits <= 2)

let test_batch_beats_sequential_visits () =
  let qs = List.map Query.of_string queries in
  let cl = H.Data.clientele_cluster c in
  let batch = Pax_core.Batch.run cl qs in
  let solo_visits =
    List.fold_left
      (fun acc q ->
        let r = Pax_core.Pax2.run cl q in
        acc + r.Pax_core.Run_result.report.Cluster.max_visits)
      0 qs
  in
  Alcotest.(check bool) "batch visits strictly below the sum of solo runs" true
    (batch.Pax_core.Batch.report.Cluster.max_visits < solo_visits)

let test_empty_batch () =
  let cl = H.Data.clientele_cluster c in
  let batch = Pax_core.Batch.run cl [] in
  Alcotest.(check int) "no results" 0 (List.length batch.Pax_core.Batch.results)

(* A batch of one is a PaX2 run: the same visits, traffic and work,
   coordinator unification and sub-fragment resolutions included. *)
let test_singleton_is_pax2 () =
  List.iter
    (fun annotations ->
      List.iter
        (fun qs ->
          let q = Query.of_string qs in
          let cl = H.Data.clientele_cluster c in
          let pax2 =
            (Pax_core.Pax2.run ~annotations cl q).Pax_core.Run_result.report
          in
          let batch =
            (Pax_core.Batch.run ~annotations cl [ q ]).Pax_core.Batch.report
          in
          let name what =
            Printf.sprintf "%s (annotations=%b): %s" qs annotations what
          in
          Alcotest.(check int) (name "control bytes") pax2.Cluster.control_bytes
            batch.Cluster.control_bytes;
          Alcotest.(check int) (name "answer bytes") pax2.Cluster.answer_bytes
            batch.Cluster.answer_bytes;
          Alcotest.(check int) (name "total ops") pax2.Cluster.total_ops
            batch.Cluster.total_ops;
          Alcotest.(check (array int)) (name "visits") pax2.Cluster.visits
            batch.Cluster.visits)
        queries)
    [ false; true ]

let prop_random =
  QCheck.Test.make ~name:"random batches agree with the oracle" ~count:150
    QCheck.(
      make
        (fun st ->
           let s = H.Gen.scenario st in
           let extra = H.Gen.query st in
           (s, extra)))
    (fun (s, extra) ->
      let q1 = Query.of_ast s.H.Gen.s_query in
      let q2 = Query.of_ast extra in
      let batch = Pax_core.Batch.run s.H.Gen.s_cluster [ q1; q2 ] in
      List.for_all2
        (fun ast (_, answers) ->
          Semantics.eval_ids ast s.H.Gen.s_doc.Tree.root
          = List.map (fun (n : Tree.node) -> n.Tree.id) answers)
        [ s.H.Gen.s_query; extra ]
        batch.Pax_core.Batch.results)

let () =
  Alcotest.run "batch"
    [
      ( "batch",
        [
          Alcotest.test_case "answers per query" `Quick test_each_query_correct;
          Alcotest.test_case "two visits total" `Quick
            test_two_visits_for_whole_batch;
          Alcotest.test_case "with annotations" `Quick test_annotations_variant;
          Alcotest.test_case "beats sequential" `Quick
            test_batch_beats_sequential_visits;
          Alcotest.test_case "empty batch" `Quick test_empty_batch;
          Alcotest.test_case "batch of one = PaX2" `Quick
            test_singleton_is_pax2;
          QCheck_alcotest.to_alcotest prop_random;
        ] );
    ]
