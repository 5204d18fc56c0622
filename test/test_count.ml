(* COUNT aggregate: correct counts, ≤2 visits, zero answer bytes even
   for huge answers. *)

module Tree = Pax_xml.Tree
module Query = Pax_xpath.Query
module Semantics = Pax_xpath.Semantics
module Cluster = Pax_dist.Cluster
module H = Test_helpers

let c = H.Data.clientele ()

let count ?annotations qs =
  let q = Query.of_string qs in
  let cl = H.Data.clientele_cluster c in
  let n, report = Pax_core.Count.run ?annotations cl q in
  let expected = List.length (Semantics.eval_ids q.Query.ast c.doc.Tree.root) in
  Alcotest.(check int) (qs ^ " count") expected n;
  report

let test_counts () =
  List.iter
    (fun qs -> ignore (count qs))
    [
      "client";
      "//stock";
      "//broker[//stock/code/text() = \"GOOG\"]/name";
      "client[country/text() = \"US\"]//stock/qt";
      "//nothing";
      "//stock[buy >= 370]";
    ]

let test_no_answer_bytes () =
  let report = count "//stock/code" in
  Alcotest.(check int) "counts, not elements" 0 report.Cluster.answer_bytes;
  Alcotest.(check int) "no tree data" 0 report.Cluster.tree_bytes

let test_visits () =
  let report = count "client[country/text() = \"US\"]/broker/name" in
  Alcotest.(check bool) "two visits max" true (report.Cluster.max_visits <= 2)

let test_annotations () =
  let report = count ~annotations:true "client/name" in
  Alcotest.(check int) "single visit with XA on a local query" 1
    report.Cluster.max_visits

(* Communication independent of the answer size: count a query with a
   huge answer and compare to a tiny one. *)
let test_traffic_independent_of_answer () =
  let r_all = count "//*" in
  let r_one = count "client/name" in
  Alcotest.(check bool) "control bytes comparable despite 30x answers" true
    (r_all.Cluster.control_bytes < 3 * r_one.Cluster.control_bytes
    || r_all.Cluster.control_bytes < 2000)

(* Count runs PaX2's stages: the same visits and the same work,
   coordinator unification included. *)
let test_charges_as_pax2 () =
  List.iter
    (fun annotations ->
      List.iter
        (fun qs ->
          let q = Query.of_string qs in
          let cl = H.Data.clientele_cluster c in
          let pax2 =
            (Pax_core.Pax2.run ~annotations cl q).Pax_core.Run_result.report
          in
          let _, count = Pax_core.Count.run ~annotations cl q in
          let name what =
            Printf.sprintf "%s (annotations=%b): %s" qs annotations what
          in
          Alcotest.(check int) (name "total ops") pax2.Cluster.total_ops
            count.Cluster.total_ops;
          Alcotest.(check (array int)) (name "visits") pax2.Cluster.visits
            count.Cluster.visits)
        [
          "client";
          "//stock";
          "//broker[//stock/code/text() = \"GOOG\"]/name";
          "client[country/text() = \"US\"]//stock/qt";
          "//nothing";
          "//stock[buy >= 370]";
          "//stock/code";
          "client[country/text() = \"US\"]/broker/name";
          "client/name";
          "//*";
        ])
    [ false; true ]

let prop_random =
  QCheck.Test.make ~name:"count = |semantics| on random scenarios" ~count:300
    H.Gen.arbitrary_scenario (fun s ->
      let q = Query.of_ast s.H.Gen.s_query in
      let expected =
        List.length (Semantics.eval_ids s.H.Gen.s_query s.H.Gen.s_doc.Tree.root)
      in
      let n, _ = Pax_core.Count.run s.H.Gen.s_cluster q in
      n = expected)

let () =
  Alcotest.run "count"
    [
      ( "count",
        [
          Alcotest.test_case "exact counts" `Quick test_counts;
          Alcotest.test_case "no answer bytes" `Quick test_no_answer_bytes;
          Alcotest.test_case "visits" `Quick test_visits;
          Alcotest.test_case "annotations" `Quick test_annotations;
          Alcotest.test_case "traffic vs answer size" `Quick
            test_traffic_independent_of_answer;
          Alcotest.test_case "charges what PaX2 charges" `Quick
            test_charges_as_pax2;
          QCheck_alcotest.to_alcotest prop_random;
        ] );
    ]
