(* PaX2: the combined traversal, local placeholder unification, and the
   two-visit guarantee. *)

module Tree = Pax_xml.Tree
module Query = Pax_xpath.Query
module Semantics = Pax_xpath.Semantics
module Formula = Pax_bool.Formula
module Fragment = Pax_frag.Fragment
module Cluster = Pax_dist.Cluster
module Run_result = Pax_core.Run_result
module Flat_pass = Pax_core.Flat_pass
module H = Test_helpers

let c = H.Data.clientele ()

let run ?annotations query_text =
  let q = Query.of_string query_text in
  let cl = H.Data.clientele_cluster c in
  let r = Pax_core.Pax2.run ?annotations cl q in
  let expected = Semantics.eval_ids q.Query.ast c.doc.Tree.root in
  Alcotest.(check (list int)) (query_text ^ " correct") expected
    r.Run_result.answer_ids;
  r

let test_two_visits_with_qualifiers () =
  let r = run "client[country/text() = \"US\"]/broker[market/name/text() = \"NASDAQ\"]/name" in
  Alcotest.(check bool) "max 2 visits" true
    (r.Run_result.report.Cluster.max_visits <= 2);
  Alcotest.(check (list string)) "two rounds" [ "stage1"; "stage2" ]
    r.Run_result.report.Cluster.rounds

let test_single_visit_with_annotations_no_quals () =
  let r = run ~annotations:true "client/name" in
  Alcotest.(check int) "single visit" 1 r.Run_result.report.Cluster.max_visits

let test_combined_on_whole_tree () =
  (* On an unfragmented tree the combined pass resolves everything
     locally: no candidates, answers certain, matching the oracle. *)
  let q = Query.of_string "client[country/text() = \"US\"]/broker/name" in
  let compiled = q.Query.compiled in
  let ft = Fragment.trivial c.doc in
  let outcome =
    Flat_pass.combined_run
      (Flat_pass.make_plan compiled (Fragment.intern ft))
      (Fragment.flat ft 0)
      ~init:(Flat_pass.blank_init compiled)
      ~is_root:true
  in
  Alcotest.(check int) "no candidates on a complete tree" 0
    (List.length outcome.Flat_pass.candidates);
  Alcotest.(check (list int)) "answers match the oracle"
    (Semantics.eval_ids q.Query.ast c.doc.Tree.root)
    (List.sort compare
       (List.map (Pax_xml.Flat.node_id (Fragment.flat ft 0))
          outcome.Flat_pass.answers))

let test_combined_placeholders_resolve_locally () =
  (* Every residual the combined pass leaves must only mention boundary
     variables — Qual_at placeholders are gone. *)
  let ft = H.Data.clientele_ftree c in
  let q = Query.of_string "client[country/text() = \"US\"]//stock[qt > 40]/code" in
  let compiled = q.Query.compiled in
  let outcome =
    Flat_pass.combined_run
      (Flat_pass.make_plan compiled (Fragment.intern ft))
      (Fragment.flat ft 0)
      ~init:(Flat_pass.blank_init compiled)
      ~is_root:true
  in
  let no_placeholder f =
    List.for_all
      (function Pax_bool.Var.Qual_at _ -> false | _ -> true)
      (Formula.vars f)
  in
  List.iter
    (fun (_, f) ->
      Alcotest.(check bool) "candidate free of placeholders" true
        (no_placeholder f))
    outcome.Flat_pass.candidates;
  List.iter
    (fun (_, vec) ->
      Array.iter
        (fun f ->
          Alcotest.(check bool) "context free of placeholders" true
            (no_placeholder f))
        vec)
    outcome.Flat_pass.contexts;
  Array.iter
    (fun f ->
      Alcotest.(check bool) "root vector free of placeholders" true
        (no_placeholder f))
    outcome.Flat_pass.root_qvec

let test_agrees_with_pax3 () =
  let queries =
    [
      "//broker[//stock/code/text() = \"GOOG\"]/name";
      "client[country/text() = \"US\"]/broker/name";
      "//stock[buy >= 370][qt <= 75]/code";
      "client[not(broker)]";
      "//market[name/text() = \"NASDAQ\"]/stock/code";
    ]
  in
  List.iter
    (fun s ->
      let q = Query.of_string s in
      let cl = H.Data.clientele_cluster c in
      let r2 = Pax_core.Pax2.run cl q in
      let r3 = Pax_core.Pax3.run cl q in
      Alcotest.(check (list int)) (s ^ ": PaX2 = PaX3")
        r3.Run_result.answer_ids r2.Run_result.answer_ids)
    queries

let test_fewer_rounds_than_pax3 () =
  let q =
    Query.of_string
      "client[country/text() = \"US\"]/broker[market/name/text() = \"NASDAQ\"]/name"
  in
  let cl = H.Data.clientele_cluster c in
  let r2 = Pax_core.Pax2.run cl q in
  let r3 = Pax_core.Pax3.run cl q in
  Alcotest.(check bool) "PaX2 uses fewer visits than PaX3" true
    (r2.Run_result.report.Cluster.max_visits
    < r3.Run_result.report.Cluster.max_visits)

let test_deep_chain_fragmentation () =
  (* A pathological fragment chain: every broker and market its own
     fragment; answers still exact. *)
  let cuts =
    Fragment.cuts_by_tag c.doc ~tag:"broker"
    @ Fragment.cuts_by_tag c.doc ~tag:"market"
    @ Fragment.cuts_by_tag c.doc ~tag:"stock"
  in
  let ft = Fragment.fragmentize c.doc ~cuts in
  let cl = Cluster.one_site_per_fragment ft in
  let q = Query.of_string "//broker[market/stock/qt > 40]/name" in
  let r = Pax_core.Pax2.run cl q in
  Alcotest.(check (list int)) "deep chain correct"
    (Semantics.eval_ids q.Query.ast c.doc.Tree.root)
    r.Run_result.answer_ids;
  Alcotest.(check bool) "still 2 visits max" true
    (r.Run_result.report.Cluster.max_visits <= 2)

let () =
  Alcotest.run "pax2"
    [
      ( "visits",
        [
          Alcotest.test_case "two visits with qualifiers" `Quick
            test_two_visits_with_qualifiers;
          Alcotest.test_case "one visit with annotations" `Quick
            test_single_visit_with_annotations_no_quals;
          Alcotest.test_case "fewer visits than PaX3" `Quick
            test_fewer_rounds_than_pax3;
        ] );
      ( "combined-pass",
        [
          Alcotest.test_case "whole tree" `Quick test_combined_on_whole_tree;
          Alcotest.test_case "placeholders resolve locally" `Quick
            test_combined_placeholders_resolve_locally;
        ] );
      ( "agreement",
        [
          Alcotest.test_case "PaX2 = PaX3" `Quick test_agrees_with_pax3;
          Alcotest.test_case "deep fragment chains" `Quick
            test_deep_chain_fragmentation;
        ] );
    ]
