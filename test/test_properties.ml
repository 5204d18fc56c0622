(* The central correctness property: on random documents, random
   queries, random fragmentations and random placements, every
   evaluation strategy computes exactly the answer of the naive
   set-based semantics — and the performance guarantees (visit counts,
   no tree data besides answers) hold. *)

module Tree = Pax_xml.Tree
module Query = Pax_xpath.Query
module Semantics = Pax_xpath.Semantics
module Cluster = Pax_dist.Cluster
module H = Test_helpers
module Run_result = Pax_core.Run_result

let count n =
  match Sys.getenv_opt "PAX_QCHECK_COUNT" with
  | Some s -> (try int_of_string s with _ -> n)
  | None -> n

let scenario_test ?(arb = H.Gen.arbitrary_scenario) name ~count:n f =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:(count n) arb f)

let oracle (s : H.Gen.scenario) =
  Semantics.eval_ids s.H.Gen.s_query s.H.Gen.s_doc.Tree.root

let agrees ?arb name run =
  scenario_test ?arb name ~count:400 (fun s ->
      let q = Query.of_ast s.H.Gen.s_query in
      let expected = oracle s in
      let result : Run_result.t = run s.H.Gen.s_cluster q in
      if expected <> result.Run_result.answer_ids then
        QCheck.Test.fail_reportf "expected [%s], got [%s]"
          (String.concat ";" (List.map string_of_int expected))
          (String.concat ";" (List.map string_of_int result.Run_result.answer_ids))
      else true)

let centralized_agrees =
  scenario_test "centralized = semantics" ~count:600 (fun s ->
      let q = Query.of_ast s.H.Gen.s_query in
      oracle s = Pax_core.Centralized.eval_ids q s.H.Gen.s_doc.Tree.root)

let visit_bound name bound run =
  scenario_test name ~count:300 (fun s ->
      let q = Query.of_ast s.H.Gen.s_query in
      let result : Run_result.t = run s.H.Gen.s_cluster q in
      result.Run_result.report.Cluster.max_visits <= bound)

(* The O(|Q| |FT| + |ans|) communication bound, with a generous
   per-unit constant: every control message is a vector of at most
   O(|Q|) small entries per fragment, per round. *)
let communication_bound name run =
  scenario_test name ~count:200 (fun s ->
      let q = Query.of_ast s.H.Gen.s_query in
      let result : Run_result.t = run s.H.Gen.s_cluster q in
      let ft = Cluster.ftree s.H.Gen.s_cluster in
      let budget =
        200 * Query.size q * Pax_frag.Fragment.n_fragments ft
      in
      result.Run_result.report.Cluster.control_bytes <= budget)

let no_tree_data name run =
  scenario_test name ~count:200 (fun s ->
      let q = Query.of_ast s.H.Gen.s_query in
      let result : Run_result.t = run s.H.Gen.s_cluster q in
      result.Run_result.report.Cluster.tree_bytes = 0)

let deep = H.Gen.arbitrary_deep_scenario

let () =
  Alcotest.run "properties"
    [
      ( "equivalence",
        [
          centralized_agrees;
          agrees "PaX3-NA = semantics" (fun cl q -> Pax_core.Pax3.run cl q);
          agrees "PaX3-XA = semantics" (fun cl q ->
              Pax_core.Pax3.run ~annotations:true cl q);
          agrees "PaX2-NA = semantics" (fun cl q -> Pax_core.Pax2.run cl q);
          agrees "PaX2-XA = semantics" (fun cl q ->
              Pax_core.Pax2.run ~annotations:true cl q);
          agrees "Naive = semantics" (fun cl q -> Pax_core.Naive.run cl q);
        ] );
      (* The scenarios on which PaX2's combined pass skips most: more
         than 63 tags, deep chains, wide nodes of mixed tags. *)
      ( "skipping",
        [
          agrees ~arb:deep "PaX3-NA = semantics, deep" (fun cl q ->
              Pax_core.Pax3.run cl q);
          agrees ~arb:deep "PaX3-XA = semantics, deep" (fun cl q ->
              Pax_core.Pax3.run ~annotations:true cl q);
          agrees ~arb:deep "PaX2-NA = semantics, deep" (fun cl q ->
              Pax_core.Pax2.run cl q);
          agrees ~arb:deep "PaX2-XA = semantics, deep" (fun cl q ->
              Pax_core.Pax2.run ~annotations:true cl q);
        ] );
      ( "guarantees",
        [
          visit_bound "PaX3 visits <= 3" 3 (fun cl q -> Pax_core.Pax3.run cl q);
          visit_bound "PaX3-XA visits <= 3" 3 (fun cl q ->
              Pax_core.Pax3.run ~annotations:true cl q);
          visit_bound "PaX2 visits <= 2" 2 (fun cl q -> Pax_core.Pax2.run cl q);
          visit_bound "PaX2-XA visits <= 2" 2 (fun cl q ->
              Pax_core.Pax2.run ~annotations:true cl q);
          no_tree_data "PaX3 ships no tree data" (fun cl q ->
              Pax_core.Pax3.run cl q);
          no_tree_data "PaX2 ships no tree data" (fun cl q ->
              Pax_core.Pax2.run cl q);
          communication_bound "PaX3 control bytes are O(|Q||FT|)"
            (fun cl q -> Pax_core.Pax3.run cl q);
          communication_bound "PaX2 control bytes are O(|Q||FT|)"
            (fun cl q -> Pax_core.Pax2.run cl q);
        ] );
    ]
