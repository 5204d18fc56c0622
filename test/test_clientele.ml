(* End-to-end checks on the paper's running example: the clientele tree
   of Fig. 1, fragmented as in Fig. 2, placed on four sites. *)

module Tree = Pax_xml.Tree
module Query = Pax_xpath.Query
module Semantics = Pax_xpath.Semantics
module Fragment = Pax_frag.Fragment
module Cluster = Pax_dist.Cluster
module Run_result = Pax_core.Run_result

let c = Test_helpers.Data.clientele ()
let ids = Alcotest.(check (list int))

let run_all_algorithms query_text =
  let q = Query.of_string query_text in
  let oracle = Semantics.eval_ids q.Query.ast c.doc.Tree.root in
  let cl = Test_helpers.Data.clientele_cluster c in
  let check_algo name result =
    ids
      (Printf.sprintf "%s agrees with the oracle on %s" name query_text)
      oracle result.Run_result.answer_ids
  in
  check_algo "PaX3-NA" (Pax_core.Pax3.run cl q);
  check_algo "PaX3-XA" (Pax_core.Pax3.run ~annotations:true cl q);
  check_algo "PaX2-NA" (Pax_core.Pax2.run cl q);
  check_algo "PaX2-XA" (Pax_core.Pax2.run ~annotations:true cl q);
  check_algo "Naive" (Pax_core.Naive.run cl q);
  ids
    (Printf.sprintf "centralized agrees on %s" query_text)
    oracle
    (Pax_core.Centralized.eval_ids q c.doc.Tree.root);
  ids
    (Printf.sprintf "pointer reference agrees on %s" query_text)
    oracle
    (Test_helpers.Pointer.eval_ids q c.doc.Tree.root);
  oracle

(* Q' of the introduction: brokers through which GOOG is traded. *)
let test_intro_query () =
  let answer = run_all_algorithms "//broker[//stock/code/text() = \"GOOG\"]/name" in
  ids "all three brokers trade GOOG"
    (List.sort compare [ c.etrade_name; c.bache_name; c.cibc_name ])
    answer

(* Q1 of §2.2: GOOG but not YHOO. *)
let test_q1 () =
  let answer =
    run_all_algorithms
      "//broker[//stock/code/text() = \"GOOG\" and not(//stock/code/text() = \"YHOO\")]/name"
  in
  ids "E*trade is excluded by the negation"
    (List.sort compare [ c.bache_name; c.cibc_name ])
    answer

(* The query of Example 2.1: brokers of US clients trading on NASDAQ. *)
let test_example_2_1 () =
  let answer =
    run_all_algorithms
      "client[country/text() = \"US\"]/broker[market/name/text() = \"NASDAQ\"]/name"
  in
  ids "E*trade and Bache serve US clients on NASDAQ"
    (List.sort compare [ c.etrade_name; c.bache_name ])
    answer

(* Example 5.1: client/name with annotations prunes F1, F2, F3. *)
let test_example_5_1 () =
  ignore (run_all_algorithms "client/name")

let test_more_queries () =
  List.iter
    (fun s -> ignore (run_all_algorithms s))
    [
      "client";
      "client/broker";
      "//market/name";
      "//stock[buy > 100]/code";
      "client[country/text() = \"Canada\"]//stock/qt";
      "//stock[code/text() = \"GOOG\" and buy >= 374]";
      "client[not(country/text() = \"US\")]/name";
      "*/*/name";
      "//name";
      ".//broker[market]";
      "client[broker/market/stock]/name";
      "//stock[qt < 50 or qt >= 90]/code";
    ]

(* The Boolean query of the introduction via ParBoX. *)
let test_parbox_intro () =
  let cl = Test_helpers.Data.clientele_cluster c in
  let answer, report = Pax_core.Parbox.eval_string cl "//stock/code/text() = \"GOOG\"" in
  Alcotest.(check bool) "someone trades GOOG" true answer;
  Alcotest.(check int) "a single visit per site" 1 report.Cluster.max_visits;
  let answer, _ = Pax_core.Parbox.eval_string cl "//stock/code/text() = \"MSFT\"" in
  Alcotest.(check bool) "nobody trades MSFT" false answer

(* Visit-count guarantees on the running example. *)
let test_visits () =
  let q = Query.of_string "client[country/text() = \"US\"]/broker/name" in
  let cl = Test_helpers.Data.clientele_cluster c in
  let r3 = Pax_core.Pax3.run cl q in
  Alcotest.(check bool) "PaX3 visits each site at most 3 times" true
    (r3.Run_result.report.Cluster.max_visits <= 3);
  let r2 = Pax_core.Pax2.run cl q in
  Alcotest.(check bool) "PaX2 visits each site at most 2 times" true
    (r2.Run_result.report.Cluster.max_visits <= 2)

let test_fragment_tree_shape () =
  let ft = Test_helpers.Data.clientele_ftree c in
  Alcotest.(check int) "five fragments" 5 (Fragment.n_fragments ft);
  (match Fragment.check ft with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "reassembly restores the document" true
    (Tree.equal_structure (Fragment.reassemble ft) c.doc.Tree.root)

let () =
  Alcotest.run "clientele"
    [
      ( "paper-example",
        [
          Alcotest.test_case "intro query Q'" `Quick test_intro_query;
          Alcotest.test_case "query Q1 (§2.2)" `Quick test_q1;
          Alcotest.test_case "Example 2.1" `Quick test_example_2_1;
          Alcotest.test_case "Example 5.1" `Quick test_example_5_1;
          Alcotest.test_case "assorted queries" `Quick test_more_queries;
          Alcotest.test_case "ParBoX Boolean query" `Quick test_parbox_intro;
          Alcotest.test_case "visit guarantees" `Quick test_visits;
          Alcotest.test_case "fragment tree" `Quick test_fragment_tree_shape;
        ] );
    ]
