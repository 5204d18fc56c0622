(* The vector-based centralized evaluator against the set-based oracle,
   plus the ops accounting. *)

module Tree = Pax_xml.Tree
module Query = Pax_xpath.Query
module Semantics = Pax_xpath.Semantics
module H = Test_helpers

let mini = H.Data.mini_sites ()

let agree query_text =
  let q = Query.of_string query_text in
  Alcotest.(check (list int))
    (query_text ^ " agrees with the oracle")
    (Semantics.eval_ids q.Query.ast mini.Tree.root)
    (Pax_core.Centralized.eval_ids q mini.Tree.root)

let test_xmark_queries () =
  List.iter agree
    [
      "/sites/site/people/person";
      "/sites/site/open_auctions//annotation";
      "/sites/site/people/person[profile/age > 20 and address/country = \"US\"]/creditcard";
      "/sites//people/person[profile/age > 20 and address/country = \"US\"]/creditcard";
      "//person[address/country = \"FR\"]/name";
      "//annotation[happiness >= 5]";
      "//person[not(creditcard)]/name";
      "//*[price]";
      "/sites/site/*";
      "//person[profile/age > 20 or address/country = \"FR\"]";
    ]

let test_counts () =
  let q = Query.of_string "//person[address/country = \"US\"]/creditcard" in
  let r = Pax_core.Centralized.run q mini.Tree.root in
  Alcotest.(check int) "two US persons with creditcards" 2
    (List.length r.Pax_core.Centralized.answers);
  Alcotest.(check bool) "qualifier ops counted" true
    (r.Pax_core.Centralized.qual_ops > 0);
  Alcotest.(check bool) "selection ops counted" true
    (r.Pax_core.Centralized.sel_ops > 0)

let test_no_qualifier_skips_pass () =
  let q = Query.of_string "/sites/site/people/person" in
  let r = Pax_core.Centralized.run q mini.Tree.root in
  Alcotest.(check int) "no qualifier pass" 0 r.Pax_core.Centralized.qual_ops;
  Alcotest.(check int) "four persons" 4 (List.length r.Pax_core.Centralized.answers)

let test_rejects_virtual_nodes () =
  let c = H.Data.clientele () in
  let ft = H.Data.clientele_ftree c in
  let frag_root = (Pax_frag.Fragment.fragment ft 0).Pax_frag.Fragment.root in
  let q = Query.of_string "//name" in
  match Pax_core.Centralized.run q frag_root with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "should reject trees with virtual nodes"

(* Total-computation claim: ops are O(|Q| |T|). *)
let test_ops_linear () =
  let q = Query.of_string "//person[profile/age > 20]/name" in
  let r = Pax_core.Centralized.run q mini.Tree.root in
  let budget =
    Query.size q * mini.Tree.node_count * 8 (* generous constant *)
  in
  Alcotest.(check bool) "ops within O(|Q| |T|)" true
    (r.Pax_core.Centralized.qual_ops + r.Pax_core.Centralized.sel_ops <= budget)

let count n =
  match Sys.getenv_opt "PAX_QCHECK_COUNT" with
  | Some s -> (try int_of_string s with _ -> n)
  | None -> n

(* Centralized runs the flat kernels on one image of the document; the
   pointer reference runs the two passes on the tree.  Same answers in
   the same order, same ops. *)
let prop_matches_pointer =
  QCheck.Test.make ~name:"centralized = pointer reference" ~count:(count 300)
    H.Gen.arbitrary_scenario (fun (s : H.Gen.scenario) ->
      let q = Query.of_ast s.H.Gen.s_query in
      let root = s.H.Gen.s_doc.Tree.root in
      let got = Pax_core.Centralized.run q root in
      let want = H.Pointer.run q root in
      let ids = List.map (fun (n : Tree.node) -> n.Tree.id) in
      ids got.Pax_core.Centralized.answers = ids want.Pax_core.Centralized.answers
      && got.Pax_core.Centralized.answer_ids = want.Pax_core.Centralized.answer_ids
      && got.Pax_core.Centralized.qual_ops = want.Pax_core.Centralized.qual_ops
      && got.Pax_core.Centralized.sel_ops = want.Pax_core.Centralized.sel_ops)

let () =
  Alcotest.run "centralized"
    [
      ( "evaluation",
        [
          Alcotest.test_case "xmark-shaped queries" `Quick test_xmark_queries;
          Alcotest.test_case "answer counts" `Quick test_counts;
          Alcotest.test_case "no-qualifier fast path" `Quick test_no_qualifier_skips_pass;
          Alcotest.test_case "virtual nodes rejected" `Quick test_rejects_virtual_nodes;
          Alcotest.test_case "ops linear" `Quick test_ops_linear;
          QCheck_alcotest.to_alcotest prop_matches_pointer;
        ] );
    ]
