(* The SAX scanner and the single-pass streaming evaluator, checked
   against the tree-based engines. *)

module Tree = Pax_xml.Tree
module Sax = Pax_xml.Sax
module Printer = Pax_xml.Printer
module Query = Pax_xpath.Query
module Semantics = Pax_xpath.Semantics
module Stream_eval = Pax_core.Stream_eval
module H = Test_helpers

(* Random-case counts scale with PAX_QCHECK_COUNT (the @slow suites). *)
let qcheck_count n =
  match Sys.getenv_opt "PAX_QCHECK_COUNT" with
  | Some s -> ( try int_of_string s with _ -> n)
  | None -> n

(* ---------------- SAX scanner ------------------------------------- *)

let test_events () =
  let evs = Sax.events_of_string "<a x=\"1\"><b>hi</b><c/></a>" in
  match evs with
  | [ Sax.Open ("a", [ ("x", "1") ]); Open ("b", []); Text "hi"; Close "b";
      Open ("c", []); Close "c"; Close "a" ] ->
      ()
  | _ -> Alcotest.failf "unexpected event stream (%d events)" (List.length evs)

let test_events_exact () =
  Alcotest.(check int) "self-closing pairs up" 4
    (List.length (Sax.events_of_string "<a><b/></a>"));
  (match Sax.events_of_string "<a>x &amp; y</a>" with
  | [ Sax.Open _; Sax.Text "x & y"; Sax.Close _ ] -> ()
  | _ -> Alcotest.fail "entities decoded");
  match Sax.events_of_string "<a><!-- c --><?pi?>t</a>" with
  | [ Sax.Open _; Sax.Text "t"; Sax.Close _ ] -> ()
  | _ -> Alcotest.fail "comments and PIs skipped"

let test_scan_errors () =
  let fails s =
    match Sax.events_of_string s with
    | exception Sax.Parse_error _ -> ()
    | _ -> Alcotest.fail ("should not scan: " ^ s)
  in
  fails "<a><b></a>";
  fails "<a>";
  fails "text only";
  fails "<a></a><b/>"

(* Scanning a printed tree yields balanced events equal to its size. *)
let prop_events_match_tree =
  QCheck.Test.make ~name:"print + scan = node count" ~count:300
    (QCheck.make (H.Gen.doc ~max_nodes:50))
    (fun d ->
      let xml = Printer.to_string d.Tree.root in
      let opens =
        List.length
          (List.filter
             (function Sax.Open _ -> true | _ -> false)
             (Sax.events_of_string xml))
      in
      opens = d.Tree.node_count)

(* ---------------- streaming evaluation ----------------------------- *)

let stream_matches qs root =
  let q = Query.of_string qs in
  (Stream_eval.over_string q (Printer.to_string root)).Stream_eval.matches

let oracle_indices qs root =
  let q = Query.of_string qs in
  Stream_eval.indices_of_answers root (Semantics.eval q.Query.ast root)

let test_clientele_queries () =
  let c = H.Data.clientele () in
  let root = c.H.Data.doc.Tree.root in
  List.iter
    (fun qs ->
      Alcotest.(check (list int)) (qs ^ " streams correctly")
        (oracle_indices qs root) (stream_matches qs root))
    [
      "client/name";
      "//stock/code";
      "//broker[//stock/code/text() = \"GOOG\"]/name";
      "client[country/text() = \"US\"]/broker[market/name/text() = \"NASDAQ\"]/name";
      "//stock[buy > 380]";
      "client[not(country/text() = \"US\")]//qt";
      ".";
      "//nothing";
      (* Regression: an absolute query with a filter on the document
         node must evaluate the filter at end of stream. *)
      "/.[//stock/code/text() = \"GOOG\"]//broker/name";
      "/.[//stock/code/text() = \"MSFT\"]//broker/name";
    ]

let test_xmark_queries () =
  let doc = Pax_xmark.Xmark.doc ~seed:13 ~total_nodes:2000 ~n_sites:2 in
  List.iter
    (fun (name, qs) ->
      Alcotest.(check (list int)) (name ^ " streams correctly")
        (oracle_indices qs doc.Tree.root)
        (stream_matches qs doc.Tree.root))
    Pax_xmark.Xmark.queries

let test_constant_stack () =
  (* Wide flat documents keep the stack at the tree depth. *)
  let b = Tree.builder () in
  let root =
    Tree.elem b "r" (List.init 500 (fun i -> Tree.leaf b "x" (string_of_int i)))
  in
  let q = Query.of_string "r/x" in
  let r = Stream_eval.over_string q (Printer.to_string root) in
  Alcotest.(check int) "depth 2" 2 r.Stream_eval.max_depth;
  Alcotest.(check int) "all elements seen" 501 r.Stream_eval.elements

(* The evaluator runs as the scanner reads, so a malformed document
   still ends the run with the scanner's error. *)
let test_stream_errors () =
  List.iter
    (fun qs ->
      let q = Query.of_string qs in
      List.iter
        (fun xml ->
          match Stream_eval.over_string q xml with
          | exception Sax.Parse_error _ -> ()
          | _ -> Alcotest.failf "%s over %S should not evaluate" qs xml)
        [ "<a><b></a>"; "<a><b>"; "text only"; "<a></a><b/>"; "<a>x</a>y" ])
    [ "//b"; "/.[//e]//a"; "a[b/text() = \"x\"]" ]

(* Labels and attribute names the document never has: the stream
   lowers its query against a table holding the query's own labels, so
   an element the query cannot name matches wildcards only, and a name
   the document lacks matches nothing.  The random generator draws only
   the document's tags and attributes, so it never asks these. *)
let test_unknown_labels () =
  let b = Tree.builder () in
  let root =
    Tree.elem b ~attrs:[ ("id", "1") ] "a"
      [
        Tree.leaf b "b" "x";
        Tree.elem b ~attrs:[ ("cat", "y") ] "a"
          [ Tree.leaf b "b" "2"; Tree.leaf b "c" "3" ];
        Tree.elem b "d" [];
      ]
  in
  List.iter
    (fun (qs, nonempty) ->
      let expected = oracle_indices qs root in
      Alcotest.(check bool) (qs ^ " oracle answers") nonempty (expected <> []);
      Alcotest.(check (list int)) (qs ^ " streams correctly") expected
        (stream_matches qs root))
    [
      ("//e", false);
      ("//a[e]/b", false);
      ("//*[@zz]", false);
      ("/.[//e]//a", false);
      ("/*", true);
      ("//a[not(e)]/b", true);
      ("/.[not(//e)]//a", true);
      ("//*[@zz or @cat]", true);
      ("/*/*", true);
    ]

let prop_stream_equals_tree =
  QCheck.Test.make ~name:"stream = tree on random scenarios"
    ~count:(qcheck_count 300)
    (QCheck.make
       ~print:(fun (d, q) ->
         Format.asprintf "%a over %a" Pax_xpath.Ast.pp q Tree.pp d.Tree.root)
       (fun st ->
         let d = H.Gen.doc ~max_nodes:50 st in
         let q = H.Gen.query st in
         (d, q)))
    (fun (d, ast) ->
      let q = Query.of_ast ast in
      let expected =
        Stream_eval.indices_of_answers d.Tree.root
          (Semantics.eval ast d.Tree.root)
      in
      let got =
        (Stream_eval.over_string q (Printer.to_string d.Tree.root))
          .Stream_eval.matches
      in
      expected = got)

let () =
  Alcotest.run "stream"
    [
      ( "sax",
        [
          Alcotest.test_case "events" `Quick test_events;
          Alcotest.test_case "exact events" `Quick test_events_exact;
          Alcotest.test_case "scan errors" `Quick test_scan_errors;
          QCheck_alcotest.to_alcotest prop_events_match_tree;
        ] );
      ( "eval",
        [
          Alcotest.test_case "clientele queries" `Quick test_clientele_queries;
          Alcotest.test_case "xmark queries" `Quick test_xmark_queries;
          Alcotest.test_case "stack stays shallow" `Quick test_constant_stack;
          Alcotest.test_case "malformed documents raise" `Quick
            test_stream_errors;
          Alcotest.test_case "labels the document lacks" `Quick
            test_unknown_labels;
          QCheck_alcotest.to_alcotest prop_stream_equals_tree;
        ] );
    ]
