(* ParBoX: Boolean queries, one visit per site, O(|Q| |FT|) traffic. *)

module Tree = Pax_xml.Tree
module Semantics = Pax_xpath.Semantics
module Parse = Pax_xpath.Parse
module Cluster = Pax_dist.Cluster
module H = Test_helpers

let c = H.Data.clientele ()

let eval_both qual_text =
  let cl = H.Data.clientele_cluster c in
  let answer, report = Pax_core.Parbox.eval_string cl qual_text in
  let expected = Semantics.holds (Parse.qual qual_text) c.doc.Tree.root in
  Alcotest.(check bool) (qual_text ^ " truth") expected answer;
  report

let test_truth_values () =
  List.iter
    (fun s -> ignore (eval_both s))
    [
      "//stock/code/text() = \"GOOG\"";
      "//stock/code/text() = \"MSFT\"";
      "client/country/text() = \"US\"";
      "client[country/text() = \"Canada\"]//stock";
      "not(//stock[buy > 1000])";
      "//stock[buy > 380] and //market/name/text() = \"TSE\"";
      "//broker or //nothing";
      "client/broker/market/stock/qt";
    ]

let test_one_visit () =
  let report = eval_both "//stock/code/text() = \"GOOG\"" in
  Alcotest.(check int) "one visit per site" 1 report.Cluster.max_visits;
  Alcotest.(check int) "one round" 1 (List.length report.Cluster.rounds)

let test_no_tree_data () =
  let report = eval_both "//stock[qt >= 40]" in
  Alcotest.(check int) "no tree data at all" 0 report.Cluster.tree_bytes;
  Alcotest.(check int) "no answer elements either" 0 report.Cluster.answer_bytes;
  Alcotest.(check bool) "control traffic bounded" true
    (report.Cluster.control_bytes > 0)

(* Communication is independent of document size: grow the document and
   the control bytes stay put. *)
let test_traffic_independent_of_tree () =
  let report_small = eval_both "//stock/code/text() = \"GOOG\"" in
  let b = Tree.builder () in
  let big_client i =
    Tree.elem b "client"
      [ Tree.leaf b "name" (Printf.sprintf "c%d" i);
        Tree.leaf b "country" "US";
        Tree.elem b "broker"
          [ Tree.leaf b "name" "B";
            Tree.elem b "market"
              [ Tree.leaf b "name" "M";
                Tree.elem b "stock"
                  [ Tree.leaf b "code" "AAA"; Tree.leaf b "buy" "5"; Tree.leaf b "qt" "1" ] ] ] ]
  in
  let root = Tree.elem b "clientele" (List.init 60 big_client) in
  let doc = Tree.doc_of_root root in
  let cuts = Pax_frag.Fragment.cuts_by_tag doc ~tag:"broker" in
  (* Keep |FT| comparable: only 4 cuts. *)
  let cuts = List.filteri (fun i _ -> i < 4) cuts in
  let ft = Pax_frag.Fragment.fragmentize doc ~cuts in
  let cl = Cluster.create ~ftree:ft ~n_sites:4 ~assign:(fun fid -> fid mod 4) () in
  let _, report_big = Pax_core.Parbox.eval_string cl "//stock/code/text() = \"GOOG\"" in
  Alcotest.(check bool) "traffic same order despite 10x tree" true
    (report_big.Cluster.control_bytes < 4 * report_small.Cluster.control_bytes)

(* The root check reads the root's own text and attributes, from slot 0
   of the root fragment's image: random qualifiers never put an empty
   path under a text or attribute test, so only these cases ask. *)
let test_root_own_data () =
  let quals =
    [
      ("text() = \"x\"", true);
      ("text() = \"y\"", false);
      ("@id", true);
      ("@zz", false);
      ("@id = \"r1\"", true);
      ("not(@cat = \"y\")", true);
      ("not(@cat = \"z\")", false);
      ("text() = \"x\" and @id and not(@cat = \"y\")", true);
      ("@cat = \"z\" and //c", true);
      ("@id and //e", false);
    ]
  in
  let build () =
    let b = Tree.builder () in
    Tree.elem b ~text:"x" ~attrs:[ ("id", "r1"); ("cat", "z") ] "r"
      [
        Tree.elem b "s" [ Tree.leaf b "b" "1" ];
        Tree.elem b "s" [ Tree.leaf b "c" "2" ];
      ]
  in
  let reference = build () in
  let doc = Tree.doc_of_root (build ()) in
  let ft =
    Pax_frag.Fragment.fragmentize doc
      ~cuts:(Pax_frag.Fragment.cuts_by_tag doc ~tag:"s")
  in
  let cl =
    Cluster.create ~ftree:ft ~n_sites:2 ~assign:(fun fid -> fid mod 2) ()
  in
  List.iter
    (fun (s, holds) ->
      Alcotest.(check bool) (s ^ " oracle") holds
        (Semantics.holds (Parse.qual s) reference);
      Alcotest.(check bool) (s ^ " truth") holds
        (fst (Pax_core.Parbox.eval_string cl s)))
    quals

let () =
  Alcotest.run "parbox"
    [
      ( "boolean-queries",
        [
          Alcotest.test_case "truth values" `Quick test_truth_values;
          Alcotest.test_case "single visit" `Quick test_one_visit;
          Alcotest.test_case "no data shipping" `Quick test_no_tree_data;
          Alcotest.test_case "traffic vs tree size" `Quick test_traffic_independent_of_tree;
          Alcotest.test_case "root's own text and attributes" `Quick
            test_root_own_data;
        ] );
    ]
