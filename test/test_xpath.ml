(* XPath parsing and the paper's normalization rules. *)

module Ast = Pax_xpath.Ast
module Parse = Pax_xpath.Parse
module Normal = Pax_xpath.Normal
module Compile = Pax_xpath.Compile
module Query = Pax_xpath.Query

let q = Parse.query
let norm s = Normal.to_string (Normal.normalize (q s))
let check = Alcotest.(check string)

let test_paths () =
  check "simple path" "a/b/c" (Ast.to_string (q "a/b/c"));
  check "absolute" "/a/b" (Ast.to_string (q "/a/b"));
  check "leading dslash" "//a" (Ast.to_string (q "//a"));
  check "wildcard and dot kept" "*/b" (Ast.to_string (q "*/./b"));
  check "inner dslash" "a//b" (Ast.to_string (q "a//b"))

let test_qualifiers () =
  check "path qualifier" "a[b/c]" (Ast.to_string (q "a[b/c]"));
  check "text test" "a[b/text() = \"x\"]" (Ast.to_string (q "a[b/text()='x']"));
  check "text sugar" "a[b/text() = \"x\"]" (Ast.to_string (q "a[b = 'x']"));
  check "val test" "a[b/val() > 7]" (Ast.to_string (q "a[b/val() > 7]"));
  check "val sugar" "a[b/val() > 7]" (Ast.to_string (q "a[b > 7]"));
  check "conjunction" "a[(b and c)]" (Ast.to_string (q "a[b and c]"));
  check "disjunction" "a[(b or c)]" (Ast.to_string (q "a[b or c]"));
  check "negation" "a[not(b)]" (Ast.to_string (q "a[not(b)]"));
  check "bang negation" "a[not(b)]" (Ast.to_string (q "a[!b]"));
  check "symbols" "a[(b and c)]" (Ast.to_string (q "a[b && c]"));
  check "neq string" "a[not(b/text() = \"x\")]" (Ast.to_string (q "a[b != 'x']"));
  check "multiple qualifiers" "a[b][c]" (Ast.to_string (q "a[b][c]"))

let test_precedence () =
  (* and binds tighter than or, as in XPath. *)
  check "and over or (left)" "a[((b and c) or d)]"
    (Ast.to_string (q "a[b and c or d]"));
  check "and over or (right)" "a[(b or (c and d))]"
    (Ast.to_string (q "a[b or c and d]"));
  check "parens override" "a[((b or c) and d)]"
    (Ast.to_string (q "a[(b or c) and d]"));
  check "not binds tightest" "a[(not(b) and c)]"
    (Ast.to_string (q "a[!b and c]"))

let test_attributes () =
  check "existence" "a[@id]" (Ast.to_string (q "a[@id]"));
  check "equality" "a[@id = \"x\"]" (Ast.to_string (q "a[@id = 'x']"));
  check "on a path" "a[b/@cat = \"y\"]" (Ast.to_string (q "a[b/@cat = 'y']"));
  check "negated equality" "a[not(@id = \"x\")]" (Ast.to_string (q "a[@id != 'x']"));
  check "normalizes into a condition step" "a/e[e[@id]]" (norm "a[@id]");
  (match Parse.query "a[@id > 3]" with
  | exception Parse.Syntax_error _ -> ()
  | _ -> Alcotest.fail "attributes only compare for equality")

let test_paper_queries () =
  (* All four experiment queries of Fig. 7 must parse. *)
  List.iter
    (fun s -> ignore (q s))
    [
      "/sites/site/people/person";
      "/sites/site/open_auctions//annotation";
      "/sites/site/people/person[profile/age > 20 and address/country = \"US\"]/creditcard";
      "/sites//people/person[/profile/age > 20 and /address/country = \"US\"]/creditcard";
      "//broker[//stock/code/text() = \"goog\" and not(//stock/code/text() = \"yhoo\")]/name";
      "client[country/text() = \"us\"]/broker[market/name/text() = \"nasdaq\"]/name";
    ]

let test_errors () =
  let fails s =
    match Parse.query s with
    | exception Parse.Syntax_error _ -> ()
    | _ -> Alcotest.fail ("should not parse: " ^ s)
  in
  fails "";
  fails "a[";
  fails "a]";
  fails "a[b = ]";
  fails "a[text() > 'x']";
  fails "a//";
  fails "a b";
  fails "a[not b]"

let test_normal_form () =
  check "plain path" "a/b" (norm "a/b");
  check "dslash becomes step" "a//b" (norm "a//b");
  check "qualifier becomes epsilon step" "a/e[b]" (norm "a[b]");
  check "text pushed into trailing step" "a/e[b/e[text() = \"x\"]]"
    (norm "a[b/text()='x']");
  check "consecutive qualifiers merge" "a/e[(b and c)]" (norm "a[b][c]");
  check "dot disappears" "a/b" (norm "a/./b");
  check "double dslash collapses" "a//b" (norm "a/.//./b");
  check "example 2.1"
    "client/e[country/e[text() = \"us\"]]/broker/e[market/name/e[text() = \"nasdaq\"]]/name"
    (norm "client[country/text()='us']/broker[market/name/text()='nasdaq']/name")

let test_selection_path () =
  let n =
    Normal.normalize
      (q "client[country/text()='us']/broker[market/name/text()='nasdaq']/name")
  in
  let sel = Normal.selection_path n in
  Alcotest.(check int) "selection path client/broker/name" 3 (List.length sel);
  Alcotest.(check bool) "has qualifiers" false (Normal.has_no_qualifiers n);
  let n2 = Normal.normalize (q "a/b//c") in
  Alcotest.(check bool) "no qualifiers" true (Normal.has_no_qualifiers n2)

let test_compile_layout () =
  let c = (Query.of_string "a[b/c and d]//e[f = 'x']").Query.compiled in
  Alcotest.(check bool) "qualifier entries linear in |Q|" true
    (c.Compile.n_qual > 0 && c.Compile.n_qual < 64);
  Alcotest.(check int) "selection vector = items + 1" c.Compile.n_sel
    (Array.length c.Compile.sel + 1);
  (* Nested paths come before the paths that reference them. *)
  Array.iteri
    (fun pi (p : Compile.cpath) ->
      Array.iter
        (function
          | Compile.Filter q ->
              let rec refs = function
                | Compile.Sat pj -> Alcotest.(check bool) "nested-first" true (pj < pi)
                | Compile.Text_eq _ | Compile.Val_cmp _ | Compile.Attr_test _ -> ()
                | Compile.Qnot r -> refs r
                | Compile.Qand (a, b) | Compile.Qor (a, b) -> refs a; refs b
              in
              refs q
          | Compile.Move _ | Compile.Dos_item -> ())
        p.Compile.items)
    c.Compile.paths

let test_query_handle () =
  let qq = Query.of_string "/sites/site/open_auctions//annotation" in
  Alcotest.(check bool) "absolute" true qq.Query.ast.Ast.absolute;
  Alcotest.(check bool) "has dos" true (Query.has_dos qq);
  Alcotest.(check bool) "no qualifiers" false (Query.has_qualifiers qq);
  let qq2 = Query.of_string "a[b]/c" in
  Alcotest.(check bool) "has qualifiers" true (Query.has_qualifiers qq2);
  Alcotest.(check bool) "no dos" false (Query.has_dos qq2);
  Alcotest.(check bool) "size positive" true (Query.size qq2 > 0)

let test_parse_print_roundtrip () =
  let stable s =
    let once = q s in
    let again = q (Ast.to_string once) in
    Alcotest.(check bool) (s ^ " roundtrips") true (Ast.equal once again)
  in
  List.iter stable
    [
      "a/b/c";
      "//a[b//c]/d";
      "/a/*[x = 'y']//b";
      "a[not(b) and (c or d/text() = 'x')]";
      "a[b > 1][c <= 2.5]";
      ".//x";
      (* Large, tiny and inexact numbers, and strings holding a quote:
         a site server reparses a query's printed source. *)
      "a[b > 1000000][c < 1.5e-7][d = 0.1]";
      "a[text() = 'say \"hi\"'][@k = \"it's\"]";
    ]

let () =
  Alcotest.run "xpath"
    [
      ( "parser",
        [
          Alcotest.test_case "paths" `Quick test_paths;
          Alcotest.test_case "qualifiers" `Quick test_qualifiers;
          Alcotest.test_case "attributes" `Quick test_attributes;
          Alcotest.test_case "precedence" `Quick test_precedence;
          Alcotest.test_case "paper queries" `Quick test_paper_queries;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "roundtrip" `Quick test_parse_print_roundtrip;
        ] );
      ( "normalization",
        [
          Alcotest.test_case "normal form" `Quick test_normal_form;
          Alcotest.test_case "selection path" `Quick test_selection_path;
        ] );
      ( "compile",
        [
          Alcotest.test_case "layout" `Quick test_compile_layout;
          Alcotest.test_case "query handle" `Quick test_query_handle;
        ] );
    ]
