(* XML tree model, parser and printer. *)

module Tree = Pax_xml.Tree
module Parser = Pax_xml.Parser
module Printer = Pax_xml.Printer

let parse s = (Parser.parse_string s).Tree.root

let test_basic_parse () =
  let root = parse "<a><b>hello</b><c x=\"1\" y=\"two\"/></a>" in
  Alcotest.(check string) "root tag" "a" root.Tree.tag;
  Alcotest.(check int) "two children" 2 (List.length root.Tree.children);
  match root.Tree.children with
  | [ b; c ] ->
      Alcotest.(check string) "text" "hello" (Tree.text_of b);
      Alcotest.(check (option string)) "attr x" (Some "1") (Tree.attr c "x");
      Alcotest.(check (option string)) "attr y" (Some "two") (Tree.attr c "y")
  | _ -> Alcotest.fail "expected [b; c]"

let test_prolog_comments () =
  let root =
    parse
      "<?xml version=\"1.0\"?><!-- top --><!DOCTYPE a [<!ELEMENT a ANY>]>\n\
       <a><!-- inner -->text<![CDATA[ & raw <stuff> ]]></a>"
  in
  Alcotest.(check string) "tag" "a" root.Tree.tag;
  Alcotest.(check string) "cdata kept raw" "text & raw <stuff> "
    (Tree.text_of root)

let test_entities () =
  let root = parse "<a>x &lt; y &amp;&amp; y &gt; z &quot;q&quot; &#65;</a>" in
  Alcotest.(check string) "decoded" "x < y && y > z \"q\" A" (Tree.text_of root)

let test_errors () =
  let fails s =
    match Parser.parse_string s with
    | exception Parser.Parse_error _ -> ()
    | _ -> Alcotest.fail ("should not parse: " ^ s)
  in
  fails "<a><b></a>";
  fails "<a>";
  fails "no xml";
  fails "<a></a><b></b>";
  fails "<a x=1></a>"

let test_roundtrip () =
  let source =
    "<inventory date=\"2007-06-12\"><item code=\"A1\">widget</item><empty/>\
     <nested><deep><deeper>x</deeper></deep></nested></inventory>"
  in
  let once = parse source in
  let again = parse (Printer.to_string once) in
  Alcotest.(check bool) "parse . print . parse is stable" true
    (Tree.equal_structure once again);
  let indented = parse (Printer.to_string ~indent:true once) in
  Alcotest.(check bool) "indented print parses to the same tree" true
    (Tree.equal_structure once indented)

let test_escaping () =
  Alcotest.(check string) "text escape" "a&amp;b&lt;c&gt;d"
    (Printer.escape_text "a&b<c>d");
  Alcotest.(check string) "attr escape" "&quot;x&apos;"
    (Printer.escape_attr "\"x'")

let test_measures () =
  let b = Tree.builder () in
  let t =
    Tree.elem b "r" [ Tree.leaf b "x" "1"; Tree.elem b "y" [ Tree.leaf b "z" "2" ] ]
  in
  Alcotest.(check int) "size" 4 (Tree.size t);
  Alcotest.(check int) "depth" 3 (Tree.depth t);
  Alcotest.(check bool) "bytes positive" true (Tree.byte_size t > 0);
  let doc = Tree.doc_of_root t in
  Alcotest.(check int) "doc node count" 4 doc.Tree.node_count

let test_traversal () =
  let root = parse "<a><b><c/></b><d/></a>" in
  let pre = ref [] in
  Tree.iter (fun n -> pre := n.Tree.tag :: !pre) root;
  Alcotest.(check (list string)) "pre-order" [ "a"; "b"; "c"; "d" ]
    (List.rev !pre);
  let post = ref [] in
  Tree.iter_post (fun n -> post := n.Tree.tag :: !post) root;
  Alcotest.(check (list string)) "post-order" [ "c"; "b"; "d"; "a" ]
    (List.rev !post);
  let leaves = Tree.select (fun n -> n.Tree.children = []) root in
  Alcotest.(check int) "two leaves" 2 (List.length leaves)

let test_find_and_copy () =
  let root = parse "<a><b/><c><d/></c></a>" in
  let copy = Tree.copy root in
  Alcotest.(check bool) "copy equal" true (Tree.equal_structure root copy);
  copy.Tree.children <- [];
  Alcotest.(check int) "original untouched" 2 (List.length root.Tree.children)

let test_virtual_nodes () =
  let b = Tree.builder () in
  let v = Tree.virtual_node b 7 in
  Alcotest.(check bool) "is virtual" true (Tree.is_virtual v);
  Alcotest.(check (option int)) "fragment id" (Some 7) (Tree.virtual_fragment v);
  let t = Tree.elem b "r" [ v ] in
  let printed = Printer.to_string t in
  Alcotest.(check bool) "serializes as a PI" true
    (Astring.String.is_infix ~affix:"<?fragment id=\"7\"?>" printed)

let test_float_of () =
  let b = Tree.builder () in
  Alcotest.(check (option (float 0.001))) "parses" (Some 3.5)
    (Tree.float_of (Tree.leaf b "x" "3.5"));
  Alcotest.(check (option (float 0.001))) "trims" (Some 42.)
    (Tree.float_of (Tree.leaf b "x" " 42 "));
  Alcotest.(check (option (float 0.001))) "non-numeric" None
    (Tree.float_of (Tree.leaf b "x" "abc"))

(* Two domains intern fresh labels while a third reads names without the
   table's lock: every code a reader can see names the label that was
   interned under it, and after the writers finish every label has one
   code, dense from 0. *)
let test_intern_concurrent () =
  let module Intern = Pax_xml.Intern in
  let t = Intern.create () in
  let per_writer = 2000 in
  let label w i = Printf.sprintf "w%d-%d" w i in
  let stop = Atomic.make false and bad = Atomic.make 0 in
  let reader =
    Domain.spawn (fun () ->
        let reads = ref 0 in
        while not (Atomic.get stop) do
          let n = Intern.size t in
          for c = 0 to n - 1 do
            let s = Intern.name t c in
            if String.length s < 4 || s.[0] <> 'w' then Atomic.incr bad;
            incr reads
          done
        done;
        !reads)
  in
  let writers =
    List.init 2 (fun w ->
        Domain.spawn (fun () ->
            List.init per_writer (fun i -> (label w i, Intern.intern t (label w i)))))
  in
  let codes = List.concat_map Domain.join writers in
  Atomic.set stop true;
  ignore (Domain.join reader : int);
  Alcotest.(check int) "no torn read" 0 (Atomic.get bad);
  Alcotest.(check int) "one code per label" (2 * per_writer) (Intern.size t);
  List.iter
    (fun (s, c) ->
      Alcotest.(check string) "name inverts intern" s (Intern.name t c);
      Alcotest.(check int) "find agrees" c (Intern.find t s))
    codes;
  let sorted = List.sort compare (List.map snd codes) in
  Alcotest.(check bool) "codes are dense from 0" true
    (sorted = List.init (2 * per_writer) Fun.id)

let () =
  Alcotest.run "xml"
    [
      ( "parser",
        [
          Alcotest.test_case "basic" `Quick test_basic_parse;
          Alcotest.test_case "prolog, comments, CDATA" `Quick test_prolog_comments;
          Alcotest.test_case "entities" `Quick test_entities;
          Alcotest.test_case "errors" `Quick test_errors;
        ] );
      ( "printer",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "escaping" `Quick test_escaping;
        ] );
      ( "tree",
        [
          Alcotest.test_case "measures" `Quick test_measures;
          Alcotest.test_case "traversal" `Quick test_traversal;
          Alcotest.test_case "find and copy" `Quick test_find_and_copy;
          Alcotest.test_case "virtual nodes" `Quick test_virtual_nodes;
          Alcotest.test_case "float_of" `Quick test_float_of;
        ] );
      ( "intern",
        [
          Alcotest.test_case "interning races name readers" `Quick
            test_intern_concurrent;
        ] );
    ]
