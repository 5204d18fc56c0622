(* Fragment-swapping evaluation of large documents (paper §1/§8): both
   strategies are exact, and partial evaluation pages each fragment in
   exactly once. *)

module Tree = Pax_xml.Tree
module Query = Pax_xpath.Query
module Semantics = Pax_xpath.Semantics
module Fragment = Pax_frag.Fragment
module Paging = Pax_core.Paging
module Eval_ft = Pax_core.Eval_ft
module Xmark = Pax_xmark.Xmark
module H = Test_helpers
module P = H.Pointer

let count n =
  match Sys.getenv_opt "PAX_QCHECK_COUNT" with
  | Some s -> (try int_of_string s with _ -> n)
  | None -> n

let doc = Xmark.doc ~seed:11 ~total_nodes:4000 ~n_sites:2

let queries =
  [
    Xmark.q1;
    Xmark.q2;
    Xmark.q3;
    "//person[address/country = \"Canada\"]/name";
    "//annotation[happiness > 5]";
  ]

let test_exactness () =
  List.iter
    (fun qs ->
      let q = Query.of_string qs in
      let expected = Semantics.eval_ids q.Query.ast doc.Tree.root in
      let r1 = Paging.run ~memory_budget:700 q doc in
      let r2 = Paging.run_two_pass ~memory_budget:700 q doc in
      Alcotest.(check (list int)) (qs ^ " (partial evaluation)") expected
        r1.Paging.answer_ids;
      Alcotest.(check (list int)) (qs ^ " (two-pass)") expected
        r2.Paging.answer_ids)
    queries

let test_single_load_per_fragment () =
  let q = Query.of_string Xmark.q3 in
  let r = Paging.run ~memory_budget:700 q doc in
  Alcotest.(check int) "swap-ins = fragments" r.Paging.n_fragments
    r.Paging.swap_ins

let test_two_pass_pays_more () =
  let q = Query.of_string Xmark.q3 in
  let pe = Paging.run ~memory_budget:700 q doc in
  let tp = Paging.run_two_pass ~memory_budget:700 q doc in
  Alcotest.(check bool) "two-pass loads at least twice as much" true
    (tp.Paging.swap_ins >= 2 * pe.Paging.swap_ins);
  Alcotest.(check bool) "two-pass pages more bytes" true
    (tp.Paging.bytes_loaded > pe.Paging.bytes_loaded)

let test_memory_budget_respected () =
  List.iter
    (fun budget ->
      let q = Query.of_string Xmark.q1 in
      let r = Paging.run ~memory_budget:budget q doc in
      Alcotest.(check bool)
        (Printf.sprintf "peak fragment near budget %d" budget)
        true
        (r.Paging.peak_fragment_nodes <= budget * 6))
    [ 200; 500; 2000 ]

let test_budget_vs_fragments () =
  let q = Query.of_string Xmark.q1 in
  let small = Paging.run ~memory_budget:300 q doc in
  let large = Paging.run ~memory_budget:3000 q doc in
  Alcotest.(check bool) "smaller budget, more fragments" true
    (small.Paging.n_fragments > large.Paging.n_fragments)

(* The fragments that keep candidates after their selection pass,
   found with the pointer reference: the qualifier pass on every
   fragment, evalFT's bottom-up unification, then the selection pass
   with the unified values. *)
let fragments_with_candidates (q : Query.t) ft =
  let compiled = q.Query.compiled in
  let n = Fragment.n_fragments ft in
  let eval_root fid =
    let root = (Fragment.fragment ft fid).Fragment.root in
    if fid = 0 then fst (P.Sel_pass.context_root compiled root) else root
  in
  let qps = Array.init n (fun fid -> P.Qual_pass.run compiled (eval_root fid)) in
  let quals =
    Eval_ft.resolve_quals ft ~root_vecs:(fun fid ->
        Some qps.(fid).P.Qual_pass.root_vec)
  in
  let has_candidates fid =
    let qp = qps.(fid) in
    ignore (P.Qual_pass.resolve qp (Eval_ft.qual_lookup quals) : int);
    let sat (v : Tree.node) filter =
      P.Qual_pass.sat compiled
        (Hashtbl.find qp.P.Qual_pass.vectors v.Tree.id)
        v filter
    in
    let init =
      if fid = 0 then P.Sel_pass.blank_init compiled
      else P.Sel_pass.symbolic_init compiled ~fid
    in
    (P.Sel_pass.run compiled ~init ~root_is_context:(fid = 0) ~sat
       (eval_root fid))
      .P.Sel_pass.candidates
    <> []
  in
  List.filter has_candidates (List.init n Fun.id)

(* Random documents, queries and memory budgets: both strategies are
   exact; partial evaluation loads each fragment once; the two-pass
   strategy loads each fragment once per pass it runs (the qualifier
   pass only when the query has qualifiers) and once more per fragment
   with candidates.  Bytes follow the loads. *)
let prop_random =
  QCheck.Test.make ~name:"random documents and budgets" ~count:(count 200)
    (QCheck.make
       ~print:(fun (d, ast, budget) ->
         Format.asprintf "budget %d, query %a@.doc: %a" budget
           Pax_xpath.Ast.pp ast Tree.pp d.Tree.root)
       (fun st ->
         let d = H.Gen.doc st in
         let ast = H.Gen.query st in
         (d, ast, QCheck.Gen.int_range 1 (d.Tree.node_count + 1) st)))
    (fun (d, ast, budget) ->
      let q = Query.of_ast ast in
      let expected = Semantics.eval_ids ast d.Tree.root in
      let pe = Paging.run ~memory_budget:budget q d in
      let tp = Paging.run_two_pass ~memory_budget:budget q d in
      let ft =
        Fragment.fragmentize d ~cuts:(Fragment.cuts_by_size d ~budget)
      in
      let n = Fragment.n_fragments ft in
      let bytes fids =
        List.fold_left
          (fun acc fid ->
            acc + Fragment.fragment_byte_size (Fragment.fragment ft fid))
          0 fids
      in
      let all = List.init n Fun.id in
      let with_cands = fragments_with_candidates q ft in
      let passes =
        if Pax_xpath.Compile.no_qualifiers q.Query.compiled then 1 else 2
      in
      let check what ok =
        if not ok then QCheck.Test.fail_reportf "%s" what
      in
      check "partial evaluation answers" (pe.Paging.answer_ids = expected);
      check "two-pass answers" (tp.Paging.answer_ids = expected);
      check "fragment count" (pe.Paging.n_fragments = n && tp.Paging.n_fragments = n);
      check "partial evaluation: one swap-in per fragment"
        (pe.Paging.swap_ins = n && pe.Paging.bytes_loaded = bytes all);
      check "two-pass: one swap-in per fragment per pass, one per fragment \
             with candidates"
        (tp.Paging.swap_ins = (passes * n) + List.length with_cands
        && tp.Paging.bytes_loaded = (passes * bytes all) + bytes with_cands);
      true)

let () =
  Alcotest.run "paging"
    [
      ( "paging",
        [
          Alcotest.test_case "exactness" `Quick test_exactness;
          Alcotest.test_case "one load per fragment" `Quick
            test_single_load_per_fragment;
          Alcotest.test_case "two-pass pays more" `Quick test_two_pass_pays_more;
          Alcotest.test_case "budget respected" `Quick test_memory_budget_respected;
          Alcotest.test_case "budget vs fragment count" `Quick
            test_budget_vs_fragments;
          QCheck_alcotest.to_alcotest prop_random;
        ] );
    ]
