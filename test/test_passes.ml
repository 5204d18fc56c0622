(* White-box tests of the evaluation passes: qualifier vectors against
   the reference semantics, context vectors against ancestry, the flat
   stage kernels the engines run against these pointer passes, and the
   coordinator's unification (evalFT). *)

module Tree = Pax_xml.Tree
module Flat = Pax_xml.Flat
module Query = Pax_xpath.Query
module Compile = Pax_xpath.Compile
module Semantics = Pax_xpath.Semantics
module Parse = Pax_xpath.Parse
module Formula = Pax_bool.Formula
module Var = Pax_bool.Var
module Fragment = Pax_frag.Fragment
module Qual_pass = Pax_core.Qual_pass
module Sel_pass = Pax_core.Sel_pass
module Flat_pass = Pax_core.Flat_pass
module Eval_ft = Pax_core.Eval_ft
module H = Test_helpers

let count n =
  match Sys.getenv_opt "PAX_QCHECK_COUNT" with
  | Some s -> (try int_of_string s with _ -> n)
  | None -> n

(* ------------------------------------------------------------------ *)
(* Qualifier pass: for every node of a complete tree, satisfaction of
   every top-level qualifier path equals the set-based oracle.         *)
(* ------------------------------------------------------------------ *)

let qual_matches_oracle_on doc_root (qual_src : string) =
  let ast_qual = Parse.qual qual_src in
  (* Compile the qualifier through a carrier query .[q]. *)
  let q =
    Query.of_ast
      { Pax_xpath.Ast.absolute = false;
        path = Pax_xpath.Ast.Qualified (Pax_xpath.Ast.Empty, ast_qual) }
  in
  let compiled = q.Query.compiled in
  let filter =
    match compiled.Compile.sel with
    | [| Compile.Filter f |] -> f
    | _ -> Alcotest.fail "expected a single filter"
  in
  let qp = Qual_pass.run compiled doc_root in
  Tree.iter
    (fun v ->
      let vec = Hashtbl.find qp.Qual_pass.vectors v.Tree.id in
      let got =
        match Formula.to_bool (Qual_pass.sat compiled vec v filter) with
        | Some b -> b
        | None -> Alcotest.fail "ground tree produced a residual"
      in
      let expected = Semantics.holds ast_qual v in
      if got <> expected then
        Alcotest.failf "qualifier %s disagrees at node %d (%s): got %b" qual_src
          v.Tree.id v.Tree.tag got)
    doc_root

let test_qual_pass_oracle () =
  let c = H.Data.clientele () in
  List.iter
    (qual_matches_oracle_on c.H.Data.doc.Tree.root)
    [
      "broker";
      "market/name";
      "//stock";
      "//stock/code/text() = \"GOOG\"";
      "country/text() = \"US\"";
      "broker/market[name/text() = \"NASDAQ\"]/stock";
      "not(//stock[buy > 380])";
      "//qt/val() >= 90";
      "name and country";
      "broker or stock";
    ]

let prop_qual_pass_random =
  QCheck.Test.make ~name:"qualifier pass = holds, random" ~count:(count 200)
    (QCheck.make
       ~print:(fun (d, q) ->
         Format.asprintf "[%a] over %a" Pax_xpath.Ast.pp_qual q Tree.pp
           d.Tree.root)
       (fun st ->
         let d = H.Gen.doc ~max_nodes:40 st in
         let q = H.Gen.qual ~qdepth:2 st in
         (d, q)))
    (fun (d, ast_qual) ->
      let q =
        Query.of_ast
          { Pax_xpath.Ast.absolute = false;
            path = Pax_xpath.Ast.Qualified (Pax_xpath.Ast.Empty, ast_qual) }
      in
      let compiled = q.Query.compiled in
      let filter =
        match compiled.Compile.sel with
        | [| Compile.Filter f |] -> f
        | _ -> assert false
      in
      let qp = Qual_pass.run compiled d.Tree.root in
      let ok = ref true in
      Tree.iter
        (fun v ->
          let vec = Hashtbl.find qp.Qual_pass.vectors v.Tree.id in
          match Formula.to_bool (Qual_pass.sat compiled vec v filter) with
          | Some b -> if b <> Semantics.holds ast_qual v then ok := false
          | None -> ok := false)
        d.Tree.root;
      !ok)

(* ------------------------------------------------------------------ *)
(* Selection pass: context vectors recorded at virtual nodes            *)
(* ------------------------------------------------------------------ *)

let test_contexts_per_virtual_node () =
  let c = H.Data.clientele () in
  let ft = H.Data.clientele_ftree c in
  let q = Query.of_string "client/broker/market/name" in
  let compiled = q.Query.compiled in
  let f0 = Fragment.fragment ft 0 in
  let outcome =
    Sel_pass.run compiled
      ~init:(Sel_pass.blank_init compiled)
      ~root_is_context:true
      ~sat:(fun _ _ -> Formula.true_)
      f0.Fragment.root
  in
  (* F0 has three virtual children in the clientele fragmentation. *)
  Alcotest.(check int) "one context per virtual node" 3
    (List.length outcome.Sel_pass.contexts);
  List.iter
    (fun (_, vec) ->
      Alcotest.(check int) "context vector length" compiled.Compile.n_sel
        (Array.length vec))
    outcome.Sel_pass.contexts

let test_symbolic_init_creates_candidates () =
  let c = H.Data.clientele () in
  let ft = H.Data.clientele_ftree c in
  (* The E*trade broker fragment: name could be an answer depending on
     the (unknown) ancestors, so it must become a candidate. *)
  let fid =
    List.hd
      (List.filter
         (fun fid ->
           (Fragment.fragment ft fid).Fragment.root.Tree.id = c.H.Data.cut_f1)
         (Fragment.top_down ft))
  in
  let q = Query.of_string "client/broker/name" in
  let compiled = q.Query.compiled in
  let outcome =
    Sel_pass.run compiled
      ~init:(Sel_pass.symbolic_init compiled ~fid)
      ~root_is_context:false
      ~sat:(fun _ _ -> Formula.true_)
      (Fragment.fragment ft fid).Fragment.root
  in
  Alcotest.(check int) "no certain answers" 0
    (List.length outcome.Sel_pass.answers);
  Alcotest.(check int) "one candidate (the broker name)" 1
    (List.length outcome.Sel_pass.candidates);
  let _, f = List.hd outcome.Sel_pass.candidates in
  Alcotest.(check bool) "candidate depends on a context variable" true
    (List.exists
       (function Var.Sel_ctx (f', _) -> f' = fid | _ -> false)
       (Formula.vars f))

(* ------------------------------------------------------------------ *)
(* Kernel parity: every fragment of a random fragmentation through the
   flat kernels and through their pointer references, compared entry by
   entry.  Absolute queries exercise the #document wrapper on fragment
   0; the other fragments start from symbolic contexts.                *)
(* ------------------------------------------------------------------ *)

(* Stand-in unified values for boundary qualifier variables, so the
   resolution step and the ground selection filters run too. *)
let fake_quals = function
  | Var.Qual (sub, e) -> Some (Formula.bool ((sub + e) mod 2 = 0))
  | Var.Sel_ctx _ | Var.Qual_at _ -> None

let kernel_parity (s : H.Gen.scenario) =
  let compiled = (Query.of_ast s.H.Gen.s_query).Query.compiled in
  let ft = Pax_dist.Cluster.ftree s.H.Gen.s_cluster in
  let plan = Flat_pass.make_plan compiled (Fragment.intern ft) in
  let ids = List.map (fun (n : Tree.node) -> n.Tree.id) in
  let cands = List.map (fun ((n : Tree.node), f) -> (n.Tree.id, f)) in
  let check fid what ok =
    if not ok then QCheck.Test.fail_reportf "F%d: flat %s diverges" fid what
  in
  List.iter
    (fun fid ->
      let is_root = fid = 0 in
      let root = (Fragment.fragment ft fid).Fragment.root in
      let eval_root =
        if is_root then fst (Sel_pass.context_root compiled root) else root
      in
      let fl = Fragment.flat ft fid in
      let qp = Qual_pass.run compiled eval_root in
      let fq = Flat_pass.qual_run plan fl ~is_root in
      check fid "qual ops" (qp.Qual_pass.ops = fq.Flat_pass.q_ops);
      check fid "qual root vector"
        (qp.Qual_pass.root_vec = fq.Flat_pass.q_root_vec);
      for i = 0 to Flat.length fl - 1 do
        check fid
          (Printf.sprintf "qual vector at slot %d" i)
          (Hashtbl.find_opt qp.Qual_pass.vectors (Flat.node_id fl i)
          = Some fq.Flat_pass.q_vecs.(i))
      done;
      check fid "qual resolve ops"
        (Qual_pass.resolve qp fake_quals
        = Flat_pass.qual_resolve fq fake_quals);
      let init =
        if is_root then Sel_pass.blank_init compiled
        else Sel_pass.symbolic_init compiled ~fid
      in
      let sat (v : Tree.node) filter =
        Qual_pass.sat compiled
          (Hashtbl.find qp.Qual_pass.vectors v.Tree.id)
          v filter
      in
      let sp =
        Sel_pass.run compiled ~init ~root_is_context:is_root ~sat eval_root
      in
      let fs = Flat_pass.sel_run plan fl ~init ~is_root ~qual:(Some fq) in
      (* The flat kernel names nodes by slot (-1: the wrapper, id -1). *)
      let slot_ids = List.map (Flat_pass.node_id fl) in
      let slot_cands = List.map (fun (i, f) -> (Flat_pass.node_id fl i, f)) in
      check fid "sel ops" (sp.Sel_pass.ops = fs.Flat_pass.ops);
      check fid "sel answers"
        (ids sp.Sel_pass.answers = slot_ids fs.Flat_pass.answers);
      check fid "sel candidates"
        (cands sp.Sel_pass.candidates = slot_cands fs.Flat_pass.candidates);
      check fid "sel contexts" (sp.Sel_pass.contexts = fs.Flat_pass.contexts))
    (Fragment.top_down ft);
  true

let prop_kernel_parity =
  QCheck.Test.make ~name:"flat = pointer per fragment" ~count:(count 300)
    H.Gen.arbitrary_scenario kernel_parity

(* ------------------------------------------------------------------ *)
(* evalFT                                                               *)
(* ------------------------------------------------------------------ *)

let test_resolve_quals_chain () =
  (* A three-fragment chain: F0 <- F1 <- F2; F1's root vector refers to
     F2's entries, F0's to F1's. *)
  let c = H.Data.clientele () in
  let ft = H.Data.clientele_ftree c in
  let n = Fragment.n_fragments ft in
  (* Hand-made vectors of width 2:
     entry 0: true at leaves, passed through by parents via Var;
     entry 1: conjunction of child's entries. *)
  let vec_of fid =
    let children = ft.Fragment.children.(fid) in
    match children with
    | [] -> Some [| Formula.true_; Formula.false_ |]
    | k :: _ ->
        Some
          [|
            Formula.var (Var.Qual (k, 0));
            Formula.conj
              (Formula.var (Var.Qual (k, 0)))
              (Formula.not_ (Formula.var (Var.Qual (k, 1))));
          |]
  in
  let resolved = Eval_ft.resolve_quals ft ~root_vecs:vec_of in
  Alcotest.(check int) "all fragments resolved" n (Array.length resolved);
  (* Leaves: [true; false].  Parents: entry0 = child entry0 = true;
     entry1 = child0 && not child1 = true && not _ . *)
  Array.iteri
    (fun fid vec ->
      if ft.Fragment.children.(fid) <> [] then begin
        Alcotest.(check bool) (Printf.sprintf "F%d entry0" fid) true vec.(0);
        let k = List.hd ft.Fragment.children.(fid) in
        let expected = resolved.(k).(0) && not resolved.(k).(1) in
        Alcotest.(check bool) (Printf.sprintf "F%d entry1" fid) expected vec.(1)
      end)
    resolved

let test_resolve_contexts_chain () =
  let c = H.Data.clientele () in
  let ft = H.Data.clientele_ftree c in
  (* ctx of every fragment = [not parent's entry0; parent's entry0]. *)
  let ctx_of fid =
    let f = Fragment.fragment ft fid in
    match f.Fragment.parent with
    | None -> None
    | Some p ->
        Some
          [|
            Formula.not_ (Formula.var (Var.Sel_ctx (p, 0)));
            Formula.var (Var.Sel_ctx (p, 0));
          |]
  in
  let resolved =
    Eval_ft.resolve_contexts ft ~root_ctx:[| true; false |] ~ctx_of
      ~qual_lookup:(fun _ -> None)
  in
  Alcotest.(check bool) "root kept" true resolved.(0).(0);
  Array.iteri
    (fun fid vec ->
      match (Fragment.fragment ft fid).Fragment.parent with
      | Some p ->
          Alcotest.(check bool)
            (Printf.sprintf "F%d entry0 = not parent0" fid)
            (not resolved.(p).(0))
            vec.(0)
      | None -> ())
    resolved

let test_pruned_fragments_read_false () =
  let c = H.Data.clientele () in
  let ft = H.Data.clientele_ftree c in
  (* Every non-root fragment pruned: parents' variables default to
     false rather than crashing. *)
  let vec_of fid =
    if fid <> 0 then None
    else
      Some
        [| Formula.or_ (List.map (fun k -> Formula.var (Var.Qual (k, 0)))
                          ft.Fragment.children.(0)) |]
  in
  let resolved = Eval_ft.resolve_quals ft ~root_vecs:vec_of in
  Alcotest.(check bool) "or of pruned variables is false" false resolved.(0).(0)

let () =
  Alcotest.run "passes"
    [
      ( "qual-pass",
        [
          Alcotest.test_case "matches holds (clientele)" `Quick
            test_qual_pass_oracle;
          QCheck_alcotest.to_alcotest prop_qual_pass_random;
        ] );
      ( "sel-pass",
        [
          Alcotest.test_case "contexts per virtual node" `Quick
            test_contexts_per_virtual_node;
          Alcotest.test_case "symbolic init makes candidates" `Quick
            test_symbolic_init_creates_candidates;
        ] );
      ("flat-kernels", [ QCheck_alcotest.to_alcotest prop_kernel_parity ]);
      ( "evalFT",
        [
          Alcotest.test_case "qualifier chain" `Quick test_resolve_quals_chain;
          Alcotest.test_case "context chain" `Quick test_resolve_contexts_chain;
          Alcotest.test_case "pruned defaults" `Quick
            test_pruned_fragments_read_false;
        ] );
    ]
