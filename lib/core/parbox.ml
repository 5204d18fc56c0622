module Tree = Pax_xml.Tree
module Ast = Pax_xpath.Ast
module Query = Pax_xpath.Query
module Compile = Pax_xpath.Compile
module Formula = Pax_bool.Formula
module Fragment = Pax_frag.Fragment
module Cluster = Pax_dist.Cluster
module Measure = Pax_dist.Measure

let eval (cl : Cluster.t) (qual : Ast.qual) : bool * Cluster.report =
  Cluster.reset cl;
  let ft = Cluster.ftree cl in
  let n_frag = Fragment.n_fragments ft in
  (* A Boolean query is the data-selecting query ε[q] at the root. *)
  let q =
    Query.of_ast { Ast.absolute = false; path = Ast.Qualified (Ast.Empty, qual) }
  in
  let compiled = q.Query.compiled in
  (* Built before the round: pool domains only read it. *)
  let plan = Flat_pass.make_plan compiled (Fragment.intern ft) in
  let root_vecs : Formula.t array option array = Array.make n_frag None in
  let sites = Cluster.sites_holding cl (Fragment.top_down ft) in
  (* Keyed by fid: a replayed visit under a fault plan neither
     recomputes nor double-counts. *)
  ignore
    (Cluster.run_round cl ~label:"parbox" ~sites (fun site ->
         List.iter
           (fun fid ->
             if Option.is_none root_vecs.(fid) then begin
               (* The query is relative, so the root fragment's eval
                  root is never wrapped. *)
               let fq =
                 Flat_pass.qual_run plan (Fragment.flat ft fid) ~is_root:false
               in
               root_vecs.(fid) <- Some fq.Flat_pass.q_root_vec;
               Cluster.add_ops cl ~site fq.Flat_pass.q_ops
             end)
           (Cluster.fragments_on cl site)));
  List.iter
    (fun site ->
      Cluster.send cl ~src:Coordinator ~dst:(Site site) ~kind:Query
        ~bytes:(Measure.query q) ~label:"QVect(Q)";
      List.iter
        (fun fid ->
          match root_vecs.(fid) with
          | Some vec ->
              Cluster.send cl ~src:(Site site) ~dst:Coordinator ~kind:Vectors
                ~bytes:(Measure.formula_array vec)
                ~label:(Printf.sprintf "QV(F%d)" fid)
          | None -> ())
        (Cluster.fragments_on cl site))
    sites;
  let answer =
    Cluster.coord cl ~label:"evalFT" (fun () ->
        Cluster.add_ops cl ~site:(-1) (n_frag * compiled.Compile.n_qual);
        let resolved =
          Eval_ft.resolve_quals ft ~root_vecs:(fun fid -> root_vecs.(fid))
        in
        let root = (Fragment.root_fragment ft).Fragment.root in
        let root_vec = Array.map Formula.bool resolved.(0) in
        let filter =
          match compiled.Compile.sel with
          | [| Compile.Filter f |] -> f
          | _ -> invalid_arg "ParBoX: not a Boolean query"
        in
        match Formula.to_bool (Qual_pass.sat compiled root_vec root filter) with
        | Some b -> b
        | None -> invalid_arg "ParBoX: unresolved answer")
  in
  (answer, Cluster.report cl)

let eval_string cl s = eval cl (Pax_xpath.Parse.qual s)
