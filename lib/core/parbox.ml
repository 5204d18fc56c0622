module Tree = Pax_xml.Tree
module Ast = Pax_xpath.Ast
module Query = Pax_xpath.Query
module Compile = Pax_xpath.Compile
module Formula = Pax_bool.Formula
module Fragment = Pax_frag.Fragment
module Cluster = Pax_dist.Cluster
module Wire = Pax_wire.Wire

let eval (cl : Cluster.t) (qual : Ast.qual) : bool * Cluster.report =
  let ft = Cluster.ftree cl in
  let n_frag = Fragment.n_fragments ft in
  (* A Boolean query is the data-selecting query ε[q] at the root.  It
     is relative, so the root fragment's eval root is never wrapped, and
     a site server reparses its source to the same compiled query. *)
  let q =
    Query.of_ast { Ast.absolute = false; path = Ast.Qualified (Ast.Empty, qual) }
  in
  let compiled = q.Query.compiled in
  Cluster.reset ~handler:(Site.handler (Site.states cl q)) cl;
  let root_vecs : Formula.t array option array = Array.make n_frag None in
  let sites = Cluster.sites_holding cl (Fragment.top_down ft) in
  (* PaX3's stage 1: the qualifier pass over every fragment. *)
  ignore
    (Cluster.run_round cl ~label:"parbox" ~sites
       {
         Cluster.build =
           (fun site ->
             Wire.Pax3_stage1
               { query = q.Query.source; fids = Cluster.fragments_on cl site });
         parse =
           (fun site reply ->
             match reply with
             | Wire.Frag_results frs ->
                 List.iter
                   (fun (fr : Wire.frag_result) ->
                     root_vecs.(fr.Wire.fr_fid) <- fr.Wire.fr_vec;
                     Cluster.add_ops cl ~site fr.Wire.fr_ops)
                   frs
             | _ -> invalid_arg "ParBoX: unexpected reply");
       });
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
