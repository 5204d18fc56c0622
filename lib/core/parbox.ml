module Ast = Pax_xpath.Ast
module Query = Pax_xpath.Query
module Compile = Pax_xpath.Compile
module Formula = Pax_bool.Formula
module Fragment = Pax_frag.Fragment
module Cluster = Pax_dist.Cluster

let eval (cl : Cluster.t) (qual : Ast.qual) : bool * Cluster.report =
  (* A Boolean query is the data-selecting query ε[q] at the root.  It
     is relative, so the root fragment's eval root is never wrapped, and
     a site server reparses its source to the same compiled query. *)
  let q =
    Query.of_ast { Ast.absolute = false; path = Ast.Qualified (Ast.Empty, qual) }
  in
  let compiled = q.Query.compiled in
  Cluster.reset ~handler:(Site.handler (fun () -> Site.states cl q)) cl;
  let r = Stages.prepare Stages.Three_stage cl q in
  (* PaX3's stage 1: the qualifier pass over every fragment. *)
  ignore
    (Stages.round r ~label:"parbox" ~needed:(fun _ -> true) (Stages.qualify r));
  let answer =
    Cluster.coord cl ~label:"evalFT" (fun () ->
        Stages.unify_quals r;
        let root = (Fragment.root_fragment (Cluster.ftree cl)).Fragment.root in
        let root_vec = Array.map Formula.bool (Stages.root_quals r) in
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
