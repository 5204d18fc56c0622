module Ast = Pax_xpath.Ast
module Query = Pax_xpath.Query
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
        (* The filter at slot 0 of the root fragment's image, reading
           the unified root vector. *)
        let ft = Cluster.ftree cl in
        let plan = Flat_pass.make_plan compiled (Fragment.intern ft) in
        let root_vec = Array.map Formula.bool (Stages.root_quals r) in
        let filter =
          match Flat_pass.sel_items plan with
          | [| Flat_pass.FFilter f |] -> f
          | _ -> invalid_arg "ParBoX: not a Boolean query"
        in
        let src = Flat_pass.image_source (Fragment.flat ft 0) in
        let entry _ e = root_vec.(e) in
        match Formula.to_bool (Flat_pass.fsat src 0 entry filter) with
        | Some b -> b
        | None -> invalid_arg "ParBoX: unresolved answer")
  in
  (answer, Cluster.report cl)

let eval_string cl s = eval cl (Pax_xpath.Parse.qual s)
