module Query = Pax_xpath.Query
module Compile = Pax_xpath.Compile
module Cluster = Pax_dist.Cluster

let run ?annotations (cl : Cluster.t) (q : Query.t) : Run_result.t =
  Cluster.reset ~handler:(Site.handler (fun () -> Site.states cl q)) cl;
  let r = Stages.prepare ?annotations Stages.Three_stage cl q in
  (* ---------------- Stage 1: qualifiers, all sites ---------------- *)
  if not (Compile.no_qualifiers q.Query.compiled) then begin
    ignore
      (Stages.round r ~label:"stage1" ~needed:(fun _ -> true)
         (Stages.qualify r));
    Cluster.coord cl ~label:"evalFT:quals" (fun () -> Stages.unify_quals r)
  end;
  (* ---------------- Stage 2: selection, relevant sites ------------- *)
  ignore
    (Stages.round r ~label:"stage2" ~needed:(Stages.selects r)
       (Stages.select r));
  Cluster.coord cl ~label:"evalFT:contexts" (fun () -> Stages.unify_contexts r);
  (* ---------------- Stage 3: resolve candidates -------------------- *)
  let late =
    Stages.round r ~label:"stage3" ~needed:(Stages.has_candidates r)
      (Stages.resolve r)
  in
  let answers = Stages.certain_answers r @ List.concat_map snd late in
  Run_result.make ~trace:(Cluster.trace cl) ~query:q ~answers
    ~report:(Cluster.report cl) ()
