module Query = Pax_xpath.Query
module Cluster = Pax_dist.Cluster
module Wire = Pax_wire.Wire

let spf = Printf.sprintf

let run ?(annotations = false) (cl : Cluster.t) (q : Query.t) : Run_result.t =
  Cluster.reset ~handler:(Site.handler (fun () -> Site.states cl q)) cl;
  let r = Stages.prepare ~annotations Stages.Two_stage cl q in
  (* Cross-query cache (socket path only, and only when a serving layer
     installed one: with [Stage_cache.noop] no key is built and nothing
     is looked up or stored).  A hit prefills the stage-1 view and
     elides the fragment from the round — no visit, no vector/answer
     traffic, no site ops, exactly as if the wire reply from the run
     that warmed the cache were replayed.  Only fully-resolved results
     (fr_cands = 0) are cached: a fragment retaining candidates has
     site-side state stage 2 must revisit. *)
  let cache = Cluster.stage_cache cl in
  let use_cache =
    Cluster.transport_active cl && cache != Pax_dist.Stage_cache.noop
  in
  let qkey =
    if use_cache then
      spf "%s|annot=%b" (Pax_xpath.Normal.to_string q.Query.normal) annotations
    else ""
  in
  if use_cache then
    List.iter
      (fun fid ->
        if Stages.selects r fid then
          match cache.Pax_dist.Stage_cache.lookup ~qkey ~fid with
          | Some fr when fr.Wire.fr_cands = 0 && fr.Wire.fr_fid = fid ->
              Stages.prefill r fr
          | Some _ | None -> ())
      (Pax_frag.Fragment.top_down (Cluster.ftree cl));
  let store (fr : Wire.frag_result) =
    if use_cache && fr.Wire.fr_cands = 0 then
      cache.Pax_dist.Stage_cache.store ~qkey ~fid:fr.Wire.fr_fid fr
  in

  (* ---------------- Stage 1: combined pass, relevant sites --------- *)
  ignore
    (Stages.round r ~label:"stage1" ~needed:(Stages.selects r)
       (Stages.select ~store r));
  Cluster.coord cl ~label:"evalFT:quals" (fun () -> Stages.unify_quals r);
  Cluster.coord cl ~label:"evalFT:contexts" (fun () -> Stages.unify_contexts r);

  (* ---------------- Stage 2: resolve candidates -------------------- *)
  let late =
    Stages.round r ~label:"stage2" ~needed:(Stages.has_candidates r)
      (Stages.resolve r)
  in
  let answers = Stages.certain_answers r @ List.concat_map snd late in
  Run_result.make ~trace:(Cluster.trace cl) ~query:q ~answers
    ~report:(Cluster.report cl) ()
