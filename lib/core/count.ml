module Fragment = Pax_frag.Fragment
module Cluster = Pax_dist.Cluster

let spf = Printf.sprintf

(* PaX2's stages, with counts in place of elements: a per-fragment
   certain count travels with the stage-1 response, and each site's
   candidate resolutions return one integer. *)
let run ?annotations (cl : Cluster.t) q : int * Cluster.report =
  Cluster.reset ~handler:(Site.handler (Site.states cl q)) cl;
  let r = Pax2.prepare ?annotations cl q in
  let fids = Fragment.top_down (Cluster.ftree cl) in
  let count_up ~site label =
    Cluster.send cl ~src:(Site site) ~dst:Coordinator ~kind:Vectors ~bytes:8
      ~label
  in
  let stage1_sites =
    Cluster.sites_holding cl (List.filter (Pax2.relevant r) fids)
  in
  ignore
    (Cluster.run_round cl ~label:"stage1" ~sites:stage1_sites (Pax2.stage1 r));
  (* The certain count: one varint, not the elements. *)
  Pax2.send_stage1 r stage1_sites ~up:(fun ~site fid ->
      count_up ~site (spf "count(F%d)" fid));
  Cluster.coord cl ~label:"evalFT:quals" (fun () -> Pax2.unify_quals r);
  Cluster.coord cl ~label:"evalFT:contexts" (fun () -> Pax2.unify_contexts r);
  let stage2_sites =
    Cluster.sites_holding cl (List.filter (Pax2.has_candidates r) fids)
  in
  let stage2_answers =
    Cluster.run_round cl ~label:"stage2" ~sites:stage2_sites (Pax2.stage2 r)
  in
  Pax2.send_resolutions r stage2_sites;
  List.iter (fun site -> count_up ~site "count") stage2_sites;
  let total =
    List.fold_left
      (fun acc (_, answers) -> acc + List.length answers)
      (List.length (Pax2.certain_answers r))
      stage2_answers
  in
  (total, Cluster.report cl)
