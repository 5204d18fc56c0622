module Tree = Pax_xml.Tree
module Query = Pax_xpath.Query
module Fragment = Pax_frag.Fragment
module Cluster = Pax_dist.Cluster

type t = {
  results : (Query.t * Tree.node list) list;
  report : Cluster.report;
}

let run ?annotations (cl : Cluster.t) (queries : Query.t list) : t =
  Cluster.reset cl;
  let fids = Fragment.top_down (Cluster.ftree cl) in
  let runs = List.map (Pax2.prepare ?annotations cl) queries in
  (* Each round visits a site once, for every query: the site runs one
     PaX2 stage call per query, each against that query's state. *)
  let shared_round ~label ~round ~needed stage =
    let sites =
      Cluster.sites_holding cl
        (List.filter (fun fid -> List.exists (fun r -> needed r fid) runs) fids)
    in
    let rms = List.map (fun r -> (r, stage r)) runs in
    let results =
      Cluster.run_round cl ~label ~sites (fun site ->
          List.map (fun (r, rm) -> Pax2.visit r ~round rm site) rms)
    in
    (sites, results)
  in
  let sites1, _ =
    shared_round ~label:"stage1" ~round:0 ~needed:Pax2.relevant (fun r ->
        Pax2.stage1 r)
  in
  List.iter (fun r -> Pax2.send_stage1 r sites1) runs;
  Cluster.coord cl ~label:"evalFT" (fun () ->
      List.iter
        (fun r ->
          Pax2.unify_quals r;
          Pax2.unify_contexts r)
        runs);
  let sites2, late =
    shared_round ~label:"stage2" ~round:1 ~needed:Pax2.has_candidates
      Pax2.stage2
  in
  let results =
    List.mapi
      (fun qi (q, r) ->
        let late =
          List.map (fun (site, per_q) -> (site, List.nth per_q qi)) late
        in
        Pax2.send_resolutions r sites2;
        Pax2.ship_answers r late;
        let all =
          List.sort_uniq
            (fun (a : Tree.node) (b : Tree.node) -> compare a.Tree.id b.Tree.id)
            (Pax2.certain_answers r @ List.concat_map snd late)
        in
        (q, all))
      (List.combine queries runs)
  in
  { results; report = Cluster.report cl }
