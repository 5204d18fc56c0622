module Tree = Pax_xml.Tree
module Query = Pax_xpath.Query
module Fragment = Pax_frag.Fragment
module Cluster = Pax_dist.Cluster
module Wire = Pax_wire.Wire

type t = {
  results : (Query.t * Tree.node list) list;
  report : Cluster.report;
}

let run ?annotations (cl : Cluster.t) (queries : Query.t list) : t =
  Cluster.reset ~handler:(Site.handler (fun () -> Site.batch cl queries)) cl;
  let fids = Fragment.top_down (Cluster.ftree cl) in
  let runs =
    List.map (Stages.prepare ?annotations Stages.Two_stage cl) queries
  in
  (* Each round visits a site once, for every query: one [Calls] call
     carries a PaX2 stage call per query, and the site answers each
     against that query's state. *)
  let shared_round ~label ~needed stage =
    let sites =
      Cluster.sites_holding cl
        (List.filter (fun fid -> List.exists (fun r -> needed r fid) runs) fids)
    in
    let rms = List.map stage runs in
    Cluster.run_round cl ~label ~sites
      {
        Cluster.build =
          (fun site ->
            Wire.Calls (List.map (fun rm -> rm.Cluster.build site) rms));
        parse =
          (fun site reply ->
            match reply with
            | Wire.Replies replies when List.compare_lengths replies rms = 0 ->
                List.map2 (fun rm reply -> rm.Cluster.parse site reply) rms
                  replies
            | _ -> invalid_arg "Batch: unexpected reply");
      }
  in
  ignore
    (shared_round ~label:"stage1" ~needed:Stages.selects (fun r ->
         Stages.select r));
  Cluster.coord cl ~label:"evalFT" (fun () ->
      List.iter
        (fun r ->
          Stages.unify_quals r;
          Stages.unify_contexts r)
        runs);
  let late =
    shared_round ~label:"stage2" ~needed:Stages.has_candidates Stages.resolve
  in
  let results =
    List.mapi
      (fun qi (q, r) ->
        let late =
          List.map (fun (site, per_q) -> (site, List.nth per_q qi)) late
        in
        let all =
          List.sort_uniq
            (fun (a : Tree.node) (b : Tree.node) -> compare a.Tree.id b.Tree.id)
            (Stages.certain_answers r @ List.concat_map snd late)
        in
        (q, all))
      (List.combine queries runs)
  in
  { results; report = Cluster.report cl }
