module Fragment = Pax_frag.Fragment
module Cluster = Pax_dist.Cluster
module Wire = Pax_wire.Wire

(* A PaX2 stage with counts in place of elements: the site answers the
   wrapped call with every answer list emptied and its length beside
   it, so only the counts travel. *)
let counted (rm : 'a Cluster.remote) : (int * 'a) Cluster.remote =
  {
    Cluster.build = (fun site -> Wire.Count (rm.Cluster.build site));
    parse =
      (fun site reply ->
        match reply with
        | Wire.Counted { reply; counts } ->
            (List.fold_left ( + ) 0 counts, rm.Cluster.parse site reply)
        | _ -> invalid_arg "Count: unexpected reply");
  }

let run ?annotations (cl : Cluster.t) q : int * Cluster.report =
  Cluster.reset ~handler:(Site.handler (Site.states cl q)) cl;
  let r = Pax2.prepare ?annotations cl q in
  let fids = Fragment.top_down (Cluster.ftree cl) in
  let total results =
    List.fold_left (fun acc (_, (n, _)) -> acc + n) 0 results
  in
  let stage1_sites =
    Cluster.sites_holding cl (List.filter (Pax2.relevant r) fids)
  in
  let certain =
    Cluster.run_round cl ~label:"stage1" ~sites:stage1_sites
      (counted (Pax2.stage1 r))
  in
  Cluster.coord cl ~label:"evalFT:quals" (fun () -> Pax2.unify_quals r);
  Cluster.coord cl ~label:"evalFT:contexts" (fun () -> Pax2.unify_contexts r);
  let stage2_sites =
    Cluster.sites_holding cl (List.filter (Pax2.has_candidates r) fids)
  in
  let late =
    Cluster.run_round cl ~label:"stage2" ~sites:stage2_sites
      (counted (Pax2.stage2 r))
  in
  (total certain + total late, Cluster.report cl)
