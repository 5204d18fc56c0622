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
  Cluster.reset ~handler:(Site.handler (fun () -> Site.states cl q)) cl;
  let r = Stages.prepare ?annotations Stages.Two_stage cl q in
  let total results =
    List.fold_left (fun acc (_, (n, _)) -> acc + n) 0 results
  in
  let certain =
    Stages.round r ~label:"stage1" ~needed:(Stages.selects r)
      (counted (Stages.select r))
  in
  Cluster.coord cl ~label:"evalFT:quals" (fun () -> Stages.unify_quals r);
  Cluster.coord cl ~label:"evalFT:contexts" (fun () -> Stages.unify_contexts r);
  let late =
    Stages.round r ~label:"stage2" ~needed:(Stages.has_candidates r)
      (counted (Stages.resolve r))
  in
  (total certain + total late, Cluster.report cl)
