module Fragment = Pax_frag.Fragment
module Cluster = Pax_dist.Cluster
module Wire = Pax_wire.Wire

let run (cl : Cluster.t) (q : Pax_xpath.Query.t) : Run_result.t =
  Cluster.reset ~handler:(Site.handler (fun () -> Site.states cl q)) cl;
  let ft = Cluster.ftree cl in
  let fids = Fragment.top_down ft in
  (* Every remote site ships its fragments; the root fragment is already
     at the query site. *)
  let remote = List.filter (fun fid -> fid <> 0) fids in
  let sites = Cluster.sites_holding cl remote in
  let shipped =
    Cluster.run_round cl ~label:"ship" ~sites
      {
        Cluster.build =
          (fun site ->
            let fids = Cluster.fragments_on cl site in
            Wire.Ship { fids = List.filter (fun fid -> fid <> 0) fids });
        parse =
          (fun _ reply ->
            match reply with
            | Wire.Images images -> List.map fst images
            | _ -> invalid_arg "Naive: unexpected reply");
      }
  in
  (* Accounted as the fragments' printed XML, whatever encoding the
     transport used. *)
  List.iter
    (fun (site, fids) ->
      List.iter
        (fun fid ->
          Cluster.send cl ~src:(Site site) ~dst:Coordinator ~kind:Tree_data
            ~bytes:(Fragment.fragment_byte_size (Fragment.fragment ft fid))
            ~label:(Printf.sprintf "F%d" fid))
        fids)
    shipped;
  let result =
    Cluster.coord cl ~label:"reassemble+evaluate" (fun () ->
        let tree = Fragment.reassemble ft in
        let r = Centralized.run q tree in
        Cluster.add_ops cl ~site:(-1) (r.Centralized.qual_ops + r.Centralized.sel_ops);
        r)
  in
  Run_result.make ~trace:(Cluster.trace cl) ~query:q
    ~answers:result.Centralized.answers
    ~report:(Cluster.report cl) ()
