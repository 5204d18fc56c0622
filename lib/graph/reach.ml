module Cluster = Pax_dist.Cluster
module Trace = Pax_dist.Trace
module Wire = Pax_wire.Wire
module Formula = Pax_bool.Formula
module Var = Pax_bool.Var
module Audit = Pax_obs.Audit
module Pe = Pax_engine.Pe

type query = { rq_src : int; rq_dst : int; rq_source : string }

let parse g text =
  match Gfrag.parse_query text with
  | None -> Error (Printf.sprintf "not a reachability query: %S" text)
  | Some (src, dst) ->
      if src >= g.Gfrag.n_nodes || dst >= g.Gfrag.n_nodes then
        Error
          (Printf.sprintf "node out of range (graph has %d nodes)"
             g.Gfrag.n_nodes)
      else Ok { rq_src = src; rq_dst = dst; rq_source = Gfrag.query_string ~src ~dst }

let stage1_reply frag_of ~query fids =
  match Gfrag.parse_query query with
  | None -> failwith (Printf.sprintf "not a reachability query: %S" query)
  | Some (src, dst) ->
      Wire.Frag_results
        (List.map
           (fun fid ->
             let vec, ops = Gfrag.local_eval (frag_of fid) ~src ~dst in
             {
               Wire.fr_fid = fid;
               fr_vec = Some vec;
               fr_ctxs = [];
               fr_answers = [];
               fr_cands = 0;
               fr_ops = ops;
             })
           fids)

let handler g _site ~round:_ = function
  | Wire.Reach_stage1 { query; fids } ->
      stage1_reply (Gfrag.fragment g) ~query fids
  | _ -> invalid_arg "Reach.handler: not a reachability call"

let eval g cl q =
  Cluster.reset ~handler:(handler g) cl;
  let n_frags = Gfrag.n_fragments g in
  let fids = List.init n_frags Fun.id in
  let sites = Cluster.sites_holding cl fids in
  let fvecs = Array.make n_frags [||] in
  let remote =
    {
      Cluster.build =
        (fun site ->
          Wire.Reach_stage1
            { query = q.rq_source; fids = Cluster.fragments_on cl site });
      parse =
        (fun site reply ->
          match reply with
          | Wire.Frag_results frs ->
              List.iter
                (fun fr ->
                  match fr.Wire.fr_vec with
                  | Some vec ->
                      fvecs.(fr.Wire.fr_fid) <- vec;
                      Cluster.add_ops cl ~site fr.Wire.fr_ops
                  | None -> failwith "reach: reply without residual vector")
                frs
          | _ -> failwith "reach: unexpected reply kind");
    }
  in
  ignore (Cluster.run_round cl ~label:"reach:stage1" ~sites remote);
  (* Accounted traffic, coordinator-side as in pax3: the query down to
     each visited site, one residual vector up per fragment. *)
  List.iter
    (fun site ->
      Cluster.send cl ~src:Cluster.Coordinator ~dst:(Cluster.Site site)
        ~kind:Cluster.Query
        ~bytes:(Wire.query_section_bytes q.rq_source)
        ~label:"reach:query")
    sites;
  List.iter
    (fun fid ->
      Cluster.send cl ~src:(Cluster.Site (Cluster.site_of cl fid))
        ~dst:Cluster.Coordinator ~kind:Cluster.Vectors
        ~bytes:(Wire.vectors_section_bytes fvecs.(fid))
        ~label:"reach:vectors")
    fids;
  let answer =
    Cluster.coord cl ~label:"reach:fixpoint" (fun () ->
        (* Global index over vector slots: entries first, then the
           source's trailing slot when it has one. *)
        let offsets = Array.make n_frags 0 in
        let total = ref 0 in
        for fid = 0 to n_frags - 1 do
          offsets.(fid) <- !total;
          total := !total + Array.length fvecs.(fid)
        done;
        let b = !total in
        let idx fid slot = offsets.(fid) + slot in
        let value = Array.make (max b 1) false in
        let rev = Array.make (max b 1) [] in
        let ops = ref 0 in
        Array.iteri
          (fun fid vec ->
            Array.iteri
              (fun slot f ->
                incr ops;
                match Formula.to_bool f with
                | Some bv -> if bv then value.(idx fid slot) <- true
                | None ->
                    List.iter
                      (function
                        | Var.Qual (ofid, oslot) ->
                            incr ops;
                            rev.(idx ofid oslot) <-
                              idx fid slot :: rev.(idx ofid oslot)
                        | _ -> failwith "reach: unexpected variable kind")
                      (Formula.vars f))
              vec)
          fvecs;
        (* Residuals are pure disjunctions of entry variables, so the
           least fixpoint is plain reachability on the dependency
           graph: seed with the ground-true slots and flood. *)
        let wl = Queue.create () in
        for i = 0 to b - 1 do
          if value.(i) then Queue.add i wl
        done;
        while not (Queue.is_empty wl) do
          let j = Queue.pop wl in
          List.iter
            (fun i ->
              incr ops;
              if not value.(i) then begin
                value.(i) <- true;
                Queue.add i wl
              end)
            rev.(j)
        done;
        Cluster.add_ops cl ~site:(-1) !ops;
        let sfid = Gfrag.owner_of g q.rq_src in
        let sslot = Gfrag.src_slot (Gfrag.fragment g sfid) ~src:q.rq_src in
        value.(idx sfid sslot))
  in
  (answer, Cluster.report cl)

let audit g cl report =
  let tr = Cluster.trace cl in
  let bf = float_of_int (g.Gfrag.n_entries + 1) in
  let vf = float_of_int g.Gfrag.n_nodes and ef = float_of_int g.Gfrag.n_edges in
  let ff = float_of_int (Gfrag.n_fragments g) in
  let visits =
    Audit.bound ~name:"visits" ~formula:"max visits(site) <= 1"
      ~actual:(float_of_int (Trace.max_logical_visits tr))
      ~limit:1.
  in
  let c_comm = Audit.default_c_comm in
  let comm =
    Audit.bound ~name:"comm"
      ~formula:
        (Printf.sprintf "%g * (|Vf|+1) * (|Vf|+|F|+1) = %g * %g * %g" c_comm
           c_comm bf (bf +. ff +. 1.))
      ~actual:(float_of_int (Trace.logical_control_bytes tr))
      ~limit:(c_comm *. bf *. (bf +. ff +. 1.))
  in
  let c_comp = Audit.default_c_comp in
  let comp =
    Audit.bound ~name:"comp"
      ~formula:
        (Printf.sprintf "%g * (|Vf|+1) * (|V|+|E|+|Vf|+1) = %g * %g * %g"
           c_comp c_comp bf
           (vf +. ef +. bf +. 1.))
      ~actual:(float_of_int report.Cluster.total_ops)
      ~limit:(c_comp *. bf *. (vf +. ef +. bf +. 1.))
  in
  Audit.of_bounds [ visits; comm; comp ]

let engine g ~n_sites ~assign : Pe.packed =
  (module struct
    type nonrec query = query

    let name = "reach"
    let parse text = parse g text

    let make_cluster ?domains ?transport () =
      Cluster.create_abstract ?domains ?transport
        ~n_frags:(Gfrag.n_fragments g) ~n_sites ~assign ()

    let run cl q =
      let answer, report = eval g cl q in
      {
        Pe.engine = name;
        query = q.rq_source;
        answer_keys = (if answer then [| 1 |] else [||]);
        report;
        audit = audit g cl report;
      }
  end)
