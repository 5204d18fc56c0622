(* The second differential oracle (docs/ENGINES.md): on random
   fragmented digraphs, random src/dst and random placements, the
   distributed reachability engine agrees with the centralized BFS
   reference —

   - in-process on a clean network,
   - in-process under seeded fault plans crossed with a per-visit
     service delay (an axis the XPath oracle also covers), where the
     engine must either return the BFS answer or fail with the typed
     [Cluster.Site_unreachable],
   - and over real forked socket servers under the same seeded fault
     plans ([Cluster.set_fault] drives socket rounds too) and sometimes
     a real service delay, where the reply memo must make resends
     bit-identical and the typed failure stays legal.

   Every successful run's guarantee audit (one visit per site,
   O(|Vf|²) communication) must pass.  Default counts keep `dune
   runtest` fast; `dune build @slow` reruns at PAX_QCHECK_COUNT=2000,
   which drives >=500 random socket schedules. *)

module Gfrag = Pax_graph.Gfrag
module Bfs = Pax_graph.Bfs
module Reach = Pax_graph.Reach
module Cluster = Pax_dist.Cluster
module Fault = Pax_dist.Fault
module Sockio = Pax_net.Sockio
module Server = Pax_net.Server
module Client = Pax_net.Client
module H = Test_helpers
module G = QCheck.Gen

let count n =
  match Sys.getenv_opt "PAX_QCHECK_COUNT" with
  | Some s -> (try int_of_string s with _ -> n)
  | None -> n

(* Socket scenarios fork one server per site; a quarter of the sweep
   count keeps @slow within budget while still exceeding 500 schedules
   at PAX_QCHECK_COUNT=2000. *)
let socket_count n =
  match Sys.getenv_opt "PAX_QCHECK_COUNT" with
  | Some s -> (try max 1 (int_of_string s / 4) with _ -> n)
  | None -> n

let arbitrary_faulty =
  QCheck.make
    ~print:(fun (g, seed) ->
      Printf.sprintf "seed %d\n%s" seed (H.Gen.print_gscenario g))
    G.(pair H.Gen.gscenario (int_bound 1_000_000))

let partition_of (gs : H.Gen.gscenario) =
  Gfrag.partition ~n:gs.H.Gen.g_n ~edges:gs.H.Gen.g_edges
    ~owner:gs.H.Gen.g_owner

let expected (gs : H.Gen.gscenario) =
  Bfs.reach ~n:gs.H.Gen.g_n ~edges:gs.H.Gen.g_edges ~src:gs.H.Gen.g_src
    ~dst:gs.H.Gen.g_dst

let query_of g (gs : H.Gen.gscenario) =
  match
    Reach.parse g
      (Gfrag.query_string ~src:gs.H.Gen.g_src ~dst:gs.H.Gen.g_dst)
  with
  | Ok q -> q
  | Error e -> QCheck.Test.fail_reportf "parse: %s" e

let check_run ~what ~gs ~g ~cl ~got ~report =
  let want = expected gs in
  if got <> want then
    QCheck.Test.fail_reportf "%s: reach %d %d: distributed %b, BFS %b" what
      gs.H.Gen.g_src gs.H.Gen.g_dst got want
  else begin
    let a = Reach.audit g cl report in
    a.Pax_obs.Audit.pass
    || QCheck.Test.fail_reportf "%s: audit failed on a correct answer" what
  end

(* ---------------- in-process, faults x service delay ---------------- *)

let plan seed =
  Fault.seeded ~drop:0.12 ~dup:0.08 ~delay:0.05 ~lose:0.1 ~crash:0.15 ~seed ()

let faulted ((gs : H.Gen.gscenario), seed) =
  let g = partition_of gs in
  let cl =
    Cluster.create_abstract ~n_frags:gs.H.Gen.g_n_frags
      ~n_sites:gs.H.Gen.g_n_sites
      ~assign:(fun fid -> gs.H.Gen.g_assign.(fid))
      ()
  in
  Cluster.set_fault cl (plan seed);
  (* Half the schedules also charge a per-visit service delay — the
     axis must compose with fault plans (it changes timing accounting,
     never answers). *)
  let delay = if seed mod 2 = 0 then 0.001 else 0. in
  Cluster.set_service_delay cl delay;
  let q = query_of g gs in
  Cluster.reset cl;
  match Reach.eval g cl q with
  | got, report ->
      check_run ~what:"faulted" ~gs ~g ~cl ~got ~report
      &&
      let visits = Array.fold_left ( + ) 0 report.Cluster.visits in
      report.Cluster.total_seconds >= (delay *. float_of_int visits)
      || QCheck.Test.fail_reportf
           "service delay unaccounted: %d visits x %.3fs but total %.6fs"
           visits delay report.Cluster.total_seconds
  | exception Cluster.Site_unreachable _ -> true

(* ---------------- sockets, faults x service delay ------------------- *)

(* Fork one server per site holding that site's graph fragments, run
   the engine over the socket transport, tear everything down. *)
let with_graph_servers (gs : H.Gen.gscenario) g ~service_delay f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pax_reach_test_%d_%d" (Unix.getpid ())
         (Random.int 100000))
  in
  Sys.mkdir dir 0o755;
  let addrs =
    Array.init gs.H.Gen.g_n_sites (fun site ->
        Sockio.Unix_path (Filename.concat dir (Printf.sprintf "s%d.sock" site)))
  in
  let gfrags site =
    List.filter_map
      (fun fid ->
        if gs.H.Gen.g_assign.(fid) = site then Some (fid, Gfrag.fragment g fid)
        else None)
      (List.init gs.H.Gen.g_n_frags Fun.id)
  in
  let pids =
    Array.to_list
      (Array.mapi
         (fun site addr ->
           Server.spawn ~service_delay ~addr ~frags:[]
             ~gfrags:(gfrags site) ())
         addrs)
  in
  let mux = Client.create ~timeout:20. ~addrs () in
  Fun.protect
    ~finally:(fun () ->
      Client.shutdown_sites mux;
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with _ -> ());
          try ignore (Unix.waitpid [] pid) with _ -> ())
        pids;
      Array.iter
        (fun a ->
          match a with
          | Sockio.Unix_path p -> ( try Sys.remove p with _ -> ())
          | Sockio.Tcp _ -> ())
        addrs;
      try Sys.rmdir dir with _ -> ())
    (fun () -> f mux)

let sockets ((gs : H.Gen.gscenario), seed) =
  let g = partition_of gs in
  (* Two schedules in three run under the in-process property's plan;
     half also sleep a real millisecond per visit on the server side. *)
  let service_delay = if seed mod 2 = 0 then 0.001 else 0. in
  with_graph_servers gs g ~service_delay @@ fun mux ->
  let handle = Client.handle mux in
  let tr = Client.handle_transport handle in
  Fun.protect ~finally:(fun () -> tr.Pax_dist.Transport.close ())
  @@ fun () ->
  let cl =
    Cluster.create_abstract ~transport:tr ~n_frags:gs.H.Gen.g_n_frags
      ~n_sites:gs.H.Gen.g_n_sites
      ~assign:(fun fid -> gs.H.Gen.g_assign.(fid))
      ()
  in
  if seed mod 3 <> 0 then Cluster.set_fault cl (plan seed);
  let q = query_of g gs in
  Cluster.reset cl;
  match Reach.eval g cl q with
  | got, report ->
      (* Proof the wire was really used: a transport run measures
         actual socket bytes, and visiting any site at all moves some. *)
      (match report.Cluster.measured_bytes with
      | Some b when b > 0 -> ()
      | Some _ | None ->
          QCheck.Test.fail_reportf "sockets: no socket traffic measured");
      check_run ~what:"sockets" ~gs ~g ~cl ~got ~report
  | exception Cluster.Site_unreachable _ -> seed mod 3 <> 0

let qtest name ~count:n prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:n arbitrary_faulty prop)

(* ---------------- mid-run migration axis ---------------------------- *)

(* The graph family's half of the elastic-sharding differential
   (docs/SHARDING.md): a concurrent 16-query reachability workload
   over forked socket servers, run as two 8-query waves with one graph
   fragment live-migrated between them.  Answers and audit verdicts
   must be bit-identical to a no-migration control (and to the
   centralized BFS); the post-move visit vectors must match an
   in-process control under the post-move placement. *)

module Coordinator = Pax_serve.Coordinator
module Pe = Pax_engine.Pe
module Ptable = Pax_shard.Ptable
module Migrate = Pax_shard.Migrate
module Wire = Pax_wire.Wire

exception Timed_out

let with_timeout secs f =
  let old =
    Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Timed_out))
  in
  ignore (Unix.alarm secs);
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.alarm 0);
      Sys.set_signal Sys.sigalrm old)
    f

let mig_n = 60
let mig_n_frags = 6
let mig_n_sites = 3

let mig_edges =
  let st = Random.State.make [| 0x5eed; 9 |] in
  List.init 180 (fun _ -> (Random.State.int st mig_n, Random.State.int st mig_n))

let mig_partition () =
  Gfrag.partition ~n:mig_n ~edges:mig_edges
    ~owner:(Array.init mig_n (fun v -> v mod mig_n_frags))

let mig_queries =
  List.map
    (fun (s, d) -> Gfrag.query_string ~src:s ~dst:d)
    [ (0, 59); (1, 2); (5, 5); (7, 30); (12, 3); (58, 0); (9, 44); (23, 23) ]

let mig_obs (o : Pe.outcome) =
  ( o.Pe.answer_keys,
    Array.to_list o.Pe.report.Cluster.visits,
    o.Pe.audit.Pax_obs.Audit.pass )

let mig_wave coord qs =
  let tickets =
    List.mapi
      (fun i q ->
        let source = Printf.sprintf "client-%d" (i mod 4) in
        match Coordinator.submit ~source coord q with
        | Ok tk -> (q, tk)
        | Error e ->
            Alcotest.failf "%s rejected: %s" q (Coordinator.error_message e))
      qs
  in
  List.map
    (fun (q, tk) ->
      match Coordinator.await tk with
      | Ok o -> mig_obs o
      | Error e -> Alcotest.failf "%s raised: %s" q (Printexc.to_string e))
    tickets

let with_mig_servers g ~assign f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pax_reach_mig_%d_%d" (Unix.getpid ())
         (Random.int 100000))
  in
  Sys.mkdir dir 0o755;
  let addrs =
    Array.init mig_n_sites (fun site ->
        Sockio.Unix_path (Filename.concat dir (Printf.sprintf "s%d.sock" site)))
  in
  let gfrags site =
    List.filter_map
      (fun fid ->
        if assign fid = site then Some (fid, Gfrag.fragment g fid) else None)
      (List.init mig_n_frags Fun.id)
  in
  let pids =
    Array.to_list
      (Array.mapi
         (fun site addr ->
           Server.spawn ~addr ~frags:[] ~gfrags:(gfrags site) ())
         addrs)
  in
  let mux = Client.create ~timeout:20. ~addrs () in
  Fun.protect
    ~finally:(fun () ->
      Client.shutdown_sites mux;
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with _ -> ());
          try ignore (Unix.waitpid [] pid) with _ -> ())
        pids;
      Array.iter
        (fun a ->
          match a with
          | Sockio.Unix_path p -> ( try Sys.remove p with _ -> ())
          | Sockio.Tcp _ -> ())
        addrs;
      try Sys.rmdir dir with _ -> ())
    (fun () -> f mux)

let mig_workload ~migrate =
  let g = mig_partition () in
  let table =
    Ptable.create ~kind:Wire.Graph_frag ~n_frags:mig_n_frags
      ~n_sites:mig_n_sites
      ~assign:(fun fid -> fid mod mig_n_sites)
      ()
  in
  with_mig_servers g ~assign:(Ptable.assign table) (fun mux ->
      let coord =
        Coordinator.create ~max_inflight:8 (Coordinator.Sockets mux)
          [
            Coordinator.mount ~table
              (Reach.engine g ~n_sites:mig_n_sites
                 ~assign:(Ptable.assign table));
          ]
      in
      let w1 = mig_wave coord mig_queries in
      if migrate then begin
        let fid = 2 in
        let dst = (Ptable.site_of table fid + 1) mod mig_n_sites in
        match Migrate.move ~mux ~table ~fid ~dst () with
        | Ok o ->
            Alcotest.(check int) "move bumped the epoch" 1 o.Migrate.mv_epoch
        | Error e -> Alcotest.failf "graph migration failed: %s" e
      end;
      let w2 = mig_wave coord mig_queries in
      Coordinator.close coord;
      (w1, w2, Array.init mig_n_frags (Ptable.site_of table)))

let test_migration_axis () =
  with_timeout 300 (fun () ->
      let c1, c2, _ = mig_workload ~migrate:false in
      let m1, m2, post = mig_workload ~migrate:true in
      List.iteri
        (fun i ((a_ans, a_vis, a_pass), (b_ans, b_vis, b_pass)) ->
          let q = List.nth mig_queries i in
          Alcotest.(check (list int))
            (Printf.sprintf "pre-move %s: answers" q)
            a_ans b_ans;
          Alcotest.(check (list int))
            (Printf.sprintf "pre-move %s: visits" q)
            a_vis b_vis;
          Alcotest.(check bool)
            (Printf.sprintf "pre-move %s: audit" q)
            a_pass b_pass)
        (List.combine c1 m1);
      List.iteri
        (fun i ((a_ans, _, a_pass), (b_ans, _, b_pass)) ->
          let q = List.nth mig_queries i in
          Alcotest.(check (list int))
            (Printf.sprintf "post-move %s: answers" q)
            a_ans b_ans;
          Alcotest.(check bool)
            (Printf.sprintf "post-move %s: audit" q)
            a_pass b_pass;
          Alcotest.(check bool)
            (Printf.sprintf "post-move %s: auditor passes" q)
            true b_pass;
          (* The distributed answer across the migration still equals
             the centralized BFS. *)
          match Gfrag.parse_query q with
          | Some (src, dst) ->
              let expect = Bfs.reach ~n:mig_n ~edges:mig_edges ~src ~dst in
              Alcotest.(check (list int))
                (Printf.sprintf "post-move %s = BFS" q)
                (if expect then [ 1 ] else [])
                b_ans
          | None -> Alcotest.fail "unparseable reach query")
        (List.combine c2 m2);
      (* Post-move visits = what the post-move placement dictates,
         transport-invariantly. *)
      let g = mig_partition () in
      let table =
        Ptable.create ~kind:Wire.Graph_frag ~n_frags:mig_n_frags
          ~n_sites:mig_n_sites
          ~assign:(fun fid -> post.(fid))
          ()
      in
      let ctrl =
        Coordinator.create ~max_inflight:1 Coordinator.In_process
          [
            Coordinator.mount ~table
              (Reach.engine g ~n_sites:mig_n_sites ~assign:(Ptable.assign table));
          ]
      in
      List.iteri
        (fun i q ->
          match Coordinator.run ctrl q with
          | Ok o ->
              let c_ans, c_vis, c_pass = mig_obs o in
              let m_ans, m_vis, m_pass = List.nth m2 i in
              Alcotest.(check (list int))
                (Printf.sprintf "control %s: answers" q)
                c_ans m_ans;
              Alcotest.(check (list int))
                (Printf.sprintf "control %s: visits" q)
                c_vis m_vis;
              Alcotest.(check bool)
                (Printf.sprintf "control %s: audit" q)
                c_pass m_pass
          | Error e ->
              Alcotest.failf "control %s rejected: %s" q
                (Coordinator.error_message e))
        mig_queries;
      Coordinator.close ctrl)

let () =
  Alcotest.run "reach_differential"
    [
      ( "oracle",
        [
          qtest "reach = BFS or typed failure (faults x delay)"
            ~count:(count 150) faulted;
          qtest "reach = BFS over sockets (faults x delay)"
            ~count:(socket_count 15) sockets;
          Alcotest.test_case
            "sockets: live graph-fragment migration is invisible" `Quick
            test_migration_axis;
        ] );
    ]
