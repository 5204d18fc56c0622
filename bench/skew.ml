(* The hot-shard benchmark (docs/SHARDING.md): a closed-loop Zipf
   workload against a deliberately skewed placement — every FT2
   fragment starts on site 0 of 4, so one server serializes every
   visit of every in-flight run — measured before and after one
   [Pax_serve.Rebalance.run].  The rebalancer reads the visit counters
   the coordinator harvested into the placement table during the "pre"
   phase and live-migrates fragments over the same mux the workload
   uses; the "post" phase then reruns the identical closed loop.

   The machine model matches bench/throughput.ml: shared core, loopback
   sockets, and a slept per-visit service delay standing in for the
   paper's one-machine-per-site network.  The delay is what the skew
   serializes — all visits queue behind one socket pre-rebalance and
   spread over four servers post — so p99 drops even though compute
   shares a core.  Emits bench-results/BENCH_PR8.json (see validate_bench.ml): the
   committed artifact must show post-rebalance p99 <= pre, at least one
   executed move, a strictly lower max per-site visit load, and every
   audit passing in both phases. *)

module Query = Pax_xpath.Query
module Fragment = Pax_frag.Fragment
module Cluster = Pax_dist.Cluster
module Sockio = Pax_net.Sockio
module Server = Pax_net.Server
module Client = Pax_net.Client
module Coordinator = Pax_serve.Coordinator
module Rebalance = Pax_serve.Rebalance
module Ptable = Pax_shard.Ptable
module Migrate = Pax_shard.Migrate
module J = Bench_json

let cumulative_mb = 13
let n_sites = 4
let concurrency = 8
let total_queries = if Setup.quick then 48 else 160

let site_delay_ms =
  match Sys.getenv_opt "PAX_BENCH_SITE_DELAY_MS" with
  | Some s -> ( match float_of_string_opt s with Some v -> v | None -> 2.)
  | None -> 2.

let queries =
  List.iter (fun (_, q) -> ignore (Query.of_string q)) Pax_xmark.Xmark.queries;
  Pax_xmark.Xmark.queries

(* Zipf(1) over the query set: rank r drawn with weight 1/r.  Each
   closed-loop client draws from its own deterministic stream. *)
let zipf_pick st =
  let qarr = Array.of_list queries in
  let n = Array.length qarr in
  let weights = Array.init n (fun i -> 1. /. float_of_int (i + 1)) in
  let total = Array.fold_left ( +. ) 0. weights in
  let u = Random.State.float st total in
  let rec go i acc =
    if i >= n - 1 then qarr.(n - 1)
    else
      let acc = acc +. weights.(i) in
      if u < acc then qarr.(i) else go (i + 1) acc
  in
  go 0 0.

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) rank))

type phase = {
  queries_run : int;
  wall_s : float;
  qps : float;
  p50_ms : float;
  p99_ms : float;
  audit_pass : bool;
}

(* One timed closed loop: [concurrency] clients, each drawing its
   Zipf stream from a per-client, per-round seed so every repeat of a
   phase replays the same request mix.  Audits are checked after the
   clock stops. *)
let run_phase ~round coord : phase =
  let run_one ?source q =
    match Coordinator.run ?source coord q with
    | Ok o -> o
    | Error e ->
        failwith
          (Printf.sprintf "skew: closed-loop client rejected: %s"
             (Coordinator.error_message e))
  in
  let per_client = total_queries / concurrency in
  let queries_run = per_client * concurrency in
  let lat = Array.make queries_run 0. in
  let results = Array.make queries_run None in
  let client i () =
    let source = Printf.sprintf "client%d" i in
    let st = Random.State.make [| 0x21bf; i; round |] in
    for k = 0 to per_client - 1 do
      let _, q = zipf_pick st in
      let s = Unix.gettimeofday () in
      let r = run_one ~source q in
      let slot = (i * per_client) + k in
      lat.(slot) <- Unix.gettimeofday () -. s;
      results.(slot) <- Some r
    done
  in
  let t0 = Unix.gettimeofday () in
  let threads = List.init concurrency (fun i -> Thread.create (client i) ()) in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in
  let audit_pass =
    Array.for_all
      (function
        | Some (o : Coordinator.Pe.outcome) -> o.audit.Pax_obs.Audit.pass
        | None -> false)
      results
  in
  Array.sort compare lat;
  {
    queries_run;
    wall_s = wall;
    qps = float_of_int queries_run /. wall;
    p50_ms = 1000. *. percentile lat 50.;
    p99_ms = 1000. *. percentile lat 99.;
    audit_pass;
  }

(* Best-of-repeats on p99 (the closed loop shares the machine with
   whatever else runs); audits must pass in every repeat. *)
let measure_phase ~label coord : phase =
  let best = ref None in
  for r = 1 to Setup.repeats do
    let p = run_phase ~round:r coord in
    let p =
      match !best with
      | Some b when not b.audit_pass -> { p with audit_pass = false }
      | _ -> p
    in
    match !best with
    | Some b when b.p99_ms <= p.p99_ms && b.audit_pass = p.audit_pass -> ()
    | _ -> best := Some p
  done;
  let p = Option.get !best in
  Printf.printf "  %-5s %7.1f qps  p50 %7.2f ms  p99 %7.2f ms  audit %s\n%!"
    label p.qps p.p50_ms p.p99_ms
    (if p.audit_pass then "pass" else "FAIL");
  p

(* ---------------- harness ------------------------------------------ *)

let with_servers ft table f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pax_skew_%d" (Unix.getpid ()))
  in
  Sys.mkdir dir 0o755;
  let addrs =
    Array.init n_sites (fun site ->
        Sockio.Unix_path (Filename.concat dir (Printf.sprintf "s%d.sock" site)))
  in
  let site_frags site =
    List.filter_map
      (fun fid ->
        if Ptable.site_of table fid = site then
          Some (fid, (Fragment.fragment ft fid).Fragment.root)
        else None)
      (List.init (Fragment.n_fragments ft) Fun.id)
  in
  let pids =
    Array.to_list
      (Array.mapi
         (fun site addr ->
           Server.spawn
             ~service_delay:(site_delay_ms /. 1000.)
             ~addr
             ~frags:(site_frags site) ())
         addrs)
  in
  let mux = Client.create ~timeout:60. ~addrs () in
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

(* ---------------- reporting ---------------------------------------- *)

let json_of_phase p =
  J.Obj
    [
      ("queries", J.int p.queries_run);
      ("wall_s", J.Num p.wall_s);
      ("qps", J.Num p.qps);
      ("p50_ms", J.Num p.p50_ms);
      ("p99_ms", J.Num p.p99_ms);
      ("audit_pass", J.Bool p.audit_pass);
    ]

let json_of_move (o : Migrate.outcome) =
  J.Obj
    [
      ("fid", J.int o.Migrate.mv_fid);
      ("from", J.int o.Migrate.mv_from);
      ("to", J.int o.Migrate.mv_to);
      ("epoch", J.int o.Migrate.mv_epoch);
    ]

let emit ~n_frags ~pre ~post ~moves ~epoch ~max_pre ~max_post =
  let j =
    J.Obj
      [
        ("bench", J.Str "skew");
        ("pr", J.int 8);
        ("workload", J.Str "ft2-zipf");
        ("engine", J.Str "pax2");
        ("transport", J.Str "unix-sockets");
        ("quick", J.Bool Setup.quick);
        ("cores", J.int (Domain.recommended_domain_count ()));
        ("size_mb", J.int cumulative_mb);
        ("site_delay_ms", J.Num site_delay_ms);
        ("scale_nodes_per_mb", J.int Setup.scale);
        ("repeats", J.int Setup.repeats);
        ("total_queries", J.int total_queries);
        ("concurrency", J.int concurrency);
        ("n_frags", J.int n_frags);
        ("n_sites", J.int n_sites);
        ("queries", J.List (List.map (fun (n, _) -> J.Str n) queries));
        ("moves", J.int (List.length moves));
        ("move_list", J.List (List.map json_of_move moves));
        ("epoch", J.int epoch);
        ("max_site_load_pre", J.int max_pre);
        ("max_site_load_post", J.int max_post);
        ("pre", json_of_phase pre);
        ("post", json_of_phase post);
      ]
  in
  Printf.printf "\nwrote %s\n%!" (J.write "BENCH_PR8.json" j)

let main () =
  Printf.printf
    "hot-shard rebalance: FT2 %d units, scale %d nodes/unit, %d Zipf \
     queries per phase at concurrency %d, best of %d, site delay %.1f ms, \
     quick=%b\n%!"
    cumulative_mb Setup.scale total_queries concurrency Setup.repeats
    site_delay_ms Setup.quick;
  let ft = Cluster.ftree (Setup.ft2 ~cumulative_mb) in
  let n_frags = Fragment.n_fragments ft in
  (* The skew: every fragment on site 0; sites 1..3 idle. *)
  let table = Ptable.create ~n_frags ~n_sites ~assign:(fun _ -> 0) () in
  with_servers ft table (fun mux ->
      let coord =
        Coordinator.create ~max_inflight:concurrency
          ~max_queue:((2 * concurrency) + 16)
          (Coordinator.Sockets mux)
          [
            Coordinator.mount ~table
              (Pax_core.Engines.pax2 ft ~n_sites
                 ~assign:(Ptable.assign table));
          ]
      in
      Fun.protect ~finally:(fun () -> Coordinator.close coord) @@ fun () ->
      (* Untimed warm-up, then the measured skewed phase; its harvested
         visit counters are exactly what the rebalancer feeds on. *)
      List.iter
        (fun (_, q) -> ignore (Coordinator.run coord q))
        queries;
      let pre = measure_phase ~label:"pre" coord in
      let loads_pre = Ptable.site_loads table in
      let max_pre = Array.fold_left max 0 loads_pre in
      let rb =
        Rebalance.create
          ~policy:
            { Rebalance.min_gain = 1; cooldown = 0.; max_moves = 2 * n_frags }
          table
      in
      let moves =
        match Rebalance.run ~mux ~ft rb ~now:(Unix.gettimeofday ()) with
        | Ok ms -> ms
        | Error e -> failwith (Printf.sprintf "skew: rebalance failed: %s" e)
      in
      Printf.printf "  rebalance: %d move(s), epoch %d\n%!" (List.length moves)
        (Ptable.epoch table);
      List.iter
        (fun (o : Migrate.outcome) ->
          Printf.printf "    fragment %d: site %d -> %d (epoch %d)\n%!"
            o.Migrate.mv_fid o.Migrate.mv_from o.Migrate.mv_to
            o.Migrate.mv_epoch)
        moves;
      (* Post phase under the rebalanced placement; fresh counters so
         the deterministic load comparison is phase-vs-phase. *)
      Ptable.reset_visits table;
      let post = measure_phase ~label:"post" coord in
      let max_post = Array.fold_left max 0 (Ptable.site_loads table) in
      Printf.printf "  max site load: %d visits pre, %d post\n%!" max_pre
        max_post;
      emit ~n_frags ~pre ~post ~moves ~epoch:(Ptable.epoch table) ~max_pre
        ~max_post)
