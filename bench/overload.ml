(* Closed-loop overload benchmark (docs/SERVING.md, docs/OPERATIONS.md):
   what the serving tier does when offered load far exceeds capacity.

   Three phases over the FT2 fragment tree and forked site servers:

   1. Saturation: [max_inflight] closed-loop clients, no deadlines —
      the goodput ceiling the worker pool can sustain (sat_qps).
   2. Overload: [overload_clients] (>= 64 in full runs) closed-loop
      clients against the same pool, split into a gold class (QoS
      weight 4, priority 1, loose 5s deadlines) and a bronze class
      (default share, tight deadlines).  Excess work must be shed at
      admission — typed Overloaded / Deadline_infeasible rejections,
      counted per reason — while the goodput of admitted queries stays
      within 10% of saturation and every admitted run passes its
      audit.  Shedding instead of collapsing is the claim: a serving
      tier with no admission control would queue without bound and
      watch every latency explode.
   3. Identity: the same query list through one sequential coordinator
      and through two coordinators taking turns over shared servers —
      answers must be bit-identical.  Halfway through, a fragment
      migrates and the first coordinator is killed and restarted from
      its placement snapshot ([Ptable.load] + [Migrate.replay]); the
      remaining queries must still match (restart_recovered).

   Emits bench-results/BENCH_PR10.json (see validate_bench.ml, "overload"). *)

module Query = Pax_xpath.Query
module Fragment = Pax_frag.Fragment
module Cluster = Pax_dist.Cluster
module Sockio = Pax_net.Sockio
module Server = Pax_net.Server
module Client = Pax_net.Client
module Coordinator = Pax_serve.Coordinator
module Sched = Pax_serve.Sched
module Ptable = Pax_shard.Ptable
module Migrate = Pax_shard.Migrate
module J = Bench_json

let cumulative_mb = 13
let max_inflight = 8
let max_queue = 16
let overload_clients = if Setup.quick then 16 else 64
let per_client = if Setup.quick then 4 else 8
let sat_queries = if Setup.quick then 48 else 192

(* Deadlines, in seconds.  Bronze's tight deadline sits below a warm
   query's predicted cost under backlog, so the calibrated admission
   estimate sheds it up front; gold's loose one only loses to a full
   queue. *)
let tight_deadline_s = 0.025
let loose_deadline_s = 5.

(* Shed clients back off briefly before their next attempt — the
   protocol's BUSY contract — so rejection spin doesn't steal the one
   shared core from the workers actually serving admitted queries. *)
let shed_backoff_s = 0.05

let site_delay_ms =
  match Sys.getenv_opt "PAX_BENCH_SITE_DELAY_MS" with
  | Some s -> ( match float_of_string_opt s with Some v -> v | None -> 2.)
  | None -> 2.

let queries =
  List.iter (fun (_, q) -> ignore (Query.of_string q)) Pax_xmark.Xmark.queries;
  Pax_xmark.Xmark.queries

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) rank))

(* ---------------- site-server harness ------------------------------ *)

let with_servers (proto : Cluster.t) f =
  let ft = Cluster.ftree proto in
  let n_sites = Cluster.n_sites proto in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pax_overload_%d" (Unix.getpid ()))
  in
  Sys.mkdir dir 0o755;
  let addrs =
    Array.init n_sites (fun site ->
        Sockio.Unix_path (Filename.concat dir (Printf.sprintf "s%d.sock" site)))
  in
  let site_frags site =
    List.map
      (fun fid -> (fid, (Fragment.fragment ft fid).Fragment.root))
      (Cluster.fragments_on proto site)
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
    (fun () -> f ~ft ~mux ~dir ())

let mk_coord ~proto ~ft ~mux ?table ~max_inflight () =
  let n_sites = Cluster.n_sites proto in
  let assign =
    match table with
    | Some t -> Ptable.assign t
    | None -> fun fid -> Cluster.site_of proto fid
  in
  Coordinator.create ~max_inflight ~max_queue
    (Coordinator.Sockets mux)
    [ Coordinator.mount ?table (Pax_core.Engines.pax2 ft ~n_sites ~assign) ]

(* ---------------- phase 1: saturation ------------------------------ *)

type phase = {
  ph_offered : int;
  ph_admitted : int;
  ph_shed_overloaded : int;
  ph_shed_deadline : int;
  ph_wall_s : float;
  ph_goodput_qps : float;
  ph_p50_ms : float;
  ph_p99_ms : float;
  ph_audit_pass : bool;
}

(* One closed-loop storm: [clients] threads, each attempting
   [per_client] queries from its own offset; a shed attempt counts,
   backs off and moves on to the next query — the client never blocks
   on admission.  [plan i k] gives thread [i]'s (source, deadline
   offset) for its [k]-th query; [None] means no deadline. *)
let storm coord ~clients ~per_client ~plan =
  let qarr = Array.of_list queries in
  let nq = Array.length qarr in
  let lock = Mutex.create () in
  let admitted = ref 0
  and shed_over = ref 0
  and shed_dead = ref 0
  and lats = ref []
  and audit_ok = ref true in
  let client i () =
    for k = 0 to per_client - 1 do
      let _, q = qarr.((i + k) mod nq) in
      let source, deadline_off = plan i k in
      let deadline =
        Option.map (fun d -> Pax_obs.Clock.now () +. d) deadline_off
      in
      let s = Unix.gettimeofday () in
      match Coordinator.run ~source ?deadline coord q with
      | Ok (o : Coordinator.Pe.outcome) ->
          let l = Unix.gettimeofday () -. s in
          Mutex.lock lock;
          incr admitted;
          lats := l :: !lats;
          if not o.audit.Pax_obs.Audit.pass then audit_ok := false;
          Mutex.unlock lock
      | Error (Coordinator.Rejected r) ->
          Mutex.lock lock;
          (match r with
          | Sched.Overloaded _ -> incr shed_over
          | Sched.Deadline_infeasible _ -> incr shed_dead
          | Sched.Closed -> failwith "overload: scheduler closed mid-storm");
          Mutex.unlock lock;
          Unix.sleepf shed_backoff_s
      | Error e ->
          failwith
            (Printf.sprintf "overload: %s rejected: %s" q
               (Coordinator.error_message e))
    done
  in
  let t0 = Unix.gettimeofday () in
  let threads = List.init clients (fun i -> Thread.create (client i) ()) in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in
  let lat = Array.of_list !lats in
  Array.sort compare lat;
  {
    ph_offered = clients * per_client;
    ph_admitted = !admitted;
    ph_shed_overloaded = !shed_over;
    ph_shed_deadline = !shed_dead;
    ph_wall_s = wall;
    ph_goodput_qps = float_of_int !admitted /. wall;
    ph_p50_ms = 1000. *. percentile lat 50.;
    ph_p99_ms = 1000. *. percentile lat 99.;
    ph_audit_pass = !audit_ok;
  }

(* An untimed sequential pass through the query set: warms the servers
   and calibrates the coordinator's admission predictor (the deadline
   check is only as good as its cost estimates). *)
let warm coord =
  List.iter
    (fun (_, q) ->
      match Coordinator.run coord q with
      | Ok _ -> ()
      | Error e ->
          failwith
            (Printf.sprintf "overload: warm-up rejected: %s"
               (Coordinator.error_message e)))
    queries

let saturation ~proto ~ft ~mux () =
  let coord = mk_coord ~proto ~ft ~mux ~max_inflight () in
  Fun.protect ~finally:(fun () -> Coordinator.close coord) @@ fun () ->
  warm coord;
  let best = ref None in
  for _ = 1 to Setup.repeats do
    let ph =
      storm coord ~clients:max_inflight
        ~per_client:(sat_queries / max_inflight)
        ~plan:(fun i _ -> (Printf.sprintf "sat%d" i, None))
    in
    match !best with
    | Some b when b.ph_goodput_qps >= ph.ph_goodput_qps && b.ph_audit_pass -> ()
    | _ -> best := Some ph
  done;
  Option.get !best

(* ---------------- phase 2: overload -------------------------------- *)

let overload ~proto ~ft ~mux () =
  let coord = mk_coord ~proto ~ft ~mux ~max_inflight () in
  Fun.protect ~finally:(fun () -> Coordinator.close coord) @@ fun () ->
  (* Half the clients are gold: 4 dispatches per rotation turn, a
     priority class of their own, and deadlines loose enough that only
     a full queue sheds them.  Bronze keeps the defaults and asks for
     latencies the backlog cannot deliver — the admission estimate
     sheds those up front instead of letting them rot in the queue. *)
  let gold_clients = overload_clients / 2 in
  for i = 0 to gold_clients - 1 do
    Coordinator.configure_source coord
      ~source:(Printf.sprintf "gold%d" i)
      ~weight:4 ~priority:1 ()
  done;
  warm coord;
  let plan i _k =
    if i < gold_clients then
      (Printf.sprintf "gold%d" i, Some loose_deadline_s)
    else (Printf.sprintf "bronze%d" i, Some tight_deadline_s)
  in
  (* Best-of like the saturation phase: on a shared box a single storm
     can lose a repeat to unrelated scheduler noise. *)
  let best = ref None in
  for _ = 1 to Setup.repeats do
    let ph = storm coord ~clients:overload_clients ~per_client ~plan in
    match !best with
    | Some b when b.ph_goodput_qps >= ph.ph_goodput_qps && b.ph_audit_pass -> ()
    | _ -> best := Some ph
  done;
  Option.get !best

(* ---------------- phase 3: two-coordinator identity ----------------- *)

(* Sequential runs through [coord], answers only — placement moves
   change visit routes, never answers, so identity is on answer keys
   and audit verdicts. *)
let answers_of coord qs =
  List.map
    (fun (_, q) ->
      match Coordinator.run coord q with
      | Ok (o : Coordinator.Pe.outcome) ->
          (o.answer_keys, o.audit.Pax_obs.Audit.pass)
      | Error e ->
          failwith
            (Printf.sprintf "overload: identity run rejected: %s"
               (Coordinator.error_message e)))
    qs

let identity ~proto ~ft ~mux ~dir () =
  let n_frags = Fragment.n_fragments ft in
  let n_sites = Cluster.n_sites proto in
  let snapshot = Filename.concat dir "placement.tbl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove snapshot with _ -> ())
    (fun () ->
      (* The sequential reference runs on the untouched placement at
         epoch 0: fragments retired by the later move refuse only
         visits stamped at the move's epoch or later. *)
      let reference = mk_coord ~proto ~ft ~mux ~max_inflight:1 () in
      let expect =
        Fun.protect
          ~finally:(fun () -> Coordinator.close reference)
          (fun () -> answers_of reference queries)
      in
      let table =
        Ptable.create ~n_frags ~n_sites
          ~assign:(fun fid -> Cluster.site_of proto fid)
          ()
      in
      Ptable.save table snapshot;
      let coord_a = mk_coord ~proto ~ft ~mux ~table ~max_inflight:2 () in
      let coord_b = mk_coord ~proto ~ft ~mux ~table ~max_inflight:2 () in
      let half = List.length queries / 2 in
      let first = List.filteri (fun i _ -> i < half) queries in
      let second = List.filteri (fun i _ -> i >= half) queries in
      let alternate a b qs =
        List.mapi
          (fun i q -> ((if i mod 2 = 0 then a else b), q))
          qs
        |> List.map (fun (coord, q) -> List.hd (answers_of coord [ q ]))
      in
      let got_first = alternate coord_a coord_b first in
      (* A fragment migrates, the snapshot records it... *)
      let fid = min 1 (n_frags - 1) in
      let dst = (Cluster.site_of proto fid + 1) mod n_sites in
      (match Migrate.move ~mux ~ft ~table ~fid ~dst () with
      | Ok _ -> ()
      | Error e -> failwith (Printf.sprintf "overload: move failed: %s" e));
      Ptable.save table snapshot;
      (* ...then coordinator A dies.  Its replacement rebuilds the
         placement from the snapshot and replays the recorded moves
         against the live servers (installs are idempotent). *)
      Coordinator.close coord_a;
      let restart_recovered, got_second =
        match Ptable.load snapshot with
        | Error e -> failwith (Printf.sprintf "overload: load failed: %s" e)
        | Ok table' -> (
            match Migrate.replay ~mux ~table:table' () with
            | Error e ->
                failwith (Printf.sprintf "overload: replay failed: %s" e)
            | Ok () ->
                let coord_a' =
                  mk_coord ~proto ~ft ~mux ~table:table' ~max_inflight:2 ()
                in
                let got =
                  Fun.protect
                    ~finally:(fun () -> Coordinator.close coord_a')
                    (fun () -> alternate coord_a' coord_b second)
                in
                (Ptable.epoch table' = Ptable.epoch table, got))
      in
      Coordinator.close coord_b;
      let got = got_first @ got_second in
      let identical =
        List.for_all2
          (fun (ea, eok) (ga, gok) -> ea = ga && eok && gok)
          expect got
      in
      (identical, restart_recovered && List.for_all2
          (fun (ea, _) (ga, _) -> ea = ga)
          (List.filteri (fun i _ -> i >= half) expect)
          got_second))

(* ---------------- reporting ---------------------------------------- *)

let emit ~sat ~over ~identical ~restart_recovered =
  let shed = over.ph_shed_overloaded + over.ph_shed_deadline in
  let j =
    J.Obj
      [
        ("bench", J.Str "overload");
        ("pr", J.int 10);
        ("workload", J.Str "ft2-exp2");
        ("engine", J.Str "pax2");
        ("transport", J.Str "unix-sockets");
        ("quick", J.Bool Setup.quick);
        ("cores", J.int (Domain.recommended_domain_count ()));
        ("size_mb", J.int cumulative_mb);
        ("site_delay_ms", J.Num site_delay_ms);
        ("scale_nodes_per_mb", J.int Setup.scale);
        ("repeats", J.int Setup.repeats);
        ("concurrency", J.int overload_clients);
        ("max_inflight", J.int max_inflight);
        ("max_queue", J.int max_queue);
        ("tight_deadline_ms", J.Num (1000. *. tight_deadline_s));
        ("loose_deadline_ms", J.Num (1000. *. loose_deadline_s));
        ("queries", J.List (List.map (fun (n, _) -> J.Str n) queries));
        ("sat_qps", J.Num sat.ph_goodput_qps);
        ("offered", J.int over.ph_offered);
        ("admitted", J.int over.ph_admitted);
        ("shed", J.int shed);
        ("shed_overloaded", J.int over.ph_shed_overloaded);
        ("shed_deadline", J.int over.ph_shed_deadline);
        ("overload_goodput_qps", J.Num over.ph_goodput_qps);
        ( "goodput_ratio",
          J.Num (over.ph_goodput_qps /. Float.max sat.ph_goodput_qps 1e-9) );
        ("p50_admitted_ms", J.Num over.ph_p50_ms);
        ("p99_admitted_ms", J.Num over.ph_p99_ms);
        ("audit_pass", J.Bool (sat.ph_audit_pass && over.ph_audit_pass));
        ("two_coord_identical", J.Bool identical);
        ("restart_recovered", J.Bool restart_recovered);
      ]
  in
  Printf.printf "\nwrote %s\n%!" (J.write "BENCH_PR10.json" j)

let main () =
  Printf.printf
    "serving overload: FT2 %d units, %d clients vs %d workers / queue %d, \
     site delay %.1f ms, quick=%b\n%!"
    cumulative_mb overload_clients max_inflight max_queue site_delay_ms
    Setup.quick;
  let proto = Setup.ft2 ~cumulative_mb in
  with_servers proto (fun ~ft ~mux ~dir () ->
      let sat = saturation ~proto ~ft ~mux () in
      Printf.printf "  saturation:  %7.1f qps  p99 %6.2f ms  audit %s\n%!"
        sat.ph_goodput_qps sat.ph_p99_ms
        (if sat.ph_audit_pass then "pass" else "FAIL");
      let over = overload ~proto ~ft ~mux () in
      Printf.printf
        "  overload:    %7.1f qps goodput (ratio %.2f)  offered %d  \
         admitted %d  shed %d (%d overloaded, %d deadline)  p99 %6.2f ms  \
         audit %s\n%!"
        over.ph_goodput_qps
        (over.ph_goodput_qps /. Float.max sat.ph_goodput_qps 1e-9)
        over.ph_offered over.ph_admitted
        (over.ph_shed_overloaded + over.ph_shed_deadline)
        over.ph_shed_overloaded over.ph_shed_deadline over.ph_p99_ms
        (if over.ph_audit_pass then "pass" else "FAIL");
      let identical, restart_recovered = identity ~proto ~ft ~mux ~dir () in
      Printf.printf "  identity:    two-coordinator %s, restart %s\n%!"
        (if identical then "bit-identical" else "DIVERGED")
        (if restart_recovered then "recovered" else "FAILED");
      emit ~sat ~over ~identical ~restart_recovered)
