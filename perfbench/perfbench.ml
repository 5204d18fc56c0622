(* The serving-tier benchmark: one seeded workload against the real
   serving path (Coordinator -> Sched -> per-run Cluster -> Client mux
   -> forked Server site servers -> flat stage kernels -> evalFT
   unify), every answer checked against sequential in-process
   evaluation.  See perfbench/README.md for the workloads, the metrics
   and how to run it.

   usage: perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
          perfbench.exe selftest

   The last line of standard output is one JSON object: correct,
   attempted, failed and metrics (end-to-end metrics untraced, per-layer
   metrics traced). *)

module Fragment = Pax_frag.Fragment
module Update = Pax_frag.Update
module Pe = Pax_engine.Pe
module Engines = Pax_core.Engines
module Sockio = Pax_net.Sockio
module Server = Pax_net.Server
module Client = Pax_net.Client
module Coordinator = Pax_serve.Coordinator
module Cache = Pax_serve.Cache
module Feed = Pax_serve.Feed
module Admit = Pax_serve.Admit
module Clock = Pax_obs.Clock

(* ---------------- workloads -------------------------------------- *)

type loop = Closed | Open of { rate : float }

type workload = {
  name : string;
  loop : loop;
  site_delay_s : float;
  cache : bool;
  mix : Inputs.mix;
}

(* The host has two cores: two load-generator threads and two
   in-flight runs. *)
let clients = 2
let max_inflight = 2
let max_queue = 64

(* serve-latency's offered rate, set once well below saturation (this
   configuration saturates near 150/s on a 2-core host), and its latency
   limit, which every request carries as its deadline. *)
let open_rate = 50.
let latency_limit_s = 0.1

let workloads =
  [
    { name = "serve-cpu"; loop = Closed; site_delay_s = 0.; cache = false;
      mix = Inputs.Uniform };
    { name = "serve-latency"; loop = Open { rate = open_rate };
      site_delay_s = 0.002; cache = true; mix = Inputs.Zipf_reads };
    { name = "serve-update"; loop = Closed; site_delay_s = 0.; cache = true;
      mix = Inputs.Zipf_rw };
  ]

(* Set-up is repeated and its median reported; the last one serves the
   timed window, so warm-up stays outside it. *)
let setups = 3
let warmup_reads = 200

(* Sequential reads before the window whose counts must repeat exactly
   for a given seed. *)
let count_probe_reads = 64

(* Idle writes after the window of a traced run of a read-only
   workload, so the write-path metrics exist on every workload.  They
   are spread over a few seconds: this host's speed changes from second
   to second, and a burst would sample one moment of it. *)
let write_probes = 300
let write_probe_gap_s = 0.01

(* Traced runs alternate untraced and traced slices of this length;
   per-layer numbers come from the traced slices, and the gap between
   the two kinds is the tracing overhead. *)
let slice_s = 1.

(* Reconciliation tolerance: the generator's lateness, the scheduler
   wait and the engine execution must account for all but this share
   of the summed read latency.  The rest is the coordinator's
   bookkeeping after the run and the hand-off to the waiting client
   thread, which must first take the runtime lock from a busy worker. *)
let max_unattributed = 0.15

(* The open-loop generator has fallen behind, and the run is invalid,
   when its p99 lateness exceeds one send interval. *)
let max_late_p99_s = 1. /. open_rate

(* ---------------- small helpers ---------------------------------- *)

let percentile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) rank))

let mean xs =
  match xs with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let ratio a b = if b = 0. then 0. else a /. b
let ms s = 1000. *. s
let count p l = List.length (List.filter p l)
let sum f l = List.fold_left (fun acc x -> acc +. f x) 0. l

(* Peak resident set of a process, in kB, from /proc. *)
let vm_hwm_kb who =
  let ic = open_in (Printf.sprintf "/proc/%s/status" who) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" Fun.id
        | _ -> go ()
        | exception End_of_file -> 0
      in
      go ())

(* A readers/writer lock that prefers writers.  serve-update's reads
   hold it shared from submit to answer and its writes exclusively: the
   stage cache's rule that edits never race in-flight runs. *)
module Rw = struct
  type t = {
    m : Mutex.t;
    c : Condition.t;
    mutable readers : int;
    mutable writer : bool;
    mutable waiting : int;
  }

  let create () =
    { m = Mutex.create (); c = Condition.create (); readers = 0;
      writer = false; waiting = 0 }

  let with_m t f =
    Mutex.lock t.m;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

  let read t f =
    with_m t (fun () ->
        while t.writer || t.waiting > 0 do Condition.wait t.c t.m done;
        t.readers <- t.readers + 1);
    Fun.protect
      ~finally:(fun () ->
        with_m t (fun () ->
            t.readers <- t.readers - 1;
            Condition.broadcast t.c))
      f

  let write t f =
    with_m t (fun () ->
        t.waiting <- t.waiting + 1;
        while t.writer || t.readers > 0 do Condition.wait t.c t.m done;
        t.waiting <- t.waiting - 1;
        t.writer <- true);
    Fun.protect
      ~finally:(fun () ->
        with_m t (fun () ->
            t.writer <- false;
            Condition.broadcast t.c))
      f
end

(* ---------------- the system under test -------------------------- *)

(* Unix socket paths are relative to the checkout, which keeps them
   short and inside it. *)
let run_root = ".perfbench_run"

type system = {
  ft : Fragment.t;
  dir : string;
  addrs : Sockio.addr array;
  pids : int list;
  mux : Client.t;
  coord : Coordinator.t;
  cache : Cache.t option;
  feed : Feed.t;
}

(* Every forked site server, so an abnormal exit still stops them. *)
let children : int list ref = ref []

let reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  children := List.filter (( <> ) pid) !children

let () = at_exit (fun () -> List.iter reap !children)

let mkdir_p d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let start wl ~gen =
  let ft = Inputs.ft2 () in
  mkdir_p run_root;
  let dir = Printf.sprintf "%s/%d-%d" run_root (Unix.getpid ()) gen in
  mkdir_p dir;
  let addrs =
    Array.init Inputs.n_sites (fun s ->
        Sockio.Unix_path (Printf.sprintf "%s/s%d.sock" dir s))
  in
  let frags site =
    List.filter_map
      (fun fid ->
        if Inputs.assign fid = site then
          Some (fid, (Fragment.fragment ft fid).Fragment.root)
        else None)
      (List.init (Fragment.n_fragments ft) Fun.id)
  in
  let pids =
    Array.to_list
      (Array.mapi
         (fun site addr ->
           let pid =
             Server.spawn ~service_delay:wl.site_delay_s ~addr
               ~frags:(frags site) ()
           in
           children := pid :: !children;
           pid)
         addrs)
  in
  let mux = Client.create ~timeout:30. ~addrs () in
  let cache = if wl.cache then Some (Cache.create ft) else None in
  let engine =
    Probe.engine
      (Engines.pax2 ft ~n_sites:Inputs.n_sites ~assign:Inputs.assign)
  in
  let coord =
    Coordinator.create ~max_inflight ~max_queue ?cache
      (Coordinator.Sockets mux)
      [ Coordinator.mount ~tune:Probe.tune engine ]
  in
  let feed = Feed.attach ~mux ft in
  { ft; dir; addrs; pids; mux; coord; cache; feed }

let stop sys =
  Coordinator.close sys.coord;
  Client.shutdown_sites sys.mux;
  List.iter reap sys.pids;
  Array.iter
    (function
      | Sockio.Unix_path p -> ( try Sys.remove p with Sys_error _ -> ())
      | Sockio.Tcp _ -> ())
    sys.addrs;
  try Sys.rmdir sys.dir with Sys_error _ -> ()

(* The site servers' counters whose series name starts with [prefix],
   summed over sites and labels. *)
let server_counter sys prefix =
  let total = ref 0. in
  for site = 0 to Inputs.n_sites - 1 do
    List.iter
      (fun (series, v) ->
        if String.starts_with ~prefix series then total := !total +. v)
      (Client.fetch_stats sys.mux site)
  done;
  !total

let recv_frames = "pax_net_visit_frames_total{dir=\"recv\"}"

(* ---------------- operations ------------------------------------- *)

type failure = Rejected of string | Failed of string

let failure_message = function Rejected m | Failed m -> m

type read = {
  query : string;
  version : int;  (** writes applied before it ran *)
  due : float;
      (** open loop: when it was scheduled; closed loop: when its
          client became ready *)
  sub : float;
  fin : float;
  pred : float option;  (** admission prediction, seconds *)
  res : (Pe.outcome * Probe.exec, failure) result;
}

(* What a read's latency spans.  Closed loop: from submit to the answer
   reaching the client.  Open loop: from the due time to the end of the
   engine's execution, stamped by the bench-side engine, not by the
   collector. *)
let extent ~open_loop r =
  match r.res with
  | Ok (_, x) when open_loop -> (r.due, x.Probe.x_end)
  | _ -> (r.sub, r.fin)

type write = {
  w_node : int;
  w_text : string;
  w_version : int;  (** position in the applied order, from 1 *)
  w_start : float;
  w_locked : float;
  w_applied : float;
  w_pushed : float;
  w_published : float;
  w_fid : int;
  w_err : string option;
}

type state = {
  sys : system;
  rw : Rw.t;
  mutable applied : int;  (** writes applied so far *)
  mutable writes : write list;
  reads_lock : Mutex.t;
  mutable reads : read list;
}

let record_read st r =
  Mutex.lock st.reads_lock;
  st.reads <- r :: st.reads;
  Mutex.unlock st.reads_lock

let claim tk =
  match Coordinator.await tk with
  | Ok o -> Ok (o, Probe.claim o)
  | Error e -> Error (Failed (Printexc.to_string e))

let submit st ?deadline q =
  let pred =
    Admit.predict (Coordinator.admit st.sys.coord) ~engine:"pax2" ~query:q
  in
  let sub = Mono.now () in
  (pred, sub, Coordinator.submit ?deadline st.sys.coord q)

let closed_read st ~due q =
  let r =
    Rw.read st.rw (fun () ->
        let version = st.applied in
        let pred, sub, ticket = submit st q in
        let res =
          match ticket with
          | Error e -> Error (Rejected (Coordinator.error_message e))
          | Ok tk -> claim tk
        in
        { query = q; version; due; sub; fin = Mono.now (); pred; res })
  in
  record_read st r;
  r

let do_write st (node, text) =
  let w_start = Mono.now () in
  Rw.write st.rw (fun () ->
      let w_locked = Mono.now () in
      let sys = st.sys in
      match Update.apply sys.ft (Update.Set_text (node, text)) with
      | Error e ->
          failwith ("perfbench: write failed: " ^ Update.error_to_string e)
      | Ok fid ->
          let w_applied = Mono.now () in
          let pushed =
            Feed.push_fragment sys.feed ~site:(Inputs.assign fid) ~fid
              ~epoch:0
          in
          let w_pushed = Mono.now () in
          Feed.publish sys.feed ~fids:[ fid ];
          let w_published = Mono.now () in
          st.applied <- st.applied + 1;
          let w =
            {
              w_node = node; w_text = text; w_version = st.applied; w_start;
              w_locked; w_applied; w_pushed; w_published; w_fid = fid;
              w_err = (match pushed with Ok _ -> None | Error e -> Some e);
            }
          in
          st.writes <- w :: st.writes)

let run_op st ~due = function
  | Inputs.Read q -> (closed_read st ~due q).fin
  | Inputs.Write { node; text } ->
      do_write st (node, text);
      Mono.now ()

(* One client thread per stream, each drawing operations until [until]
   (given its count so far) says stop. *)
let closed_loop st ~streams ~until =
  let client next () =
    let ready = ref (Mono.now ()) in
    let n = ref 0 in
    while not (until !n) do
      ready := run_op st ~due:!ready (next ());
      incr n
    done
  in
  List.iter Thread.join
    (List.map (fun next -> Thread.create (client next) ()) streams)

(* One generator thread submits on schedule, one collector thread
   awaits the tickets in order. *)
let open_loop st ~rate ~next ~t0 ~t_end =
  let q = Queue.create () and m = Mutex.create () and c = Condition.create () in
  let push item =
    Mutex.lock m;
    Queue.push item q;
    Condition.signal c;
    Mutex.unlock m
  in
  let generator () =
    let k = ref 0 in
    let continue = ref true in
    while !continue do
      let due = t0 +. (float_of_int !k /. rate) in
      if due >= t_end then continue := false
      else begin
        let query = Inputs.reads_only next () in
        let d = due -. Mono.now () in
        if d > 0. then Thread.delay d;
        (* Deadlines are absolute times on the program's clock. *)
        let deadline = Clock.now () +. (due +. latency_limit_s -. Mono.now ()) in
        let pred, sub, ticket = submit st ~deadline query in
        push (Some (query, due, sub, pred, ticket));
        incr k
      end
    done;
    push None
  in
  let collector () =
    let rec go () =
      Mutex.lock m;
      while Queue.is_empty q do Condition.wait c m done;
      let item = Queue.pop q in
      Mutex.unlock m;
      match item with
      | None -> ()
      | Some (query, due, sub, pred, ticket) ->
          let res =
            match ticket with
            | Error e -> Error (Rejected (Coordinator.error_message e))
            | Ok tk -> claim tk
          in
          record_read st
            { query; version = 0; due; sub; fin = Mono.now (); pred; res };
          go ()
    in
    go ()
  in
  let g = Thread.create generator () and col = Thread.create collector () in
  Thread.join g;
  Thread.join col

(* ---------------- correctness oracle ----------------------------- *)

(* Every read's answer must equal sequential in-process evaluation
   ([Pe.run_text], no transport) on a freshly generated FT2 carrying
   the writes applied before the read, in their applied order; every
   audit must pass.  Returns the failed reads. *)
let check_reads reads writes =
  let ft = Inputs.ft2 () in
  let eng = Engines.pax2 ft ~n_sites:Inputs.n_sites ~assign:Inputs.assign in
  let by_version = Hashtbl.create 16 in
  List.iter (fun r -> Hashtbl.add by_version r.version r) reads;
  let max_v = List.fold_left (fun v r -> max v r.version) 0 reads in
  let writes =
    List.sort (fun a b -> compare a.w_version b.w_version) writes
    |> Array.of_list
  in
  let bad = ref [] in
  for v = 0 to max_v do
    if v > 0 then begin
      let w = writes.(v - 1) in
      match Update.apply ft (Update.Set_text (w.w_node, w.w_text)) with
      | Ok _ -> ()
      | Error e -> failwith ("perfbench: replay: " ^ Update.error_to_string e)
    end;
    let memo = Hashtbl.create 64 in
    let expect q =
      match Hashtbl.find_opt memo q with
      | Some keys -> keys
      | None ->
          let keys = (Pe.run_text eng q).Pe.answer_keys in
          Hashtbl.replace memo q keys;
          keys
    in
    List.iter
      (fun r ->
        match r.res with
        | Ok (o, _)
          when o.Pe.audit.Pax_obs.Audit.pass
               && o.Pe.answer_keys = expect r.query ->
            ()
        | _ -> bad := r :: !bad)
      (Hashtbl.find_all by_version v)
  done;
  !bad

(* ---------------- reconciliation --------------------------------- *)

(* [parts] gives (latency, late, wait, exec, rpc) per traced read, in
   seconds.  The parts of a read must never exceed its latency, its
   summed rpc time must never exceed its execution, and together the
   parts must account for all but [max_unattributed] of the summed
   latency.  Returns the verdict and the unattributed share. *)
let reconcile parts =
  let eps = 1e-6 in
  let within =
    List.for_all
      (fun (lat, late, wait, exec, rpc) ->
        late +. wait +. exec <= lat +. eps && rpc <= exec +. eps)
      parts
  in
  let total = sum (fun (lat, _, _, _, _) -> lat) parts in
  let attributed = sum (fun (_, late, wait, exec, _) -> late +. wait +. exec) parts in
  let unattributed = ratio (total -. attributed) total in
  (within && unattributed <= max_unattributed, unattributed)

(* ---------------- one run ---------------------------------------- *)

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;
}

let write_spans ~wl ~extent reads writes =
  mkdir_p run_root;
  let oc = open_out (Printf.sprintf "%s/spans-%s.tsv" run_root wl.name) in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "request\tspan\tstart\tend\n";
      let span id name t0 t1 = Printf.fprintf oc "%d\t%s\t%.6f\t%.6f\n" id name t0 t1 in
      List.iteri
        (fun id r ->
          match r.res with
          | Ok (_, x) when x.Probe.x_traced ->
              let t0, t1 = extent r in
              span id "request" t0 t1;
              span id "gen.late" r.due r.sub;
              span id "sched.wait" r.sub x.Probe.x_start;
              span id "engine.exec" x.Probe.x_start x.Probe.x_end;
              List.iter (fun (t0, t1) -> span id "net.rpc" t0 t1) x.Probe.x_rpcs
          | _ -> ())
        reads;
      let base = List.length reads in
      List.iteri
        (fun i w ->
          let id = base + i in
          span id "write" w.w_start w.w_published;
          span id "update.wait" w.w_start w.w_locked;
          span id "update.apply" w.w_locked w.w_applied;
          span id "update.push" w.w_applied w.w_pushed;
          span id "update.publish" w.w_pushed w.w_published)
        writes)

(* Bytes of a varint-coded non-negative int on the wire. *)
let varint_width v =
  let rec go v n = if v < 128 then n else go (v lsr 7) (n + 1) in
  go v 1

let run_workload wl ~seed ~seconds ~traced =
  (* [Client.fresh_run_id] forces a shared lazy on first use, guarded by
     [Lazy.is_val], which is already true while another thread is still
     forcing it: two scheduler workers starting the first runs together
     can fail with CamlinternalLazy.Undefined.  Forcing it here, before
     any load, keeps that start-up race out of every workload. *)
  let run_id_bytes = varint_width (Client.fresh_run_id ()) in
  (* ---- set-up, several times; the last one is kept ---- *)
  let setup_times = ref [] in
  let all_reads = ref [] in
  let last = ref None in
  for gen = 1 to setups do
    let t0 = Mono.now () in
    let sys = start wl ~gen in
    let st =
      { sys; rw = Rw.create (); applied = 0; writes = [];
        reads_lock = Mutex.create (); reads = [] }
    in
    let inp = Inputs.of_tree sys.ft in
    let per = warmup_reads / clients in
    closed_loop st
      ~streams:
        (List.init clients (fun i ->
             let next =
               Inputs.reads_only
                 (Inputs.stream inp ~mix:wl.mix ~seed ~id:(100 + i))
             in
             fun () -> Inputs.Read (next ())))
      ~until:(fun n -> n >= per);
    setup_times := (Mono.now () -. t0) :: !setup_times;
    all_reads := st.reads @ !all_reads;
    if gen < setups then stop sys else last := Some (st, inp)
  done;
  let st, inp = Option.get !last in
  let sys = st.sys in
  let setup_s = percentile !setup_times 50. in
  (* ---- count probe: sequential, so its counts repeat exactly ---- *)
  st.reads <- [];
  let probe_next =
    Inputs.reads_only (Inputs.stream inp ~mix:wl.mix ~seed ~id:200)
  in
  let probe_queries = Inputs.take count_probe_reads probe_next in
  List.iter (fun q -> ignore (closed_read st ~due:(Mono.now ()) q)) probe_queries;
  let probe_reads = List.rev st.reads in
  st.reads <- [];
  (* ---- the timed window ---- *)
  let frames0 = server_counter sys recv_frames in
  let fvisits0 = server_counter sys "pax_site_fragment_visits_total" in
  let evicted0 = server_counter sys "pax_srv_runs_evicted_total" in
  let t_start = Mono.now () in
  let t_end = t_start +. seconds in
  if traced then
    Probe.traced_at :=
      (fun t -> int_of_float ((t -. t_start) /. slice_s) mod 2 = 1);
  let open_loop_wl = match wl.loop with Open _ -> true | Closed -> false in
  (match wl.loop with
  | Closed ->
      closed_loop st
        ~streams:
          (List.init clients (fun i ->
               Inputs.stream inp ~mix:wl.mix ~seed ~id:i))
        ~until:(fun _ -> Mono.now () >= t_end)
  | Open { rate } ->
      open_loop st ~rate
        ~next:(Inputs.stream inp ~mix:wl.mix ~seed ~id:0)
        ~t0:t_start ~t_end);
  Probe.traced_at := (fun _ -> false);
  let window_reads = List.rev st.reads in
  let window_writes = List.rev st.writes in
  let n_window = List.length window_reads in
  let frames = server_counter sys recv_frames -. frames0 in
  let fvisits = server_counter sys "pax_site_fragment_visits_total" -. fvisits0 in
  let evicted = server_counter sys "pax_srv_runs_evicted_total" -. evicted0 in
  let cache_entries =
    match sys.cache with Some c -> float_of_int (Cache.size c) | None -> 0.
  in
  (* ---- write probe on the read-only workloads ---- *)
  let writes =
    if window_writes <> [] || not traced then window_writes
    else begin
      (* The window leaves garbage behind; collect it first, so the probe
         times the write path rather than the read window's GC debt. *)
      Gc.full_major ();
      let next = Inputs.write_stream inp ~seed ~id:300 in
      for _ = 1 to write_probes do
        (match next () with
        | Inputs.Write { node; text } -> do_write st (node, text)
        | Inputs.Read _ -> ());
        Thread.delay write_probe_gap_s
      done;
      List.rev st.writes
    end
  in
  let rss_mb =
    float_of_int
      (vm_hwm_kb "self"
      + List.fold_left (fun a pid -> a + vm_hwm_kb (string_of_int pid)) 0 sys.pids)
    /. 1024.
  in
  stop sys;
  (* ---- correctness ---- *)
  let reads_checked = !all_reads @ probe_reads @ window_reads in
  let bad_reads = check_reads reads_checked st.writes in
  let bad_writes = count (fun w -> w.w_err <> None) st.writes in
  let attempted = List.length reads_checked + List.length st.writes in
  let failed = List.length bad_reads + bad_writes in
  let notes = ref [] in
  let note s = notes := s :: !notes in
  List.iteri
    (fun i r ->
      if i < 5 then
        note
          (Printf.sprintf "wrong or failed read %S: %s" r.query
             (match r.res with
             | Ok _ -> "answer or audit mismatch"
             | Error e -> failure_message e)))
    bad_reads;
  (* ---- metrics ---- *)
  let ok_window =
    List.filter_map
      (fun r -> match r.res with Ok (o, x) -> Some (r, o, x) | Error _ -> None)
      window_reads
  in
  let extent = extent ~open_loop:open_loop_wl in
  let lat r = let t0, t1 = extent r in t1 -. t0 in
  let late = List.map (fun r -> r.sub -. r.due) window_reads in
  let late_p99 = percentile late 99. in
  let generator_ok = (not open_loop_wl) || late_p99 <= max_late_p99_s in
  if not generator_ok then
    note (Printf.sprintf "open-loop generator fell behind: late p99 %.2f ms"
            (ms late_p99));
  let write_lat = List.map (fun w -> w.w_published -. w.w_start) writes in
  let metrics, parts =
    if not traced then begin
      let completed =
        count (fun (r, _, _) -> r.fin <= t_end || open_loop_wl) ok_window
        + count (fun w -> w.w_published <= t_end) window_writes
      in
      let read_lat = List.map (fun (r, _, _) -> lat r) ok_window in
      (* Open loop: the schedule fixes the count, so the rate is taken
         over the time the answers took to arrive. *)
      let elapsed =
        if open_loop_wl then
          List.fold_left (fun t (r, _, _) -> Float.max t (lat r +. r.due)) t_start ok_window
          -. t_start
        else seconds
      in
      ( [
          metric "qps" "1/s" (float_of_int completed /. elapsed);
          metric "p50_ms" "ms" (ms (percentile read_lat 50.));
          metric "p95_ms" "ms" (ms (percentile read_lat 95.));
          metric "setup_s" "s" setup_s;
          metric "rss_mb" "MB" rss_mb;
        ],
        [] )
    end
    else begin
      let tr = List.filter (fun (_, _, x) -> x.Probe.x_traced) ok_window in
      let untr = List.filter (fun (_, _, x) -> not x.Probe.x_traced) ok_window in
      let wait (r, _, x) = x.Probe.x_start -. r.sub in
      let exec (_, _, x) = x.Probe.x_end -. x.Probe.x_start in
      let rpc (_, _, x) = Probe.rpc_seconds x in
      let msl f l = List.map (fun e -> ms (f e)) l in
      let rpcs =
        List.concat_map
          (fun (_, _, x) -> List.map (fun (t0, t1) -> ms (t1 -. t0)) x.Probe.x_rpcs)
          tr
      in
      let lookups = sum (fun (_, _, x) -> float_of_int x.Probe.x_lookups) tr in
      let hits = sum (fun (_, _, x) -> float_of_int x.Probe.x_hits) tr in
      let n_tr = float_of_int (List.length tr) in
      let p50_of l = percentile (List.map (fun (r, _, _) -> lat r) l) 50. in
      (* Counts over the sequential probe: visits and rounds from the
         cluster report, bytes from its measured socket bytes.  Every
         visit's request and reply carry the run id, varint-coded from
         a random per-process base that is 8 bytes wide in 63 processes
         out of 64; bytes are counted at that width so they repeat
         exactly. *)
      let probe_ok =
        List.filter_map
          (fun r -> match r.res with Ok (o, _) -> Some o | Error _ -> None)
          probe_reads
      in
      let per_probe f = mean (List.map f probe_ok) in
      let report (o : Pe.outcome) = o.Pe.report in
      let kernel =
        let ft = Inputs.ft2 () in
        let eng = Engines.pax2 ft ~n_sites:Inputs.n_sites ~assign:Inputs.assign in
        List.map (fun q -> (Pe.run_text eng q).Pe.report) probe_queries
      in
      let parts =
        List.map
          (fun ((r, _, _) as e) ->
            let late = if open_loop_wl then r.sub -. r.due else 0. in
            (lat r, late, wait e, exec e, rpc e))
          tr
      in
      let wr f = List.map f writes in
      ( [
          metric "sched.wait_ms.p50" "ms" (percentile (msl wait tr) 50.);
          metric "sched.wait_ms.p99" "ms" (percentile (msl wait tr) 99.);
          metric "sched.rejected" "count"
            (float_of_int
               (count
                  (fun r ->
                    match r.res with Error (Rejected _) -> true | _ -> false)
                  window_reads));
          metric "admit.pred_ratio.p50" "ratio"
            (percentile
               (List.filter_map
                  (fun ((r, _, _) as e) ->
                    Option.map (fun p -> ratio p (exec e)) r.pred)
                  tr)
               50.);
          metric "engine.exec_ms.p50" "ms" (percentile (msl exec tr) 50.);
          metric "engine.exec_ms.p99" "ms" (percentile (msl exec tr) 99.);
          metric "engine.coord_ms.p50" "ms"
            (percentile (msl (fun e -> exec e -. rpc e) tr) 50.);
          (* The report's clock steps in microseconds: a mean, since a
             median would repeat exactly. *)
          metric "unify.ms.mean" "ms"
            (mean
               (List.map (fun (_, o, _) -> ms (report o).Pax_dist.Cluster.coord_seconds) tr));
          metric "kernel.ms_per_query" "ms"
            (mean (List.map (fun (rp : Pax_dist.Cluster.report) -> ms rp.total_seconds) kernel));
          metric "kernel.ops_per_query" "count"
            (mean (List.map (fun (rp : Pax_dist.Cluster.report) -> float_of_int rp.total_ops) kernel));
          metric "net.rpc_ms.p50" "ms" (percentile rpcs 50.);
          metric "net.rpc_ms.p99" "ms" (percentile rpcs 99.);
          metric "net.rounds_per_query" "count"
            (per_probe (fun o -> float_of_int (List.length (report o).rounds)));
          metric "net.visits_per_query" "count"
            (per_probe (fun o ->
                 float_of_int (Array.fold_left ( + ) 0 (report o).visits)));
          metric "net.bytes_per_query" "B"
            (per_probe (fun o ->
                 let rp = report o in
                 let visits = Array.fold_left ( + ) 0 rp.visits in
                 float_of_int
                   (Option.value rp.measured_bytes ~default:0
                   + ((8 - run_id_bytes) * 2 * visits))));
          metric "net.retries" "count"
            (sum (fun (_, _, x) -> float_of_int x.Probe.x_retries) tr);
          metric "server.visit_frames_per_query" "count"
            (ratio frames (float_of_int n_window));
          metric "server.frag_visits_per_query" "count"
            (ratio fvisits (float_of_int n_window));
          metric "server.runs_evicted" "count" evicted;
          metric "cache.lookups_per_query" "count" (ratio lookups n_tr);
          metric "cache.hit_ratio" "ratio" (ratio hits lookups);
          metric "cache.entries" "count" cache_entries;
          metric "update.write_ms.p50" "ms" (ms (percentile write_lat 50.));
          metric "update.write_ms.p90" "ms" (ms (percentile write_lat 90.));
          metric "update.wait_ms.p50" "ms"
            (percentile (wr (fun w -> ms (w.w_locked -. w.w_start))) 50.);
          metric "update.apply_ms.p50" "ms"
            (percentile (wr (fun w -> ms (w.w_applied -. w.w_locked))) 50.);
          metric "update.push_ms.p50" "ms"
            (percentile (wr (fun w -> ms (w.w_pushed -. w.w_applied))) 50.);
          metric "update.push_bytes" "B"
            (mean
               (wr (fun w ->
                    float_of_int
                      (String.length
                         (Pax_xml.Flat.encode (Fragment.flat sys.ft w.w_fid))))));
          metric "update.publish_ms.p50" "ms"
            (percentile (wr (fun w -> ms (w.w_published -. w.w_pushed))) 50.);
          metric "read.p99_ms" "ms"
            (ms (percentile (List.map (fun (r, _, _) -> lat r) ok_window) 99.));
          metric "gen.late_ms.p99" "ms" (ms late_p99);
          metric "trace.overhead_ratio" "ratio" (ratio (p50_of tr) (p50_of untr));
        ],
        parts )
    end
  in
  let reconciled, unattributed = reconcile parts in
  let metrics =
    if traced then metrics @ [ metric "trace.unattributed_ratio" "ratio" unattributed ]
    else metrics
  in
  if traced then write_spans ~wl ~extent window_reads writes;
  if not reconciled then
    note
      (Printf.sprintf "reconciliation failed: %.1f%% of the latency unattributed"
         (100. *. unattributed));
  {
    correct = failed = 0 && generator_ok && reconciled;
    attempted;
    failed;
    metrics;
    notes = List.rev !notes;
  }

(* ---------------- output ----------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Numbers with all their digits; a non-finite value makes the run
   incorrect rather than the line unparsable. *)
let print_result (o : outcome) =
  let finite = List.for_all (fun m -> Float.is_finite m.m_value) o.metrics in
  List.iter
    (fun m -> Printf.printf "  %-32s %14.4f %s\n" m.m_name m.m_value m.m_unit)
    o.metrics;
  List.iter (fun n -> Printf.printf "  note: %s\n" n) o.notes;
  let metrics =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
             (json_string m.m_name)
             (if Float.is_finite m.m_value then Printf.sprintf "%.17g" m.m_value
              else "0")
             (json_string m.m_unit))
         o.metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (o.correct && finite) o.attempted o.failed metrics;
  o.correct && finite

(* ---------------- self-test -------------------------------------- *)

(* Checks that need no servers: one seed always yields the same
   operation sequence (and another seed another one), and the
   reconciliation rules reject what they must. *)
let selftest () =
  let ft = Inputs.ft2 () in
  let inp = Inputs.of_tree ft in
  let ok = ref true in
  let check what b =
    Printf.printf "  %-60s %s\n" what (if b then "ok" else "FAIL");
    if not b then ok := false
  in
  List.iter
    (fun wl ->
      let seq seed id =
        List.map Inputs.op_to_string
          (Inputs.take 2000 (Inputs.stream inp ~mix:wl.mix ~seed ~id))
      in
      check (wl.name ^ ": same seed, same operations") (seq 7 0 = seq 7 0);
      check (wl.name ^ ": another seed, other operations") (seq 7 0 <> seq 8 0);
      check (wl.name ^ ": another stream, other operations") (seq 7 0 <> seq 7 1))
    workloads;
  let writes =
    List.filter
      (function Inputs.Write _ -> true | Inputs.Read _ -> false)
      (Inputs.take 2000
         (Inputs.stream inp ~mix:Inputs.Zipf_rw ~seed:7 ~id:0))
  in
  check "serve-update: about one write in 20"
    (let n = List.length writes in n > 60 && n < 140);
  check "data: one write target per person field"
    (Array.length inp.Inputs.age_nodes > 0
    && Array.length inp.Inputs.country_nodes > 0
    && Array.length inp.Inputs.countries > 1);
  let good = (0.010, 0.0005, 0.004, 0.0052, 0.003) in
  let passes p = fst (reconcile p) in
  check "reconciliation: parts that add up pass" (passes [ good ]);
  check "reconciliation: parts short of the latency fail"
    (not (passes [ (0.030, 0., 0.004, 0.006, 0.003) ]));
  check "reconciliation: parts beyond the latency fail"
    (not (passes [ (0.010, 0., 0.004, 0.008, 0.003) ]));
  check "reconciliation: rpc time beyond the execution fails"
    (not (passes [ (0.010, 0., 0.004, 0.006, 0.007) ]));
  check "reconciliation: one slow hand-off in 20 is tolerated"
    (passes ((0.030, 0., 0.004, 0.006, 0.003) :: List.init 19 (fun _ -> good)));
  !ok

(* ---------------- entry point ------------------------------------ *)

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       perfbench.exe selftest";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | [ _; "selftest" ] -> exit (if selftest () then 0 else 1)
  | _ :: args ->
      let rec parse acc = function
        | k :: v :: rest when String.starts_with ~prefix:"--" k ->
            parse ((k, v) :: acc) rest
        | [] -> acc
        | _ -> usage ()
      in
      let opts = parse [] args in
      let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
      let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
      let wl =
        match List.find_opt (fun w -> w.name = get "--workload") workloads with
        | Some w -> w
        | None -> usage ()
      in
      let traced = match get "--trace" with "0" -> false | "1" -> true | _ -> usage () in
      let seconds = float_of_int (int "--seconds") in
      if seconds <= 0. then usage ();
      Printf.printf "perfbench %s seed %d, %.0f s, %s\n%!" wl.name (int "--seed")
        seconds (if traced then "traced" else "untraced");
      let o = run_workload wl ~seed:(int "--seed") ~seconds ~traced in
      exit (if print_result o then 0 else 1)
  | [] -> usage ()
