(* Admission control and QoS scheduling for the serving coordinator: a
   bounded queue of submitted jobs, a fixed pool of worker threads (max
   in-flight runs), weighted-fair rotation over submission sources
   within priority classes, and deadline-based shedding driven by the
   paper's predictable per-query cost (docs/SERVING.md).

   Dispatch order: strict priority between classes (a higher class
   with pending work always dispatches first), weighted round-robin
   within a class (a source with weight [w] gets up to [w] consecutive
   dispatches before the rotation moves on), FIFO within a source.
   Every source defaults to weight 1 / priority 0, which reproduces
   the plain fair round-robin this scheduler started as. *)

type rejection =
  | Overloaded of { queued : int; max_queue : int; est_latency : float }
  | Deadline_infeasible of { deadline : float; est_latency : float }
  | Closed

let pp_rejection ppf = function
  | Overloaded { queued; max_queue; est_latency } ->
      Format.fprintf ppf "overloaded (%d queued, max %d, est latency %.0fms)"
        queued max_queue (1000. *. est_latency)
  | Deadline_infeasible { deadline = _; est_latency } ->
      Format.fprintf ppf "deadline infeasible (est latency %.0fms)"
        (1000. *. est_latency)
  | Closed -> Format.fprintf ppf "closed"

type 'a state = Waiting | Finished of ('a, exn) result

type 'a ticket = {
  tk_lock : Mutex.t;
  tk_cond : Condition.t;
  mutable tk_state : 'a state;
}

(* j_run never raises: it catches and deposits into its ticket. *)
type job = {
  j_run : unit -> unit;
  j_label : string;
  j_submitted : float;
  j_cost : float;  (* predicted seconds; 0 when the predictor is cold *)
}

(* A submission source: its FIFO plus its QoS configuration.  The
   record persists across empty periods so [configure_source] settings
   survive bursts. *)
type src = {
  s_name : string;
  s_q : job Queue.t;
  mutable s_weight : int;
  mutable s_priority : int;
  mutable s_listed : bool;
      (* somewhere in a level's rotation or current slot; sources are
         listed iff their FIFO is nonempty *)
}

(* One priority class: its rotation of listed sources plus the source
   currently holding the dispatch slot with its remaining credit. *)
type level = {
  l_prio : int;
  l_rr : src Queue.t;
  mutable l_cur : (src * int) option;
}

type t = {
  max_inflight : int;
  max_queue : int;
  lock : Mutex.t;
  cond : Condition.t;
  sources : (string, src) Hashtbl.t;
  levels : (int, level) Hashtbl.t;
  mutable queued : int;
  mutable pending_cost : float;
      (* summed predicted cost of queued jobs — the queue-depth term of
         the admission latency estimate *)
  mutable inflight : int;
  mutable closed : bool;
  mutable workers : Thread.t list;
  sink : Pax_obs.Sink.t;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let depth_gauge t =
  Pax_obs.Sink.set t.sink "pax_serve_queue_depth" (float_of_int t.queued)

let src_for_locked t source =
  match Hashtbl.find_opt t.sources source with
  | Some s -> s
  | None ->
      let s =
        {
          s_name = source;
          s_q = Queue.create ();
          s_weight = 1;
          s_priority = 0;
          s_listed = false;
        }
      in
      Hashtbl.replace t.sources source s;
      s

let level_for_locked t prio =
  match Hashtbl.find_opt t.levels prio with
  | Some lvl -> lvl
  | None ->
      let lvl = { l_prio = prio; l_rr = Queue.create (); l_cur = None } in
      Hashtbl.replace t.levels prio lvl;
      lvl

(* List a source (nonempty FIFO, not yet listed) into its class's
   rotation. *)
let list_src_locked t s =
  s.s_listed <- true;
  Queue.push s (level_for_locked t s.s_priority).l_rr

let took_locked t job =
  t.queued <- t.queued - 1;
  t.pending_cost <- Float.max 0. (t.pending_cost -. job.j_cost);
  depth_gauge t;
  job

(* Pop the next job: strict priority between classes, weighted
   round-robin within the chosen class, FIFO within the source.
   Caller holds the lock and has checked queued > 0. *)
let rec take_locked t =
  let best = ref None in
  Hashtbl.iter
    (fun prio lvl ->
      if lvl.l_cur <> None || not (Queue.is_empty lvl.l_rr) then
        match !best with
        | Some (p, _) when p >= prio -> ()
        | _ -> best := Some (prio, lvl))
    t.levels;
  match !best with
  | None -> assert false (* queued > 0 implies a level has work *)
  | Some (_, lvl) -> (
      match lvl.l_cur with
      | Some (s, credit) ->
          (* The slot holder spends one credit per dispatch; it yields
             the slot when drained or out of credit. *)
          let job = Queue.pop s.s_q in
          if Queue.is_empty s.s_q then begin
            s.s_listed <- false;
            lvl.l_cur <- None
          end
          else if credit <= 1 then begin
            lvl.l_cur <- None;
            Queue.push s lvl.l_rr
          end
          else lvl.l_cur <- Some (s, credit - 1);
          took_locked t job
      | None ->
          let s = Queue.pop lvl.l_rr in
          if s.s_priority <> lvl.l_prio then begin
            (* The source was reconfigured while listed here; migrate
               it to its current class and re-pick. *)
            Queue.push s (level_for_locked t s.s_priority).l_rr;
            take_locked t
          end
          else begin
            let job = Queue.pop s.s_q in
            if Queue.is_empty s.s_q then s.s_listed <- false
            else if s.s_weight > 1 then lvl.l_cur <- Some (s, s.s_weight - 1)
            else Queue.push s lvl.l_rr;
            took_locked t job
          end)

let worker t =
  let rec loop () =
    let job =
      locked t (fun () ->
          while (not t.closed) && t.queued = 0 do
            Condition.wait t.cond t.lock
          done;
          if t.queued = 0 then None (* closed and drained *)
          else begin
            t.inflight <- t.inflight + 1;
            Some (take_locked t)
          end)
    in
    match job with
    | None -> ()
    | Some job ->
        Pax_obs.Sink.span t.sink ~track:"scheduler" ~cat:"job" job.j_label
          job.j_run;
        (* End-to-end latency including queue wait (submit → finish),
           through the injectable clock so the cost ledger is
           deterministic under [Clock.Fake]. *)
        Pax_obs.Sink.observe t.sink "pax_serve_latency_seconds"
          (Pax_obs.Clock.now () -. job.j_submitted);
        Pax_obs.Sink.count t.sink "pax_serve_completed_total";
        (* No one waits for [inflight] to fall: [t.cond] only wakes
           idle workers once [queued > 0]. *)
        locked t (fun () -> t.inflight <- t.inflight - 1);
        loop ()
  in
  loop ()

let create ?(max_inflight = 4) ?(max_queue = 64) ?(sink = Pax_obs.Sink.noop) ()
    =
  if max_inflight < 1 then invalid_arg "Sched.create: need max_inflight >= 1";
  if max_queue < 1 then invalid_arg "Sched.create: need max_queue >= 1";
  let t =
    {
      max_inflight;
      max_queue;
      lock = Mutex.create ();
      cond = Condition.create ();
      sources = Hashtbl.create 16;
      levels = Hashtbl.create 4;
      queued = 0;
      pending_cost = 0.;
      inflight = 0;
      closed = false;
      workers = [];
      sink;
    }
  in
  t.workers <- List.init max_inflight (fun _ -> Thread.create worker t);
  t

let configure_source t ~source ?weight ?priority () =
  (match weight with
  | Some w when w < 1 -> invalid_arg "Sched.configure_source: need weight >= 1"
  | _ -> ());
  locked t (fun () ->
      let s = src_for_locked t source in
      Option.iter (fun w -> s.s_weight <- w) weight;
      (* A priority change takes effect as the queue drains: a source
         listed under its old class migrates lazily at its next
         dispatch turn. *)
      Option.iter (fun p -> s.s_priority <- p) priority)

let finish tk result =
  Mutex.lock tk.tk_lock;
  tk.tk_state <- Finished result;
  Condition.broadcast tk.tk_cond;
  Mutex.unlock tk.tk_lock

let shed t ~reason rejection =
  Pax_obs.Sink.count t.sink ~labels:[ ("reason", reason) ]
    "pax_serve_rejected_total";
  Pax_obs.Sink.count t.sink ~labels:[ ("reason", reason) ]
    "pax_sched_shed_total";
  Error rejection

let submit t ~source ?(label = "query") ?deadline ?(cost = 0.) f =
  let tk =
    { tk_lock = Mutex.create (); tk_cond = Condition.create ();
      tk_state = Waiting }
  in
  let now = Pax_obs.Clock.now () in
  let job =
    {
      j_run =
        (fun () ->
          finish tk (match f () with v -> Ok v | exception e -> Error e));
      j_label = label;
      j_submitted = now;
      j_cost = cost;
    }
  in
  locked t (fun () ->
      (* The admission latency estimate: queued predicted work spread
         over the worker pool, plus this job's own predicted cost.  The
         paper makes the cost term available *before* execution — the
         auditor's |Q|·|T| bound, calibrated by the cost ledger
         (docs/SERVING.md). *)
      let est_latency =
        (t.pending_cost /. float_of_int t.max_inflight) +. cost
      in
      if t.closed then shed t ~reason:"closed" Closed
      else
        match deadline with
        (* Infeasibility wins over queue-full: `Overloaded` invites a
           retry, but a deadline this estimate cannot meet stays
           unmeetable however often the client resubmits. *)
        | Some d when now +. est_latency > d ->
            shed t ~reason:"deadline"
              (Deadline_infeasible { deadline = d; est_latency })
        | _ ->
            if t.queued >= t.max_queue then
              shed t ~reason:"overloaded"
                (Overloaded
                   { queued = t.queued; max_queue = t.max_queue; est_latency })
            else begin
              let s = src_for_locked t source in
              if not s.s_listed then list_src_locked t s;
              Queue.push job s.s_q;
              t.queued <- t.queued + 1;
              t.pending_cost <- t.pending_cost +. cost;
              depth_gauge t;
              Pax_obs.Sink.count t.sink "pax_serve_admitted_total";
              Condition.signal t.cond;
              Ok tk
            end)

let await tk =
  Mutex.lock tk.tk_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock tk.tk_lock)
    (fun () ->
      let rec wait () =
        match tk.tk_state with
        | Waiting ->
            Condition.wait tk.tk_cond tk.tk_lock;
            wait ()
        | Finished r -> r
      in
      wait ())

let queue_depth t = locked t (fun () -> t.queued)
let inflight t = locked t (fun () -> t.inflight)
let est_wait t = locked t (fun () -> t.pending_cost /. float_of_int t.max_inflight)

let close t =
  locked t (fun () ->
      t.closed <- true;
      Condition.broadcast t.cond);
  List.iter Thread.join t.workers
