module Wire = Pax_wire.Wire
module Transport = Pax_dist.Transport

(* ------------------------------------------------------------------ *)
(* Run ids                                                            *)
(* ------------------------------------------------------------------ *)

(* A fresh run id per engine run: servers key their visit state by it,
   so stale state from an aborted run can never leak in.  The id must
   be distinct across rapid successive runs (a clock-derived hash is
   not: two runs inside one clock tick collide) and unlikely to repeat
   across coordinator processes talking to the same servers.  So: the
   low 32 bits come from a process-global monotonic counter — ids
   within a process are *guaranteed* distinct for 2^32 runs — and the
   high bits from a per-process random base read once from
   /dev/urandom (falling back to a pid+clock hash where unavailable).
   The final mask keeps the id inside the 55 bits the wire varint
   decoder accepts (and so non-negative), leaving 23 random bits above
   the counter. *)
let run_id_counter = Atomic.make 0

let run_id_base =
  lazy
    (let of_urandom () =
       let ic = open_in_bin "/dev/urandom" in
       Fun.protect
         ~finally:(fun () -> close_in_noerr ic)
         (fun () ->
           let s = really_input_string ic 8 in
           let v = ref 0 in
           String.iter (fun c -> v := (!v lsl 8) lor Char.code c) s;
           !v)
     in
     let base =
       match of_urandom () with
       | v -> v
       | exception _ -> Hashtbl.hash (Unix.getpid (), Unix.gettimeofday ())
     in
     (* Mix the pid so forked children that inherited the lazy cell
        unforced still diverge. *)
     base lxor (Unix.getpid () * 0x9E3779B9))

(* Lazy.force is not thread-safe and the thunk blocks on /dev/urandom —
   a concurrent scheduler worker forcing mid-read would see
   CamlinternalLazy.Undefined — so every force takes the lock.  There
   is no unlocked fast path: [Lazy.is_val] already answers true while
   another thread is still inside the thunk, so it cannot tell a
   finished cell from one being forced.  The lock is taken once per
   run and is uncontended in steady state.  The cell stays lazy (not
   eager at module load) so a forked child that never forced it still
   derives its own pid-mixed base. *)
let run_id_base_lock = Mutex.create ()

let fresh_run_id () =
  let c = Atomic.fetch_and_add run_id_counter 1 in
  let base =
    Mutex.lock run_id_base_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock run_id_base_lock)
      (fun () -> Lazy.force run_id_base)
  in
  (base land lnot 0xFFFFFFFF lor (c land 0xFFFFFFFF)) land ((1 lsl 55) - 1)

(* Correlation ids are process-global too: a corr in flight is unique
   across every run sharing the process's connections, so a late reply
   to an abandoned request can never be mistaken for anyone else's. *)
let corr_counter = Atomic.make 1
let fresh_corr () = Atomic.fetch_and_add corr_counter 1 land ((1 lsl 55) - 1)

(* ------------------------------------------------------------------ *)
(* The multiplexer                                                    *)
(* ------------------------------------------------------------------ *)

(* The thread that posts requests and then waits for their replies:
   one engine round's collector, or one control-plane call.  It sleeps
   on a condition of its own, so a reply wakes only the thread that
   asked for it, and that thread only once: when [w_open] falls to 0,
   or when a result is an error and [w_failed] is set. *)
type waiter = {
  w_cond : Condition.t;
  mutable w_open : int;  (** its requests with no result yet *)
  mutable w_failed : bool;  (** an error result it has not collected *)
}

(* One request in flight: registered under [lock] before its frame is
   written, filled exactly once — by the site's receiver thread (reply,
   deadline expiry or connection death) — and collected by its
   waiter's thread.  [int] alongside the message is the frame length,
   for the collector's byte accounting. *)
type pending = {
  p_site : int;
  p_deadline : float;
  p_waiter : waiter;
  mutable p_result : (Wire.msg * int, exn) result option;
  mutable p_at : float;  (** when [p_result] was written *)
}

type conn = { c_fd : Unix.file_descr; c_rd : Sockio.reader; c_gen : int }

type t = {
  addrs : Sockio.addr array;
  timeout : float;
  lock : Mutex.t;  (** guards [conns], [pending], [gen] and every waiter *)
  conns : conn option array;
  send_locks : Mutex.t array;  (** one writer at a time per socket *)
  pending : (int, pending) Hashtbl.t;  (** corr -> request *)
  mutable gen : int;
  mutable sink : Pax_obs.Sink.t;
  mutable default_handle : handle option;
  (* The cache-coherence hook (docs/SERVING.md): called by receiver
     threads for every unsolicited [Gen_event] push.  Typically
     [Feed.attach] installs a max-merge into the coordinator's local
     fragment tree, which the stage cache's generation check then
     treats as invalidation. *)
  mutable on_gen : (Wire.frag_kind -> (int * int) list -> unit) option;
}

(* One run's view of the shared connections: its own run id, its own
   byte counters, its own telemetry sink.  A handle is driven by one
   engine run at a time (counters are not locked); many handles
   multiplex over one [t] concurrently. *)
and handle = {
  h_mux : t;
  mutable h_run : int;
  (* Placement epoch stamped on every visit request of this handle's
     runs (docs/SHARDING.md): the coordinator sets it from its
     placement table at admission, so a site that retired a fragment
     can tell stale routing (refuse, typed error, client retries) from
     an older in-flight run it must keep serving.  0 = no placement
     table in play — before the first migration every epoch check
     passes trivially. *)
  mutable h_epoch : int;
  h_touched : bool array;  (** sites contacted during the current run *)
  mutable h_sink : Pax_obs.Sink.t option;  (** [None]: inherit the mux's *)
  mutable sent_bytes : int;
  mutable received_bytes : int;
  mutable section_bytes : int;
  mutable sections : int;
  mutable frag_entries : int;
  mutable frames : int;
}

(* How often a receiver checks its requests' deadlines, whether or not
   frames arrive: a site that keeps answering other requests on the
   connection cannot keep an unanswered one waiting past its deadline
   by more than this. *)
let poll_interval = 0.05

let create ?(timeout = 30.) ~addrs () =
  {
    addrs;
    timeout;
    lock = Mutex.create ();
    conns = Array.make (Array.length addrs) None;
    send_locks = Array.init (Array.length addrs) (fun _ -> Mutex.create ());
    pending = Hashtbl.create 32;
    gen = 0;
    sink = Pax_obs.Sink.noop;
    default_handle = None;
    on_gen = None;
  }

let set_sink t s = t.sink <- s
let n_sites t = Array.length t.addrs

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let new_waiter () =
  { w_cond = Condition.create (); w_open = 0; w_failed = false }

(* Caller holds [t.lock].  Results are written at most once, so a
   racing deadline expiry or a second failure sweep cannot overwrite a
   delivered reply. *)
let settle_locked p r =
  if p.p_result = None then begin
    p.p_result <- Some r;
    p.p_at <- Pax_obs.Clock.now ();
    let w = p.p_waiter in
    w.w_open <- w.w_open - 1;
    let failed = Result.is_error r in
    if failed then w.w_failed <- true;
    if failed || w.w_open = 0 then Condition.signal w.w_cond
  end

(* Fail every request of [site] that has no result yet. *)
let fail_waiters_locked t site e =
  Hashtbl.iter
    (fun _ p -> if p.p_site = site then settle_locked p (Error e))
    t.pending

(* Retire a site's connection (requested by a sender that saw a delivery
   failure).  Shut down, not closed: the receiver may be inside a select
   or read on the descriptor, and only the receiver closes it, on exit —
   a closed number could be reused by the reconnect and read by both
   threads.  The shutdown wakes the receiver; in-flight waiters are
   failed here so their senders retry without waiting for it. *)
let drop t site =
  locked t (fun () ->
      match t.conns.(site) with
      | Some c ->
          (try Unix.shutdown c.c_fd Unix.SHUTDOWN_ALL with _ -> ());
          t.conns.(site) <- None;
          fail_waiters_locked t site
            (Failure "connection to site server lost")
      | None -> ())

let deposit t site payload =
  match Wire.decode_payload_corr payload with
  | Ok (_, Wire.Gen_event { kind; gens }) ->
      (* Unsolicited server push (correlation id 0 — never a waiter's
         id; the counter starts at 1): the streamed cache-invalidation
         feed.  Read the hook under the lock, run it outside — it
         merges into a fragment tree, not into mux state. *)
      let cb = locked t (fun () -> t.on_gen) in
      (match cb with
      | Some f -> ( try f kind gens with _ -> ())
      | None -> ());
      Ok ()
  | Ok (corr, msg) ->
      locked t (fun () ->
          match Hashtbl.find_opt t.pending corr with
          | Some p when p.p_site = site ->
              settle_locked p (Ok (msg, 4 + String.length payload))
          | Some _ | None ->
              (* A reply to a request nobody waits for any more (resend
                 after timeout, abandoned run): drop it. *)
              ());
      Ok ()
  | Error err -> Error (Failure (Format.asprintf "%a" Wire.pp_error err))

let expire_due t site =
  locked t (fun () ->
      let now = Pax_obs.Clock.now () in
      Hashtbl.iter
        (fun _ p ->
          if p.p_site = site && p.p_deadline <= now then
            settle_locked p (Error Sockio.Timeout))
        t.pending)

(* The per-connection receiver: the only thread that reads this socket.
   It reads through the connection's buffered reader, which waits only
   when no whole frame is buffered, and a read timeout loses nothing (a
   partial frame stays buffered), so the wait can be cut at the next
   deadline check: due every [poll_interval], frames or not.  A stalled
   peer fails no one by itself; its requests expire, and their senders
   drop the connection.  On any exit path the connection's in-flight
   requests are failed (here, or by [drop] if it retired the
   connection first) — no sender can be left waiting on a dead
   connection — and the descriptor is closed. *)
let receiver t site (c : conn) =
  let alive () =
    locked t (fun () ->
        match t.conns.(site) with
        | Some c' -> c'.c_gen = c.c_gen
        | None -> false)
  in
  let fail e =
    locked t (fun () ->
        match t.conns.(site) with
        | Some c' when c'.c_gen = c.c_gen ->
            t.conns.(site) <- None;
            fail_waiters_locked t site e
        | _ -> ())
  in
  let rec loop check_at =
    if alive () then begin
      let now = Pax_obs.Clock.now () in
      let check_at =
        if now >= check_at then begin
          expire_due t site;
          now +. poll_interval
        end
        else check_at
      in
      match Sockio.read_frame ~timeout:(check_at -. now) c.c_rd with
      | None -> fail (Failure "connection closed by site server")
      | Some payload -> (
          match deposit t site payload with
          | Ok () -> loop check_at
          | Error e -> fail e)
      | exception Sockio.Timeout -> loop check_at
      | exception e -> fail e
    end
  in
  loop (Pax_obs.Clock.now () +. poll_interval);
  try Unix.close c.c_fd with _ -> ()

let ensure_conn t site =
  match locked t (fun () -> t.conns.(site)) with
  | Some c -> c
  | None -> (
      let fd = Sockio.connect t.addrs.(site) in
      match
        locked t (fun () ->
            match t.conns.(site) with
            | Some c -> `Existing c
            | None ->
                t.gen <- t.gen + 1;
                let c = { c_fd = fd; c_rd = Sockio.reader fd; c_gen = t.gen } in
                t.conns.(site) <- Some c;
                `Fresh c)
      with
      | `Existing c ->
          (try Unix.close fd with _ -> ());
          c
      | `Fresh c ->
          ignore (Thread.create (fun () -> receiver t site c) ());
          c)

(* Register the request *before* writing: whatever kills the
   connection after the write — even before this thread waits — sweeps
   the request and wakes its waiter with the error. *)
let post t w site msg =
  let corr = fresh_corr () in
  let p =
    {
      p_site = site;
      p_deadline = Pax_obs.Clock.now () +. t.timeout;
      p_waiter = w;
      p_result = None;
      p_at = 0.;
    }
  in
  locked t (fun () ->
      w.w_open <- w.w_open + 1;
      Hashtbl.replace t.pending corr p);
  let payload = Wire.encode_payload ~corr msg in
  (match
     let c = ensure_conn t site in
     Mutex.lock t.send_locks.(site);
     Fun.protect
       ~finally:(fun () -> Mutex.unlock t.send_locks.(site))
       (fun () -> Sockio.write_frame c.c_fd payload)
   with
  | () -> ()
  | exception e ->
      locked t (fun () ->
          Hashtbl.remove t.pending corr;
          if p.p_result = None then w.w_open <- w.w_open - 1);
      raise e);
  (corr, p, 4 + String.length payload)

(* Caller holds [t.lock].  Sleep until every request of [w] has a
   result or one has failed. *)
let wait_locked t w =
  while w.w_open > 0 && not w.w_failed do
    Condition.wait w.w_cond t.lock
  done;
  w.w_failed <- false

(* One request's result, for a waiter that posted only that one. *)
let await t corr p =
  locked t (fun () ->
      wait_locked t p.p_waiter;
      Hashtbl.remove t.pending corr;
      Option.get p.p_result)

let close t =
  Array.iteri (fun site _ -> drop t site) t.conns

(* Best-effort, uncorrelated, uncounted control frame on an *existing*
   connection (Run_done, Shutdown): session control is not accounted
   traffic, and a site we have no connection to has no state to shed. *)
let post_control t site msg =
  match locked t (fun () -> t.conns.(site)) with
  | None -> ()
  | Some c -> (
      let payload = Wire.encode_payload msg in
      Mutex.lock t.send_locks.(site);
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.send_locks.(site))
        (fun () -> try Sockio.write_frame c.c_fd payload with _ -> ()))

let shutdown_sites t =
  Array.iteri
    (fun site _ ->
      (try
         let c = ensure_conn t site in
         Mutex.lock t.send_locks.(site);
         Fun.protect
           ~finally:(fun () -> Mutex.unlock t.send_locks.(site))
           (fun () ->
             Sockio.write_frame c.c_fd (Wire.encode_payload Wire.Shutdown))
       with _ -> ());
      drop t site)
    t.conns

(* Ask one site server for its telemetry counters.  The request flows
   through the multiplexer like any other (the receiver owns the
   socket) but deliberately skips every byte counter: fetching stats
   must not disturb the numbers being fetched. *)
let fetch_stats t site =
  let corr, p, _ = post t (new_waiter ()) site Wire.Stats_request in
  match await t corr p with
  | Ok (Wire.Stats_reply pairs, _) -> pairs
  | Ok _ -> failwith "unexpected reply to a stats request"
  | Error e -> raise e

(* Clock alignment (docs/OBSERVABILITY.md): the server read its clock
   somewhere between our send ([t0]) and our receipt of the reply
   ([t1]); assuming symmetric transit, the midpoint of the exchange is
   the coordinator-clock instant of that reading, so the difference is
   how far the server's clock runs ahead of ours.  The error is
   bounded by half the round trip.  Pure, so the estimator is testable
   under [Clock.Fake] with known skew. *)
let estimate_offset ~t0 ~t1 ~server_now = server_now -. ((t0 +. t1) /. 2.)

(* Drain one site server's span ring.  Raw telemetry IO like
   [fetch_stats] — skips every byte counter — but additionally pairs
   its own clock readings around the exchange with the server's
   [server_now] stamp to estimate that site's clock offset, which the
   multi-process Perfetto merge subtracts from the site's track. *)
let fetch_spans t site =
  let t0 = Pax_obs.Clock.now () in
  let corr, p, _ = post t (new_waiter ()) site Wire.Spans_fetch in
  match await t corr p with
  | Ok (Wire.Spans_reply { server_now; spans }, _) ->
      let t1 = Pax_obs.Clock.now () in
      (estimate_offset ~t0 ~t1 ~server_now, spans)
  | Ok _ -> failwith "unexpected reply to a spans fetch"
  | Error e -> raise e

(* Migration RPCs (docs/SHARDING.md).  Control plane like stats: they
   flow through the multiplexer (the receiver owns each socket, admin
   frames interleave freely with visit traffic — the drain-free
   window) but touch no per-run byte counters; servers ledger their
   volume under [pax_net_admin_*] instead. *)
(* Each carries the optional trace-context extension: when the mux has
   an enabled sink, the admin rpc is recorded as a coordinator span and
   its id stamped on the frame so the server's admin span parent-links
   to it (one flow arrow per migration step in the merged trace). *)
let admin_rpc t name ~site msg collect =
  let parent = Pax_obs.Sink.alloc t.sink in
  let corr, p, _ = post t (new_waiter ()) site (msg ~parent) in
  Pax_obs.Sink.span t.sink ~cat:"admin" ?id:parent
    ~args:(fun () -> [ ("site", string_of_int site) ])
    name
    (fun () ->
      match await t corr p with
      | Ok (reply, _) -> collect reply
      | Error e -> raise e)

let frag_fetch t ~site ~fid ~kind =
  admin_rpc t "frag fetch" ~site
    (fun ~parent -> Wire.Frag_fetch { fid; kind; parent })
    (function
      | Wire.Frag_image { fid = f; image } when f = fid -> image
      | _ -> failwith "unexpected reply to a fragment fetch")

let frag_install t ~site ~fid ~epoch ~image =
  admin_rpc t "frag install" ~site
    (fun ~parent -> Wire.Frag_install { fid; epoch; image; parent })
    (function
      | Wire.Admin_reply { reply } -> reply
      | _ -> failwith "unexpected reply to a fragment install")

let frag_retire t ~site ~fid ~epoch ~kind =
  admin_rpc t "frag retire" ~site
    (fun ~parent -> Wire.Frag_retire { fid; epoch; kind; parent })
    (function
      | Wire.Admin_reply { reply } -> reply
      | _ -> failwith "unexpected reply to a fragment retire")

let frag_update t ~site ~fid ~epoch ~version change =
  admin_rpc t "frag update" ~site
    (fun ~parent -> Wire.Frag_update { fid; epoch; version; change; parent })
    (function
      | Wire.Admin_reply { reply } -> reply
      | _ -> failwith "unexpected reply to a fragment update")

(* Generation coherence (docs/SERVING.md): same control-plane shape as
   the migration RPCs.  [on_gen_event] is the receiving side of the
   feed — the hook runs on receiver threads, once per [Gen_event]
   pushed by any site. *)
let on_gen_event t f = locked t (fun () -> t.on_gen <- Some f)

(* One round: the frame goes to every site before any reply is
   awaited.  A site that cannot be reached or does not answer in time
   gets [Error], and the others are unaffected. *)
let publish_gens t ~kind gens =
  let parent = Pax_obs.Sink.alloc t.sink in
  let w = new_waiter () in
  Pax_obs.Sink.span t.sink ~cat:"admin" ?id:parent "gen publish" (fun () ->
      let posted =
        List.init (n_sites t) (fun site ->
            match post t w site (Wire.Gen_publish { kind; gens; parent }) with
            | corr, p, _ -> Ok (corr, p)
            | exception e -> Error (Printexc.to_string e))
      in
      locked t (fun () ->
          while w.w_open > 0 do
            Condition.wait w.w_cond t.lock
          done;
          List.map
            (Result.map (fun (corr, p) ->
                 Hashtbl.remove t.pending corr;
                 p.p_result))
            posted)
      |> List.map (function
           | Ok (Some (Ok (Wire.Admin_reply { reply }, _))) -> reply
           | Ok (Some (Ok _)) -> Error "unexpected reply to a generation publish"
           | Ok (Some (Error e)) -> Error (Printexc.to_string e)
           | Ok None -> Error "no reply"
           | Error e -> Error e))

let fetch_gens t ~site ~kind =
  admin_rpc t "gen fetch" ~site
    (fun ~parent -> Wire.Gen_fetch { kind; parent })
    (function
      | Wire.Gen_reply { kind = k; gens } when k = kind -> gens
      | _ -> failwith "unexpected reply to a generation fetch")

(* ------------------------------------------------------------------ *)
(* Handles: one run's transport view                                  *)
(* ------------------------------------------------------------------ *)

let handle ?sink t =
  {
    h_mux = t;
    h_run = fresh_run_id ();
    h_epoch = 0;
    h_touched = Array.make (Array.length t.addrs) false;
    h_sink = sink;
    sent_bytes = 0;
    received_bytes = 0;
    section_bytes = 0;
    sections = 0;
    frag_entries = 0;
    frames = 0;
  }

let sink_of h = match h.h_sink with Some s -> s | None -> h.h_mux.sink
let set_handle_sink h s = h.h_sink <- Some s
let set_epoch h epoch = h.h_epoch <- epoch

let stats h =
  {
    Transport.sent_bytes = h.sent_bytes;
    received_bytes = h.received_bytes;
    section_bytes = h.section_bytes;
    sections = h.sections;
    frag_entries = h.frag_entries;
    frames = h.frames;
  }

(* Tell every site the current run touched that its state can go
   (docs/SERVING.md: the reply-memo eviction protocol).  Losing the
   frame only delays eviction until the server's LRU bound. *)
let finish_run h =
  Array.iteri
    (fun site touched ->
      if touched then begin
        h.h_touched.(site) <- false;
        post_control h.h_mux site (Wire.Run_done { run = h.h_run })
      end)
    h.h_touched

let reset_run h =
  finish_run h;
  h.h_run <- fresh_run_id ()

let tally_msg h msg =
  let y = Wire.tally msg in
  h.section_bytes <- h.section_bytes + y.Wire.section_bytes;
  h.sections <- h.sections + y.Wire.sections;
  h.frag_entries <- h.frag_entries + y.Wire.frag_entries;
  h.frames <- h.frames + 1

(* Telemetry for visit traffic only: stats/ping/control frames are
   excluded on both ends, so the client's counters and the sum of the
   servers' agree for a run (asserted in test_obs.ml). *)
let frame_obs h ~dir msg ~frame_len =
  let sink = sink_of h in
  if sink.Pax_obs.Sink.enabled then
    match msg with
    | Wire.Visit_request _ | Wire.Visit_reply _ ->
        let labels = [ ("dir", dir) ] in
        Pax_obs.Sink.count sink ~labels "pax_net_visit_frames_total";
        Pax_obs.Sink.count sink ~labels ~by:(float_of_int frame_len)
          "pax_net_visit_bytes_total"
    | _ -> ()

(* Send all requests first (sites start working in parallel), then
   sleep until every reply is in, or until the first failure.  Any
   delivery failure drops the site's connection and reports to [retry]
   — which raises once the budget is gone — then reconnects and resends
   under a fresh correlation id; the server's per-round reply memo makes
   the resend safe, and a late reply to the abandoned id is dropped by
   the receiver.  Replies are matched by correlation id, so frames of
   other runs interleaved on the same socket are invisible here, and
   they wake other threads only. *)
let visit_round h ~round ~label ~retry reqs =
  let t = h.h_mux in
  let w = new_waiter () in
  let attempts = Hashtbl.create 8 in
  let next_attempt site =
    let a = Option.value (Hashtbl.find_opt attempts site) ~default:1 in
    Hashtbl.replace attempts site (a + 1);
    a
  in
  let charge site e =
    retry ~site ~attempt:(next_attempt site) ~reason:(Printexc.to_string e)
  in
  let failed site e =
    drop t site;
    charge site e
  in
  let request site call ~parent =
    Wire.Visit_request
      { run = h.h_run; round; site; epoch = h.h_epoch; label; call; parent }
  in
  (* Each send allocates a fresh rpc-span id (None on the noop sink, so
     untraced frames carry no extension and stay byte-identical to
     pre-tracing builds), stamps it on the frame as trace context, and
     the collector below records the rpc span under that id once the
     reply lands — the site's visit span parent-links to it. *)
  let corrs = ref [] in
  let rec send site call =
    let rpc_id = Pax_obs.Sink.alloc (sink_of h) in
    let msg = request site call ~parent:rpc_id in
    match
      Pax_obs.Sink.span (sink_of h) ~cat:"wire" ?parent:rpc_id
        ~args:(fun () -> [ ("site", string_of_int site) ])
        "send frame"
        (fun () -> post t w site msg)
    with
    | corr, p, frame_len ->
        corrs := corr :: !corrs;
        h.sent_bytes <- h.sent_bytes + frame_len;
        h.h_touched.(site) <- true;
        frame_obs h ~dir:"sent" msg ~frame_len;
        tally_msg h msg;
        (corr, p, rpc_id)
    | exception ((Unix.Unix_error _ | Failure _) as e) ->
        failed site e;
        send site call
  in
  let replies = Array.make (List.length reqs) None in
  (* One result taken from the mux at [taken]: a reply is kept with its
     rpc span; a stale epoch, a mismatched body or a delivery failure is
     charged to the budget and resent. *)
  let collect i ~taken (site, call, t0, sent) result =
    let _, p, rpc_id = !sent in
    let sink = sink_of h in
    (* From the receiver's deposit to this thread taking the result. *)
    if sink.Pax_obs.Sink.enabled then
      Pax_obs.Sink.record sink ~cat:"wire" ?parent:rpc_id
        ~args:[ ("site", string_of_int site) ]
        "recv frame" ~t0:p.p_at ~t1:taken;
    match result with
    | Ok ((Wire.Visit_reply { run; round = r; reply } as msg), frame_len)
      when run = h.h_run && r = round -> (
        h.received_bytes <- h.received_bytes + frame_len;
        frame_obs h ~dir:"recv" msg ~frame_len;
        tally_msg h msg;
        match reply with
        | Ok rep ->
            (* The rpc span of the attempt that got the reply, up to
               its arrival: the remote parent of the site's visit span
               in the merged trace. *)
            Option.iter
              (fun id ->
                Pax_obs.Sink.record sink ~cat:"rpc" ~id
                  ~args:
                    [
                      ("site", string_of_int site);
                      ("round", string_of_int round);
                    ]
                  label ~t0 ~t1:p.p_at)
              rpc_id;
            replies.(i) <- Some (site, rep, p.p_at -. t0)
        | Error message when Wire.is_stale_epoch message ->
            (* The site fenced a fragment we routed to it: placement
               metadata is converging (a migration just landed).  The
               connection is healthy, so charge the retry budget
               without dropping it and resend — if routing is truly
               stale the budget runs out as the typed
               [Site_unreachable]. *)
            charge site (Failure message);
            sent := send site call
        | Error message -> raise (Transport.Remote_failure { site; message }))
    | Ok _ ->
        (* The server echoed our correlation id on the wrong body:
           protocol violation — drop the connection and retry. *)
        failed site (Failure "correlated reply does not match its request");
        sent := send site call
    | Error ((Unix.Unix_error _ | Failure _ | Sockio.Timeout) as e) ->
        failed site e;
        sent := send site call
    | Error e -> raise e
  in
  (* Take every result that is in, under one lock hold, then handle
     them in input order; resends rejoin the same waiter. *)
  let rec gather posted =
    let results =
      locked t (fun () ->
          wait_locked t w;
          Array.mapi
            (fun i (_, _, _, sent) ->
              let corr, p, _ = !sent in
              match (replies.(i), p.p_result) with
              | None, Some r ->
                  Hashtbl.remove t.pending corr;
                  Some r
              | _ -> None)
            posted)
    in
    let taken = Pax_obs.Clock.now () in
    Array.iteri
      (fun i r -> Option.iter (collect i ~taken posted.(i)) r)
      results;
    if Array.exists Option.is_none replies then gather posted
  in
  (* A round that raises leaves requests in flight: unregister them, so
     their late replies are dropped like any abandoned request's. *)
  Fun.protect
    ~finally:(fun () ->
      locked t (fun () -> List.iter (Hashtbl.remove t.pending) !corrs))
    (fun () ->
      gather
        (Array.of_list
           (List.map
              (fun (site, call) ->
                (site, call, Pax_obs.Clock.now (), ref (send site call)))
              reqs)));
  Array.to_list (Array.map Option.get replies)

let handle_transport h =
  let t = h.h_mux in
  {
    Transport.describe =
      Printf.sprintf "sockets: %s"
        (String.concat ", "
           (Array.to_list (Array.map Sockio.addr_to_string t.addrs)));
    visit_round = (fun ~round ~label ~retry reqs ->
        visit_round h ~round ~label ~retry reqs);
    stats = (fun () -> stats h);
    reset_run = (fun () -> reset_run h);
    close = (fun () -> finish_run h);
  }

(* The v1-compatible single-run view: one implicit handle per client,
   inheriting the client's sink. *)
let default_handle t =
  match t.default_handle with
  | Some h -> h
  | None ->
      let h = handle t in
      t.default_handle <- Some h;
      h

let transport t = handle_transport (default_handle t)
