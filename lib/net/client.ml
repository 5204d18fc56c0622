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

(* No thread is dedicated to a socket.  A thread waiting for replies
   reads the sockets they will arrive on itself: a leader/follower mux,
   in which at most one thread holds a socket's read turn at a time.
   The holder decodes every frame it reads, settles whichever waiter
   owns it and, once it needs the socket no more, hands the turn to a
   waiter that still has a request pending there.  Sockets no one waits
   on are read by the mux's one idle reader, so unsolicited [Gen_event]
   pushes still arrive (docs/NETWORK.md). *)

(* A thread that posts requests and then waits for their results: one
   engine round's collector, one control-plane call, or the idle
   reader.  It sleeps in [select] on its wake pipe and on the sockets
   whose read turn it holds, so another thread wakes it with one byte:
   when it settles the waiter's last request or its first error, or
   hands it a turn. *)
type waiter = {
  w_rfd : Unix.file_descr;  (** the wake pipe's read end *)
  w_wfd : Unix.file_descr;
  mutable w_poked : bool;  (** a wake byte is in the pipe *)
  mutable w_open : int;  (** its requests with no result yet *)
  mutable w_failed : bool;  (** an error result it has not collected *)
  mutable w_reqs : pending list;  (** what it posted since it was taken *)
  mutable w_held : conn list;  (** the read turns it holds *)
}

(* One request in flight: registered under [lock] before its frame is
   written, filled exactly once — by whichever thread reads its reply,
   by its waiter at the deadline, or by the sweep of a dead connection
   — and collected by its waiter's thread.  Alongside the message: the
   frame's length and tally, for the collector's byte accounting. *)
and pending = {
  p_site : int;
  p_deadline : float;
  p_waiter : waiter;
  mutable p_result : (Wire.msg * int * Wire.tally, exn) result option;
  mutable p_at : float;  (** when [p_result] was written *)
}

and conn = {
  c_site : int;
  c_fd : Unix.file_descr;
  c_rd : Sockio.reader;
  mutable c_reader : waiter option;  (** who holds the read turn *)
  mutable c_retired : bool;  (** dropped; closed once no one reads it *)
  mutable c_used : bool;  (** written to since the idle reader's last tick *)
  mutable c_deferred : int list;
      (** runs whose [Run_done] goes with the next write, newest first *)
  c_w : Pax_bool.Codec.writer;
      (** the frames of the next write, encoded in place; guarded by the
          site's send lock *)
}

type t = {
  addrs : Sockio.addr array;
  timeout : float;
  lock : Mutex.t;
      (** guards [conns], [pending], [spare], [idle], [closing]
          and the mutable fields of every waiter and connection *)
  conns : conn option array;
  send_locks : Mutex.t array;  (** one writer at a time per socket *)
  pending : (int, pending) Hashtbl.t;  (** corr -> request *)
  mutable spare : waiter list;  (** waiters between waits *)
  mutable idle : waiter option;  (** the idle reader's, while it runs *)
  mutable closing : conn list;  (** retired, unread, still open *)
  mutable sink : Pax_obs.Sink.t;
  mutable default_handle : handle option;
  (* The cache-coherence hook (docs/SERVING.md): called by whichever
     thread reads an unsolicited [Gen_event] push.  Typically
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

(* How often a waiter checks its requests' deadlines, whether or not
   frames arrive — a site that keeps answering other requests on the
   connection cannot keep an unanswered one waiting past its deadline
   by more than this — and how often the idle reader adopts free
   sockets and flushes deferred [Run_done] frames. *)
let poll_interval = 0.05

(* Deferred [Run_done] frames a connection holds before they are
   written on their own: well under the servers' LRU bound on run
   states. *)
let max_deferred = 8

let create ?(timeout = 30.) ~addrs () =
  {
    addrs;
    timeout;
    lock = Mutex.create ();
    conns = Array.make (Array.length addrs) None;
    send_locks = Array.init (Array.length addrs) (fun _ -> Mutex.create ());
    pending = Hashtbl.create 32;
    spare = [];
    idle = None;
    closing = [];
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
  let r, w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock r;
  Unix.set_nonblock w;
  {
    w_rfd = r;
    w_wfd = w;
    w_poked = false;
    w_open = 0;
    w_failed = false;
    w_reqs = [];
    w_held = [];
  }

let close_waiter w =
  (try Unix.close w.w_rfd with _ -> ());
  try Unix.close w.w_wfd with _ -> ()

(* Caller holds [t.lock].  At most one byte is ever in the pipe, so
   the write cannot block. *)
let rec poke w =
  if not w.w_poked then
    match Unix.single_write_substring w.w_wfd "!" 0 1 with
    | _ -> w.w_poked <- true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> poke w
    | exception Unix.Unix_error _ -> ()

let unpoke w =
  if w.w_poked then begin
    w.w_poked <- false;
    try ignore (Unix.read w.w_rfd (Bytes.create 1) 0 1)
    with Unix.Unix_error _ -> ()
  end

(* Caller holds [t.lock].  Results are written at most once, so a
   racing deadline expiry or a second failure sweep cannot overwrite a
   delivered reply.  [by] is the settling thread's own waiter, which
   needs no wake-up. *)
let settle_locked ?by p r =
  if p.p_result = None then begin
    p.p_result <- Some r;
    p.p_at <- Pax_obs.Clock.now ();
    let w = p.p_waiter in
    w.w_open <- w.w_open - 1;
    let failed = Result.is_error r in
    if failed then w.w_failed <- true;
    match by with
    | Some b when b == w -> ()
    | _ -> if failed || w.w_open = 0 then poke w
  end

let has_open w site =
  List.exists (fun p -> p.p_site = site && p.p_result = None) w.w_reqs

(* Caller holds [t.lock].  A waiter, other than [except], with a
   request pending on [site]. *)
let waiter_on ?except t site =
  let found = ref None in
  (try
     Hashtbl.iter
       (fun _ p ->
         if
           p.p_site = site && p.p_result = None
           && match except with Some w -> p.p_waiter != w | None -> true
         then begin
           found := Some p.p_waiter;
           raise Exit
         end)
       t.pending
   with Exit -> ());
  !found

(* Read turns; callers hold [t.lock]. *)
let hold w c =
  c.c_reader <- Some w;
  w.w_held <- c :: w.w_held

(* [w] gives up [c]'s read turn: to a waiter with a request pending
   there, woken to read it — so no reply lies unread while its waiter
   sleeps — or to no one.  A retired connection is closed instead. *)
let release t w c =
  w.w_held <- List.filter (fun c' -> c' != c) w.w_held;
  c.c_reader <- None;
  if c.c_retired then t.closing <- c :: t.closing
  else
    match waiter_on ~except:w t c.c_site with
    | Some w' ->
        hold w' c;
        poke w'
    | None -> ()

(* Caller holds [t.lock].  Retire [c]: it leaves [conns] and its
   requests fail.  Its descriptor is shut down at once, which wakes a
   thread selecting on it, but closed only once no thread holds its
   read turn ([reap]): a closed number could be reused by the
   reconnect and read by two threads. *)
let retire_locked t c e =
  if not c.c_retired then begin
    c.c_retired <- true;
    (try Unix.shutdown c.c_fd Unix.SHUTDOWN_ALL with _ -> ());
    (match t.conns.(c.c_site) with
    | Some c' when c' == c -> t.conns.(c.c_site) <- None
    | _ -> ());
    if c.c_reader = None then t.closing <- c :: t.closing;
    Hashtbl.iter
      (fun _ p -> if p.p_site = c.c_site then settle_locked p (Error e))
      t.pending
  end

(* Close the retired descriptors no one reads any more, each under its
   site's send lock, so that no sender writes to a reused number. *)
let reap t =
  if t.closing <> [] then
    List.iter
      (fun c ->
        Mutex.lock t.send_locks.(c.c_site);
        (try Unix.close c.c_fd with _ -> ());
        Mutex.unlock t.send_locks.(c.c_site))
      (locked t (fun () ->
           let cs = t.closing in
           t.closing <- [];
           cs))

(* Retire a site's connection (requested by a sender that saw a
   delivery failure).  In-flight waiters are failed, so their senders
   retry at once. *)
let drop t site =
  locked t (fun () ->
      Option.iter
        (fun c -> retire_locked t c (Failure "connection to site server lost"))
        t.conns.(site));
  reap t

(* Caller holds [t.lock].  Settle what one read of [c] by [w] brought:
   each correlated reply goes to its request, if someone still waits
   for it; each [Gen_event] push is added to [hooks], to run outside
   the lock.  A dead or corrupt connection is retired.  Returns the
   hooks, and whether a reply arrived. *)
let deliver_locked t w c read hooks =
  let corrupt err =
    retire_locked t c (Failure (Format.asprintf "%a" Wire.pp_error err))
  in
  let rec go hooks replied = function
    | [] -> (hooks, replied)
    | (_, Ok (_, Wire.Gen_event { kind; gens }, _)) :: rest ->
        (* Unsolicited server push (correlation id 0 — never a
           waiter's id; the counter starts at 1): the streamed
           cache-invalidation feed. *)
        let hooks =
          match t.on_gen with Some f -> (f, kind, gens) :: hooks | None -> hooks
        in
        go hooks replied rest
    | (len, Ok (corr, msg, tally)) :: rest ->
        (match Hashtbl.find_opt t.pending corr with
        | Some p when p.p_site = c.c_site ->
            settle_locked ~by:w p (Ok (msg, 4 + len, tally))
        | Some _ | None ->
            (* A reply to a request nobody waits for any more (resend
               after timeout, abandoned run): drop it. *)
            ());
        go hooks true rest
    | (_, Error err) :: _ ->
        corrupt err;
        (hooks, replied)
  in
  let result =
    match read with
    | Ok frames -> go hooks false frames
    | Error e ->
        retire_locked t c e;
        (hooks, false)
  in
  if c.c_retired then release t w c;
  result

(* One turn of reading thread [w], called without [t.lock]: wait at
   most [timeout] seconds in [select] on its wake pipe and on [held],
   the sockets whose read turn it holds; read what they hold; settle
   it.  Returns the sockets a reply arrived on. *)
let read_step t w held ~timeout =
  let fds = w.w_rfd :: List.map (fun c -> c.c_fd) held in
  let ready =
    match Unix.select fds [] [] (Float.max 0. timeout) with
    | r, _, _ -> r
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
  in
  let reads =
    List.filter_map
      (fun c ->
        if not (List.mem c.c_fd ready) then None
        else
          Some
            ( c,
              match
                Sockio.read_available c.c_rd (fun b off len ->
                    (len, Wire.decode_slice b off len))
              with
              | Some frames -> Ok frames
              | None -> Error (Failure "connection closed by site server")
              | exception e -> Error e ))
      held
  in
  let hooks, replied =
    locked t (fun () ->
        unpoke w;
        List.fold_left
          (fun (hooks, replied) (c, read) ->
            let hooks, r = deliver_locked t w c read hooks in
            (hooks, if r then c :: replied else replied))
          ([], []) reads)
  in
  List.iter (fun (f, kind, gens) -> try f kind gens with _ -> ()) (List.rev hooks);
  replied

(* Until every request of [w] has a result, or one has failed: hold the
   read turn of each socket its requests are on whenever that turn is
   free, read them, and sleep otherwise until another reader settles
   the requests or hands [w] a turn.  Deadlines are checked every
   [poll_interval], frames or not: a stalled peer fails no one by
   itself; its requests expire, and their senders drop the connection.
   Returns holding no turn. *)
let wait t w =
  let check_at = ref (Pax_obs.Clock.now () +. poll_interval) in
  let rec loop () =
    let now = Pax_obs.Clock.now () in
    let step =
      locked t (fun () ->
          if now >= !check_at then begin
            List.iter
              (fun p ->
                if p.p_result = None && p.p_deadline <= now then
                  settle_locked ~by:w p (Error Sockio.Timeout))
              w.w_reqs;
            check_at := now +. poll_interval
          end;
          List.iter
            (fun c -> if not (has_open w c.c_site) then release t w c)
            w.w_held;
          if w.w_open = 0 || w.w_failed then begin
            List.iter (release t w) w.w_held;
            w.w_failed <- false;
            None
          end
          else begin
            List.iter
              (fun p ->
                if p.p_result = None then
                  match t.conns.(p.p_site) with
                  | Some c when c.c_reader = None -> hold w c
                  | _ -> ())
              w.w_reqs;
            Some w.w_held
          end)
    in
    reap t;
    match step with
    | None -> ()
    | Some held ->
        ignore (read_step t w held ~timeout:(!check_at -. now));
        loop ()
  in
  match loop () with
  | () -> ()
  | exception e ->
      locked t (fun () -> List.iter (release t w) w.w_held);
      reap t;
      raise e

(* Waiters, with their pipes, are reused across waits.  One goes back
   holding no turn, a turn handed to it after its last wait is passed
   on, and no request of its own is left pending, so none is handed to
   it while it is spare. *)
let take_waiter t =
  match
    locked t (fun () ->
        match t.spare with
        | w :: rest ->
            t.spare <- rest;
            Some w
        | [] -> None)
  with
  | Some w -> w
  | None -> new_waiter ()

let put_waiter t w =
  locked t (fun () ->
      List.iter
        (fun p ->
          if p.p_result = None then
            p.p_result <- Some (Error (Failure "request abandoned")))
        w.w_reqs;
      List.iter (release t w) w.w_held;
      unpoke w;
      w.w_open <- 0;
      w.w_failed <- false;
      w.w_reqs <- [];
      t.spare <- w :: t.spare);
  reap t

let with_waiter t f =
  let w = take_waiter t in
  Fun.protect ~finally:(fun () -> put_waiter t w) (fun () -> f w)

(* Caller holds [c]'s send lock.  Start [c]'s next write with the
   [Run_done] frames deferred there, oldest first. *)
let start_write c deferred =
  Pax_bool.Codec.clear c.c_w;
  List.iter
    (fun run -> ignore (Wire.encode_frame c.c_w (Wire.Run_done { run })))
    (List.rev deferred)

(* Write the [Run_done] frames deferred on [c], alone.  Best-effort: a
   failed write leaves the dead connection to its reader. *)
let flush_deferred t c =
  Mutex.lock t.send_locks.(c.c_site);
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.send_locks.(c.c_site))
    (fun () ->
      match
        locked t (fun () ->
            let q = c.c_deferred in
            c.c_deferred <- [];
            if c.c_retired then [] else q)
      with
      | [] -> ()
      | q -> (
          start_write c q;
          let w = c.c_w in
          try
            Sockio.write_bytes c.c_fd (Pax_bool.Codec.buffer w)
              (Pax_bool.Codec.length w)
          with _ -> ()))

(* The idle reader: one thread per mux while it has connections.  Every
   [poll_interval] it adopts each socket that is idle — its turn free,
   no one waiting on it, and nothing written to it since the last tick
   — so an unsolicited [Gen_event] push is read whatever the load, and
   it flushes the deferred [Run_done] frames, so an idle connection's
   queue still reaches its server.  It gives a socket up as soon as a
   reply arrives there or a waiter posts to it: the waiters read their
   own replies.  On a busy socket a push waits for the next waiter to
   read it, within a tick of the socket going idle at worst. *)
let idle_loop t w =
  let rec loop tick_at =
    let now = Pax_obs.Clock.now () in
    let tick = now >= tick_at in
    let step =
      locked t (fun () ->
          List.iter
            (fun c -> if waiter_on t c.c_site <> None then release t w c)
            w.w_held;
          if Array.for_all Option.is_none t.conns then begin
            List.iter (release t w) w.w_held;
            t.idle <- None;
            None
          end
          else if not tick then Some (w.w_held, [])
          else begin
            Array.iter
              (function
                | Some c ->
                    if
                      c.c_reader = None && (not c.c_used)
                      && waiter_on t c.c_site = None
                    then hold w c;
                    c.c_used <- false
                | None -> ())
              t.conns;
            Some
              ( w.w_held,
                Array.fold_left
                  (fun acc -> function
                    | Some c when c.c_deferred <> [] -> c :: acc | _ -> acc)
                  [] t.conns )
          end)
    in
    reap t;
    match step with
    | None -> close_waiter w
    | Some (held, deferred) ->
        List.iter (flush_deferred t) deferred;
        let tick_at = if tick then now +. poll_interval else tick_at in
        let replied = read_step t w held ~timeout:(tick_at -. now) in
        if replied <> [] then
          locked t (fun () ->
              List.iter
                (fun c -> if List.memq c w.w_held then release t w c)
                replied);
        loop tick_at
  in
  loop 0.

let ensure_conn t site =
  match locked t (fun () -> t.conns.(site)) with
  | Some c -> c
  | None ->
      let fd = Sockio.connect t.addrs.(site) in
      let c, fresh =
        locked t (fun () ->
            match t.conns.(site) with
            | Some c -> (c, false)
            | None ->
                let c =
                  {
                    c_site = site;
                    c_fd = fd;
                    c_rd = Sockio.reader fd;
                    c_reader = None;
                    c_retired = false;
                    c_used = true;
                    c_deferred = [];
                    c_w = Pax_bool.Codec.writer ();
                  }
                in
                t.conns.(site) <- Some c;
                if t.idle = None then begin
                  let w = new_waiter () in
                  t.idle <- Some w;
                  ignore (Thread.create (idle_loop t) w)
                end;
                (c, true))
      in
      if not fresh then (try Unix.close fd with _ -> ());
      c

(* Encode [msg] into [site]'s connection buffer, behind the [Run_done]
   frames deferred there, and write them all in one write.  Returns the
   frame's length and tally. *)
let send t site ?corr msg =
  let c = ensure_conn t site in
  Mutex.lock t.send_locks.(site);
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.send_locks.(site))
    (fun () ->
      let deferred =
        locked t (fun () ->
            if c.c_retired then failwith "connection to site server lost";
            c.c_used <- true;
            let q = c.c_deferred in
            c.c_deferred <- [];
            q)
      in
      start_write c deferred;
      let w = c.c_w in
      let start = Pax_bool.Codec.length w in
      let tally = Wire.encode_frame w ?corr msg in
      let len = Pax_bool.Codec.length w in
      Sockio.write_bytes c.c_fd (Pax_bool.Codec.buffer w) len;
      (len - start, tally))

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
      w.w_reqs <- p :: w.w_reqs;
      Hashtbl.replace t.pending corr p);
  match send t site ~corr msg with
  | frame_len, tally -> (corr, p, frame_len, tally)
  | exception e ->
      locked t (fun () ->
          Hashtbl.remove t.pending corr;
          w.w_reqs <- List.filter (fun p' -> p' != p) w.w_reqs;
          if p.p_result = None then w.w_open <- w.w_open - 1);
      raise e

(* One request's result, for a waiter that posted only that one. *)
let await t corr p =
  wait t p.p_waiter;
  locked t (fun () -> Hashtbl.remove t.pending corr);
  Option.get p.p_result

let rpc t site msg =
  with_waiter t (fun w ->
      let corr, p, _, _ = post t w site msg in
      await t corr p)

(* Flush each connection's deferred [Run_done] frames, then retire it.
   The idle reader is woken to exit at once, rather than at its next
   tick, and spare waiters' pipes are closed. *)
let close t =
  Array.iteri
    (fun site _ ->
      Option.iter (flush_deferred t) (locked t (fun () -> t.conns.(site)));
      drop t site)
    t.conns;
  List.iter close_waiter
    (locked t (fun () ->
         Option.iter poke t.idle;
         let ws = t.spare in
         t.spare <- [];
         ws))

let shutdown_sites t =
  Array.iteri
    (fun site _ ->
      (try ignore (send t site Wire.Shutdown) with _ -> ());
      drop t site)
    t.conns;
  close t

(* Ask one site server for its telemetry counters.  The request flows
   through the multiplexer like any other but deliberately skips every byte counter: fetching stats
   must not disturb the numbers being fetched. *)
let fetch_stats t site =
  match rpc t site Wire.Stats_request with
  | Ok (Wire.Stats_reply pairs, _, _) -> pairs
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
  match rpc t site Wire.Spans_fetch with
  | Ok (Wire.Spans_reply { server_now; spans }, _, _) ->
      let t1 = Pax_obs.Clock.now () in
      (estimate_offset ~t0 ~t1 ~server_now, spans)
  | Ok _ -> failwith "unexpected reply to a spans fetch"
  | Error e -> raise e

(* Migration RPCs (docs/SHARDING.md).  Control plane like stats: they
   flow through the multiplexer (admin frames interleave freely with visit traffic — the drain-free
   window) but touch no per-run byte counters; servers ledger their
   volume under [pax_net_admin_*] instead. *)
(* Each carries the optional trace-context extension: when the mux has
   an enabled sink, the admin rpc is recorded as a coordinator span and
   its id stamped on the frame so the server's admin span parent-links
   to it (one flow arrow per migration step in the merged trace). *)
let admin_rpc t name ~site msg collect =
  let parent = Pax_obs.Sink.alloc t.sink in
  Pax_obs.Sink.span t.sink ~cat:"admin" ?id:parent
    ~args:(fun () -> [ ("site", string_of_int site) ])
    name
    (fun () ->
      match rpc t site (msg ~parent) with
      | Ok (reply, _, _) -> collect reply
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
   feed — the hook runs on whichever thread reads the push, once per
   [Gen_event] pushed by any site. *)
let on_gen_event t f = locked t (fun () -> t.on_gen <- Some f)

(* One round: the frame goes to every site before any reply is
   awaited.  A site that cannot be reached or does not answer in time
   gets [Error], and the others are unaffected. *)
let publish_gens t ~kind gens =
  let parent = Pax_obs.Sink.alloc t.sink in
  Pax_obs.Sink.span t.sink ~cat:"admin" ?id:parent "gen publish" (fun () ->
      with_waiter t (fun w ->
          let posted =
            List.init (n_sites t) (fun site ->
                match post t w site (Wire.Gen_publish { kind; gens; parent }) with
                | corr, p, _, _ -> Ok (corr, p)
                | exception e -> Error (Printexc.to_string e))
          in
          while locked t (fun () -> w.w_open > 0) do
            wait t w
          done;
          locked t (fun () ->
              List.map
                (Result.map (fun (corr, p) ->
                     Hashtbl.remove t.pending corr;
                     p.p_result))
                posted))
      |> List.map (function
           | Ok (Some (Ok (Wire.Admin_reply { reply }, _, _))) -> reply
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
   (docs/SERVING.md: the reply-memo eviction protocol).  The frame is
   deferred: it rides in the same write as the next frame to the site,
   or goes alone at the idle reader's next tick, or once [max_deferred]
   are queued.  Session control is not accounted traffic, and a site
   with no connection has no state to shed.  Losing the frame only
   delays eviction until the server's LRU bound. *)
let defer_run_done t site run =
  let full =
    locked t (fun () ->
        match t.conns.(site) with
        | Some c ->
            c.c_deferred <- run :: c.c_deferred;
            if List.compare_length_with c.c_deferred max_deferred >= 0 then
              Some c
            else None
        | None -> None)
  in
  Option.iter (flush_deferred t) full

let finish_run h =
  Array.iteri
    (fun site touched ->
      if touched then begin
        h.h_touched.(site) <- false;
        defer_run_done h.h_mux site h.h_run
      end)
    h.h_touched

let reset_run h =
  finish_run h;
  h.h_run <- fresh_run_id ()

let tally_msg h (y : Wire.tally) =
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
   whichever thread reads it.  Replies are matched by correlation id,
   so frames of other runs interleaved on the same socket are invisible
   here: this thread may read them, but only settles them. *)
let visit_round h ~round ~label ~retry reqs =
  let t = h.h_mux in
  with_waiter t @@ fun w ->
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
    | corr, p, frame_len, tally ->
        corrs := corr :: !corrs;
        h.sent_bytes <- h.sent_bytes + frame_len;
        h.h_touched.(site) <- true;
        frame_obs h ~dir:"sent" msg ~frame_len;
        tally_msg h tally;
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
    (* From the reader's deposit to this thread taking the result. *)
    if sink.Pax_obs.Sink.enabled then
      Pax_obs.Sink.record sink ~cat:"wire" ?parent:rpc_id
        ~args:[ ("site", string_of_int site) ]
        "recv frame" ~t0:p.p_at ~t1:taken;
    match result with
    | Ok ((Wire.Visit_reply { run; round = r; reply } as msg), frame_len, tally)
      when run = h.h_run && r = round -> (
        h.received_bytes <- h.received_bytes + frame_len;
        frame_obs h ~dir:"recv" msg ~frame_len;
        tally_msg h tally;
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
    wait t w;
    let results =
      locked t (fun () ->
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
