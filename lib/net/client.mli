(** The coordinator's side of the socket transport: one persistent
    {e multiplexed} connection per site, lazily opened and shared by
    every run in the process.

    Protocol v2 stamps each request with a correlation id that the
    server echoes on the reply, so many in-flight runs share a socket.
    No thread is dedicated to a socket: the thread waiting for a round
    reads the sockets its requests went out on itself, at most one
    thread holding a socket's read turn at a time, and settles every
    frame it reads into the request its correlation id names.  It hands
    the turn to another waiter with a request pending there before it
    stops reading; a waiter whose sockets others are reading sleeps and
    is woken once: when the round's last reply is in, at its first
    failure, or when it is handed a turn.  One idle reader per client
    reads the sockets no one waits on (docs/SERVING.md).  A {!handle} is one run's
    view of the shared connections — its own run id, byte counters and
    telemetry sink — and [visit_round]s of different handles interleave
    freely.

    Failure semantics match the simulated cluster's: every failed
    delivery attempt (connect refusal, timeout, EOF, reset) goes
    through the round's [retry] callback, which charges the
    {!Pax_dist.Retry} budget and raises
    {!Pax_dist.Cluster.Site_unreachable} when it is exhausted.  A
    deterministic server-side error (an [Error] reply) raises
    {!Pax_dist.Transport.Remote_failure} instead — retrying cannot
    help.  Reconnect-and-resend is safe because servers memoize replies
    per (run, round), and a late reply to an abandoned correlation id
    is dropped by whichever thread reads it.  Dropping a site's connection fails the
    other runs' requests in flight on it; they retry under their own
    budgets. *)

type t
(** The shared multiplexer. *)

type handle
(** One run's transport view over the shared connections.  Driven by
    one engine run at a time; create one per concurrent query. *)

(** [create ~addrs] — a client for sites [0 .. n-1] at the given
    addresses.  [timeout] (seconds, default 30) is each request's
    deadline for its reply; the waiting thread checks it every 50 ms,
    whether or not frames arrive. *)
val create : ?timeout:float -> addrs:Sockio.addr array -> unit -> t

(** Number of site servers this client multiplexes over. *)
val n_sites : t -> int

(** Install a telemetry sink (default: no-op) inherited by the default
    handle (and any {!handle} created without its own).  With an
    enabled sink every visit frame records a span (category ["wire"])
    and the counters [pax_net_visit_frames_total{dir}] /
    [pax_net_visit_bytes_total{dir}] — visit traffic only, mirroring
    the servers' counters, so the two ends agree for a run. *)
val set_sink : t -> Pax_obs.Sink.t -> unit

(** [fetch_stats t site] asks the site server for its telemetry
    counters ([Stats_request]/[Stats_reply]), returned as sorted
    [(series, value)] pairs.  Flows through the multiplexer like any
    request but touches no byte counter: fetching stats does not
    disturb the numbers being fetched.  Raises [Failure] (or the
    underlying [Unix.Unix_error]/{!Sockio.Timeout}) on connection loss
    or a malformed reply. *)
val fetch_stats : t -> int -> (string * float) list

(** [estimate_offset ~t0 ~t1 ~server_now] — how far a server clock
    that read [server_now] during an exchange sent at [t0] and
    answered by [t1] (both local readings) runs {e ahead} of the local
    clock, assuming symmetric transit: [server_now - (t0 + t1) / 2].
    The error is bounded by half the round trip.  Pure; deterministic
    under {!Pax_obs.Clock.Fake} (tested with known skews). *)
val estimate_offset : t0:float -> t1:float -> server_now:float -> float

(** [fetch_spans t site] drains the site server's span ring
    ([Spans_fetch]/[Spans_reply]) and estimates the site's clock
    offset from its own readings around the exchange ({!
    estimate_offset}).  Returns [(offset, spans)] ready to become a
    {!Pax_obs.Chrome.process} track in the merged Perfetto export.
    Raw telemetry IO like {!fetch_stats}: touches no byte counter.
    Raises on connection loss or a malformed reply. *)
val fetch_spans : t -> int -> float * Pax_obs.Span.span list

(** {1 Migration RPCs (docs/SHARDING.md)}

    Control plane like stats traffic: they flow through the
    multiplexer and interleave freely with in-flight visit rounds (the
    drain-free migration window), touch no per-run byte counters, and
    the servers ledger their volume under [pax_net_admin_*].  Each
    raises on connection loss or a malformed reply; application-level
    refusals come back as [Error _]. *)

(** Ask [site] for fragment [fid]'s wire image. *)
val frag_fetch :
  t ->
  site:int ->
  fid:int ->
  kind:Pax_wire.Wire.frag_kind ->
  (Pax_wire.Wire.frag_image, string) result

(** Install an image at [site], effective at placement [epoch];
    idempotent, clears the site's retirement fence for the fragment. *)
val frag_install :
  t ->
  site:int ->
  fid:int ->
  epoch:int ->
  image:Pax_wire.Wire.frag_image ->
  (string, string) result

(** Push an update of fragment [fid] to [site] ([Frag_update]): an
    edit against the site's image at its base version, or the whole
    image.  [version] becomes the site's version of the image.  An edit
    the site cannot apply comes back as [Error] carrying
    {!Pax_wire.Wire.stale_base_prefix}. *)
val frag_update :
  t ->
  site:int ->
  fid:int ->
  epoch:int ->
  version:Pax_wire.Wire.version ->
  Pax_wire.Wire.frag_change ->
  (string, string) result

(** Fence fragment [fid] at [site]: visits stamped [>= epoch] get the
    typed stale-epoch error; retained data keeps serving older runs. *)
val frag_retire :
  t ->
  site:int ->
  fid:int ->
  epoch:int ->
  kind:Pax_wire.Wire.frag_kind ->
  (string, string) result

(** {1 Generation coherence (docs/SERVING.md)}

    The streamed cache-invalidation feed: a coordinator that mutates a
    fragment ({!Pax_fragment.Update.apply}, a migration) publishes the
    fragment's new generation counter to its sites; each site
    max-merges and pushes a [Gen_event] to {e every} live connection,
    so every coordinator's stage cache sees the invalidation.  Same
    control-plane accounting as the migration RPCs. *)

(** Install the hook run (on whichever thread reads the frame: a
    waiter or the idle reader) for every unsolicited
    [Gen_event] push — typically [Pax_serve.Feed.attach]'s max-merge
    into the coordinator's local fragment tree.  At most one hook;
    installing again replaces it. *)
val on_gen_event :
  t -> (Pax_wire.Wire.frag_kind -> (int * int) list -> unit) -> unit

(** Announce [(fid, generation)] pairs to every site, in one round:
    the frame goes to all sites before any reply is awaited.  Each
    site max-merges, acknowledges, and fans the event out to every
    live connection (publisher included — its own merge is a no-op).
    One result per site, in site order; an unreachable or silent site
    gets [Error] and delays no other. *)
val publish_gens :
  t -> kind:Pax_wire.Wire.frag_kind -> (int * int) list -> (string, string) result list

(** Pull [site]'s full generation vector (every fragment it has seen a
    nonzero generation for) — startup sync for a coordinator joining
    after updates have happened. *)
val fetch_gens :
  t -> site:int -> kind:Pax_wire.Wire.frag_kind -> (int * int) list

(** The {!Pax_dist.Transport.t} view of the client's {e default handle}
    — the v1-compatible single-run-at-a-time interface, to install with
    [Cluster.set_transport] (or pass to [Cluster.create]). *)
val transport : t -> Pax_dist.Transport.t

(** {1 Per-run handles} *)

(** A fresh handle with a fresh run id.  [sink] defaults to inheriting
    the client's (see {!set_sink}). *)
val handle : ?sink:Pax_obs.Sink.t -> t -> handle

val set_handle_sink : handle -> Pax_obs.Sink.t -> unit

(** Stamp the placement epoch carried on every subsequent visit request
    of this handle (default 0 = trivially fresh).  The serving layer
    sets it from its placement table at admission; a site that retired
    a fragment at epoch [e] refuses visits stamped [>= e] with the
    typed stale-epoch error, which is charged to the retry budget
    (placement may still be converging) rather than raised as a
    permanent remote failure. *)
val set_epoch : handle -> int -> unit

(** The {!Pax_dist.Transport.t} view of one handle.  Its [reset_run]
    queues best-effort [Run_done] for the finished run (servers evict
    that run's state) before drawing a fresh run id; its [close] queues
    [Run_done] without consuming the handle. *)
val handle_transport : handle -> Pax_dist.Transport.t

(** Best-effort [Run_done] for the handle's current run to every site
    it contacted — servers drop the run's stage state and reply memos.
    Each frame is queued on the site's connection and written with the
    next frame to that site, or alone within about 50 ms if none
    follows, or at once when 8 are queued.  Idempotent; called by
    [handle_transport]'s [close] and [reset_run]. *)
val finish_run : handle -> unit

(** {1 Process-global ids} *)

(** A fresh run id: the low 32 bits come from a process-global
    monotonic counter (guaranteed distinct across rapid successive
    runs in one process), the bits above from a per-process random
    base ([/dev/urandom], pid-mixed), masked to the 55 bits the wire
    varint codec carries.  Exposed for the uniqueness test. *)
val fresh_run_id : unit -> int

(** {1 Teardown} *)

(** Best-effort [Shutdown] to every site (ignores delivery failures),
    behind any queued [Run_done] frames; then {!close}s. *)
val shutdown_sites : t -> unit

(** Write each connection's queued [Run_done] frames, then close all
    connections (in-flight requests fail over to their retry budgets,
    servers see EOF and await reconnection, the idle reader exits).
    The client stays usable: the next request reconnects. *)
val close : t -> unit
