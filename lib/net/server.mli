(** The site server: one process per site, holding that site's
    fragments and answering {!Wire} visit requests over a socket.

    A server runs the {e same} site handler as the in-process PaX
    engines ({!Pax_core.Site}) on flat images of the same fragments,
    so answers, per fragment vectors and operation counts are
    bit-identical across transports; reachability calls go to
    [Pax_graph.Reach.stage1_reply], as in process.

    Visit state is kept per run (the coordinator stamps every request
    with a run id): one {!Pax_core.Site.t} per run retains stage-1
    results for the later stages and memoizes every computed reply by
    round — a retransmitted request is answered from the memo, making
    visits idempotent exactly as the simulated cluster requires.  The
    server adds what a shared process needs around it: the lock, the
    retirement fences (checked after the memo, before execution), the
    run-id table and the generation feed.  Runs are tracked concurrently
    in a bounded table: a [Run_done] frame evicts a finished run's
    state eagerly, and an LRU cap of [max_runs] bounds memory even when
    coordinators die without sending one (docs/SERVING.md).  Evicting a
    still-live run is safe — its later requests recompute, or fail with
    a typed [Error] the client retries. *)

type t

val default_max_runs : int
(** Default LRU cap on concurrently retained run states (64). *)

(** [create ~frags ()] — a server holding fragments [(fid, root)].
    Fragment 0, when present, is the document root (fragment ids are
    topological).  [max_runs] caps retained per-run state (default
    {!default_max_runs}); beyond it the least-recently-touched run is
    evicted (counted as [pax_srv_runs_evicted_total]).

    [service_delay] (seconds, default 0) sleeps before computing each
    visit reply, simulating the network/service latency of a genuinely
    remote site — loopback sockets have none, and latency is what
    concurrent serving overlaps (bench/throughput.ml, docs/SERVING.md).
    Ping, stats and [Run_done] frames are never delayed.

    [gfrags] (default none) are graph fragments for the reachability
    engine ([lib/graph/], docs/ENGINES.md); a server may hold tree
    fragments, graph fragments or both under the same fragment-id
    space.

    Tree fragments are flattened once, here, into images sharing one
    site-wide intern table (docs/FLATTREE.md), each at version [(0, 0)];
    every visit evaluates over those images. *)
val create :
  ?max_runs:int ->
  ?service_delay:float ->
  ?gfrags:(int * Pax_graph.Gfrag.fragment) list ->
  frags:(int * Pax_xml.Tree.node) list ->
  unit ->
  t

(** Number of run states currently retained — exposed so tests can
    check the memo table stays bounded. *)
val n_run_states : t -> int

(** Drop one run's state (what a [Run_done] frame does). *)
val evict_run : t -> int -> unit

(** {1 Elastic sharding hooks (docs/SHARDING.md)}

    Exposed for tests; [serve] drives them from the
    [Frag_fetch]/[Frag_install]/[Frag_retire] frames. *)

(** The fragment's wire image: tree fragments as their
    {!Pax_xml.Flat.encode} image, graph fragments via [Gfrag.encode]. *)
val fetch_image :
  t ->
  fid:int ->
  kind:Pax_wire.Wire.frag_kind ->
  (Pax_wire.Wire.frag_image, string) result

(** Validate and swap in an image (tree images decode against the
    server's own intern table); clears any retirement fence for the
    fragment.  Idempotent.  A corrupt image is refused without touching
    held state. *)
val install_image :
  t ->
  fid:int ->
  epoch:int ->
  Pax_wire.Wire.frag_image ->
  (string, string) result

(** Apply an update pushed by a coordinator ([Frag_update]): patch the
    held tree image with an edit, or replace it with a whole image;
    record [version] as the image's version and clear the fragment's
    retirement fence.  An edit whose base version the server does not
    hold, or that does not apply, is refused with
    {!Pax_wire.Wire.stale_base_error} and changes nothing.  Counted as
    [pax_srv_frag_updates_total{change="edit"|"image"|"stale_base"}]. *)
val update_frag :
  t ->
  fid:int ->
  epoch:int ->
  version:Pax_wire.Wire.version ->
  Pax_wire.Wire.frag_change ->
  (string, string) result

(** Fence the fragment at [epoch]: later visits stamped with an epoch
    [>= epoch] get the typed stale-epoch error, while the retained data
    keeps serving older in-flight runs (drain-free migration).
    Idempotent; an existing newer fence wins. *)
val retire_frag :
  t ->
  fid:int ->
  epoch:int ->
  kind:Pax_wire.Wire.frag_kind ->
  (string, string) result

(** [serve t fd] — accept loop on a listening socket, one thread per
    accepted connection (N coordinators hold their multiplexed
    connections open concurrently; docs/SERVING.md).  Shared state is
    guarded by one server lock; [service_delay] sleeps and socket IO
    overlap across connections.  On EOF the client may reconnect.
    [Ping] is answered with [Pong]; [Gen_publish] is max-merged,
    acknowledged, and fanned out to every live connection as a
    [Gen_event]; [Shutdown] makes [serve] return (the listening socket
    stays open for the caller to close).  Malformed frames close the
    offending connection. *)
val serve : t -> Unix.file_descr -> unit

(** Set the garbage collector for a process that is a site server: a
    lower space overhead than the runtime's default, which bounds the
    major heap near twice the live fragment images.  [spawn]'s child
    and [pax serve] call it. *)
val tune_gc : unit -> unit

(** [spawn ~addr ~frags ()] — fork a child serving [frags] on [addr];
    the socket is bound and listening before [spawn] returns, so a
    client may connect immediately.  Returns the child pid (the child
    never returns).  The child exits 0 after [Shutdown], or dies with
    the signal it receives — reap it with [Unix.waitpid]. *)
val spawn :
  ?max_runs:int ->
  ?service_delay:float ->
  ?gfrags:(int * Pax_graph.Gfrag.fragment) list ->
  addr:Sockio.addr ->
  frags:(int * Pax_xml.Tree.node) list ->
  unit ->
  int
