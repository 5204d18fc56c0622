(** A fixed-size pool of worker domains for data-parallel batches.

    OCaml 5 domains map to OS threads scheduled on real cores; the pool
    makes the paper's {e parallel computation cost} — per round, the max
    over sites rather than the sum — physically true instead of merely
    accounted (see {!Cluster.run_round} and docs/PARALLELISM.md).

    A pool of {e degree} [d] executes batches with at most [d] tasks
    running at once: [d - 1] long-lived worker domains plus the calling
    domain, which participates in the batch instead of blocking idle.
    Tasks of a batch are claimed by atomic index, so uneven per-task
    workloads balance dynamically; {!run} returns only when every task
    has finished (a barrier).

    No external dependencies: [Domain] + [Mutex]/[Condition] + [Atomic]
    from the standard library.

    {b Discipline.} A pool is a batch executor, not a general scheduler:
    drive it from one domain at a time, and never submit a batch from
    inside a task of the same pool (no reentrancy — it would deadlock
    the completion barrier).  {!Cluster} obeys both by construction. *)

type t

(** [create ~domains] spawns [domains - 1] worker domains (so [degree]
    counts the caller).  [domains < 1] raises [Invalid_argument].
    [create ~domains:1] spawns nothing; its {!run}/{!map} execute
    inline. *)
val create : domains:int -> t

(** Total concurrency degree, caller included. *)
val degree : t -> int

(** [shared ~domains] returns a process-wide pool of that degree,
    creating it on first use.  Callers that churn through many clusters
    (tests, benchmarks) reuse domains instead of spawning per cluster. *)
val shared : domains:int -> t

(** [run t ~n f] executes [f 0 .. f (n-1)], each exactly once, on the
    pool plus the calling domain, and returns when all have finished.
    [f] must not raise — capture exceptions into your own results slot
    (or use {!map}).  Completion of the batch synchronizes memory: writes
    made by tasks are visible to the caller after [run] returns.

    With an enabled [obs] sink, each task records a span on its worker
    domain's track (category ["pool"]) and one
    [pax_pool_queue_wait_seconds] observation measuring publish→claim
    latency; the default no-op sink leaves [f] untouched. *)
val run : ?obs:Pax_obs.Sink.t -> t -> n:int -> (int -> unit) -> unit

(** [map t f xs] is [Array.map f xs] with the applications distributed
    over the pool, results in input order.  If one or more applications
    raise, the exception of the {e smallest} index is re-raised (with
    its backtrace) after the batch barrier, so failure is deterministic
    regardless of scheduling.  [obs] instruments the tasks as in
    {!run} when the batch runs on the pool. *)
val map : ?obs:Pax_obs.Sink.t -> t -> ('a -> 'b) -> 'a array -> 'b array

(** Terminate and join the worker domains.  Only for pools you
    {!create}d yourself; {!shared} pools live for the process. *)
val shutdown : t -> unit
