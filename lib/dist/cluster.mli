(** The simulated distributed setting: a coordinator (the query site
    [S_Q] of the paper) plus a set of sites, each holding one or more
    fragments of a document.

    Every round goes through a {!Transport.t}: the in-process one
    ({!Transport.local}, over the run's site handler, see {!reset})
    unless a socket transport is installed.  Either way the cluster
    accounts for exactly the quantities the paper's guarantees are
    stated in:

    - {b visits} — one per (site, communication round) in which the
      coordinator executes work at the site, irrespective of how many
      fragments the site holds {e and of how many delivery attempts the
      fault plan forces} (paper property: ≤ 3 for PaX3, ≤ 2 for PaX2,
      1 for ParBoX);
    - {b network traffic} — bytes per message, split into control
      traffic (queries, partial-answer vectors, resolutions) and data
      traffic (shipped answer elements).  {!run_round} derives a
      round's messages from the sections of its calls and replies, so
      an engine describes a round once, and both backends account the
      same bytes by construction;
    - {b computation} — per-site wall-clock spans and abstract operation
      counts; {e parallel cost} is the per-round maximum over sites
      (plus coordinator work), {e total cost} the sum over sites.

    Sites are stateful between visits, as in the paper (a site keeps the
    vectors it computed in stage 1 for use in stages 2/3).

    {2 Faults and retries}

    A {!Fault.t} plan (installed with {!set_fault}) may drop, delay or
    duplicate any message, lose a visit request or reply, or crash a
    site between visits.  The cluster transparently retries under the
    installed {!Retry.t} policy; when the budget is exhausted it raises
    {!Site_unreachable} — runs either complete with correct answers or
    fail with this typed error, never hang.  Every visit, transmission,
    retry and crash is recorded in a {!Trace.t} (see {!trace}), from
    which the paper's bounds are assertable post hoc.

    A visit whose {e reply} was lost is re-delivered: the request goes
    to the site once per [Trace.Visit] event, so a site must answer a
    round idempotently (the XPath engines' site handler,
    [Pax_core.Site], answers a replayed round from its reply memo —
    the same memo on both backends).  Only the last delivery's reply is
    parsed, once.

    {2 Real parallelism}

    With [domains > 1] (see {!create}, {!set_domains}, the [PAX_DOMAINS]
    environment variable and the CLI's [--domains]), the per-site visits
    of a round execute concurrently on a {!Pool} of real OCaml domains —
    the paper's parallel-cost bound [O(|Q| · max_site |F_site|)] becomes
    physical wall-clock, not just accounting.  No effect of a round runs
    inside a pooled task: fate walks, and so trace events and retries,
    happen on the calling thread before any delivery, and a round's
    messages are accounted on the calling thread after the parse.  Answers, visit counts, traces and
    all deterministic report fields are therefore identical to a
    [domains:1] run — under an installed fault plan too, since a plan
    is a pure function of (site, round, attempt) and of the message
    context, never of visit order.  Replies are parsed on the pool, so
    two requirements fall on a {!remote}'s [parse]: it must not share
    mutable state across sites (the engines keep views per fragment or
    per site), and it must charge {!add_ops} only to its own site.  See
    docs/PARALLELISM.md. *)

type endpoint = Trace.endpoint = Coordinator | Site of int

type msg_kind = Trace.msg_kind =
  | Query  (** the query shipped to a site *)
  | Vectors  (** partial answers: residual-formula vectors *)
  | Resolution  (** unified (ground) values sent back to sites *)
  | Answers  (** answer elements — the only tree data PaX ships *)
  | Tree_data  (** whole fragments — what NaiveCentralized ships *)

type message = {
  src : endpoint;
  dst : endpoint;
  kind : msg_kind;
  bytes : int;
  label : string;
}

(** Raised when a visit or message exhausts the retry policy's attempt
    budget.  [stage] is the round label (or message label for a send
    outside a round). *)
exception Site_unreachable of { site : int; stage : string; attempts : int }

type t

(** [create ~ftree ~n_sites ~assign] places fragment [fid] on site
    [assign fid] (sites are [0..n_sites-1]).  The new cluster has no
    fault plan and the {!Retry.default} policy.  [domains] is the
    concurrency degree for {!run_round} (default: {!default_domains},
    i.e. [PAX_DOMAINS] or 1).  [transport] plugs in a remote backend
    ({!Pax_net.Client.transport} builds the socket one); without it
    visits go to the run's site handler in process. *)
val create :
  ?domains:int ->
  ?transport:Transport.t ->
  ftree:Pax_frag.Fragment.t -> n_sites:int -> assign:(int -> int) -> unit -> t

(** An {e abstract} cluster: [n_frags] fragments of some non-tree
    dataset (e.g. a graph fragment store, [lib/graph/]) placed on
    [n_sites] sites.  All visit/message/retry/trace machinery works
    identically; only {!ftree} is unavailable (it raises
    [Invalid_argument] — the XPath engines are the only callers that
    need the fragment tree itself). *)
val create_abstract :
  ?domains:int ->
  ?transport:Transport.t ->
  n_frags:int -> n_sites:int -> assign:(int -> int) -> unit -> t

(** One site per fragment. *)
val one_site_per_fragment : ?domains:int -> Pax_frag.Fragment.t -> t

(** The fragment tree.  @raise Invalid_argument on an abstract cluster
    (see {!create_abstract}). *)
val ftree : t -> Pax_frag.Fragment.t

(** Number of fragments placed, whatever the dataset. *)
val n_frags : t -> int

val n_sites : t -> int

(** Concurrency degree for rounds: 1 = sequential. *)
val domains : t -> int

(** Change the degree between runs (worker domains are pooled
    process-wide, so this is cheap). *)
val set_domains : t -> int -> unit

(** [PAX_DOMAINS] from the environment if set to a positive integer,
    else 1. *)
val default_domains : unit -> int

(** Site holding a fragment. *)
val site_of : t -> int -> int

(** Fragments held by a site, in fid order. *)
val fragments_on : t -> int -> int list

(** Sites holding at least one of the given fragments, ascending and
    duplicate-free — each site is charged at most one visit per round
    no matter how many of the fragments it holds.  Every fragment
    listed is counted as one {e touch} (see {!frag_touches}) and, with
    an enabled sink, as [pax_site_fragment_visits_total{fid}]. *)
val sites_holding : t -> int list -> int list

(** Per-fragment touch counts accumulated since the last {!reset} — the
    hotness signal the serving layer harvests into its placement table
    and the rebalancer acts on (docs/SHARDING.md).  Returns a copy. *)
val frag_touches : t -> int array

(** Placement epoch the cluster's [assign] was snapshotted from
    (default 0 = no placement table; reporting only — the transport
    handle carries the epoch servers check). *)
val epoch : t -> int

val set_epoch : t -> int -> unit

(** {1 Faults, retries, tracing} *)

(** Install a fault plan; it survives {!reset} so a plan set before a
    run applies to the whole run. *)
val set_fault : t -> Fault.t -> unit

val set_retry : t -> Retry.t -> unit

(** {1 Transports}

    A fault plan drives socket rounds exactly as in-process ones: each
    site walks the same fates before its request is sent, so a plan
    yields the same trace on both backends (docs/FAULTS.md).  Real
    delivery failures on a transport are numbered after a site's
    simulated attempts, go through the same {!Retry} budget and raise
    the same {!Site_unreachable}. *)

(** Install or remove the remote backend (without one, rounds use
    {!Transport.local}). *)
val set_transport : t -> Transport.t option -> unit

(** Is a remote backend installed?  PaX2 consults this to use the
    stage cache on the socket path only. *)
val transport_active : t -> bool

(** {1 Cross-query cache}

    A {!Stage_cache.t} (default: {!Stage_cache.noop}) lets engines skip
    recomputing fully-resolved stage-1 results for (query, fragment)
    pairs already evaluated by an earlier run over the same fragment
    tree.  Only consulted with a socket transport — a cache hit elides a
    real network visit; in-process simulated runs stay cache-free so
    their accounted costs remain the paper's.  See {!Stage_cache} for
    the correctness contract and docs/SERVING.md for the serving-layer
    implementation. *)

val set_stage_cache : t -> Stage_cache.t -> unit
val stage_cache : t -> Stage_cache.t

(** {1 Simulated service latency}

    The in-process mirror of [Pax_net.Server]'s [service_delay]: every
    {e physical} execution of a visit charges this many simulated
    seconds into the visited site's round time (a replay forced by a
    lost reply pays again), composing with fault plans and retry
    budgets.  Nothing is slept, and answers, visit counts, traces and
    accounted traffic are bit-identical with or without it — only the
    report's simulated-time fields grow.  Survives {!reset} like the
    fault plan.  {!Transport.local} adds it to each delivery's seconds;
    a socket transport ignores it, since the real server applies its
    own delay. *)

val set_service_delay : t -> float -> unit
val service_delay : t -> float

(** Transport byte counters accumulated since the last {!reset} (i.e.
    for the current run), or [None] without a transport. *)
val net_stats : t -> Transport.stats option

(** The structured event log of the current (or last) run.  Cleared by
    {!reset}, i.e. at the start of each engine run. *)
val trace : t -> Trace.t

(** {1 Telemetry}

    A {!Pax_obs.Sink.t} (default: the no-op sink) collects spans and
    metrics alongside — never instead of — the semantic accounting
    above.  With an enabled sink each round records a span
    (track ["coordinator"], category ["round"]) and a
    [pax_round_seconds] observation, each visit a span on its site's
    track (category ["visit"]), each {!coord} stage a span (category
    ["stage"]), and counters [pax_rounds_total],
    [pax_visits_total{site}], [pax_retries_total],
    [pax_messages_total{kind}] and [pax_message_bytes_total{kind}]
    mirror the logical accounting.  The no-op sink costs one branch per
    call site, and answers, visit counts, op counts and accounted
    traffic are bit-identical either way (asserted by
    [test/test_obs.ml]).  Cleared by {!reset} like the trace. *)

val sink : t -> Pax_obs.Sink.t
val set_sink : t -> Pax_obs.Sink.t -> unit

(** {1 Instrumented execution} *)

(** A round's description: how to phrase a site visit as a wire call
    and read the result back from the reply.  Both backends run it. *)
type 'a remote = {
  build : int -> Pax_wire.Wire.call;
  parse : int -> Pax_wire.Wire.reply -> 'a;
}

(** [run_round t ~label ~sites rm] visits each listed site once: the
    transport delivers [rm.build site] there and [rm.parse site] reads
    the reply; the round's parallel cost is the maximum of the sites'
    seconds.

    {b Result order is a contract:} the returned [(site, result)] pairs
    follow the input [sites] order with duplicates removed (first
    occurrence wins) — {e not} any internal visiting or completion
    order.  The deterministic parallel merge relies on this, and callers
    may too.

    Under an installed fault plan each visit may take several delivery
    attempts (see {!Site_unreachable}); the per-site visit counter is
    charged once per (site, round) regardless, each site's call is
    built once, and each site's reply is parsed once.  A handler's
    exception propagates from the first failing site in input order.

    {b Traffic.}  Once the round is recorded, its messages are {!send}s
    derived from the wire ({!Pax_wire.Wire.call_sections},
    {!Pax_wire.Wire.reply_sections}): site by site in input order, one
    message per section of the site's call (coordinator to site), then
    one per section of its reply (site to coordinator), labelled and
    sized as the walker gives them.  Two kinds travel uncharged: a
    call's [Vectors] (the annotation-pruned initial vectors) and
    [Frag_flat] images (Naive sends its fragments' [Tree_data] itself).
    Visit counts, trace events and accounted messages are therefore
    identical across backends.  A message given up on raises
    {!Site_unreachable} with the round already in the report. *)
val run_round : t -> label:string -> sites:int list -> 'a remote -> (int * 'a) list

(** [coord t ~label f] runs coordinator-side work (e.g. [evalFT]),
    accounted in both parallel and total cost. *)
val coord : t -> label:string -> (unit -> 'a) -> 'a

(** [send t ~src ~dst ~kind ~bytes ~label] records a message that no
    round section describes (NaiveCentralized's fragments, charged at
    their printed size; {!run_round} accounts everything else).  Under
    a fault plan the transmission may be dropped (and retried, each
    physical copy recorded), duplicated or delayed. *)
val send :
  t -> src:endpoint -> dst:endpoint -> kind:msg_kind -> bytes:int ->
  label:string -> unit

(** [add_ops t ~site n] adds abstract work units (vector-entry
    operations) to a site's counters for the current round; use
    [site:(-1)] for the coordinator. *)
val add_ops : t -> site:int -> int -> unit

(** Forget all recorded costs and the trace (fragment placement, fault
    plan and retry policy stay), and install [handler] as the run's
    site procedure for in-process rounds (default: none — an
    in-process round then raises [Invalid_argument]).  Every engine
    calls it before its first round. *)
val reset : ?handler:Transport.handler -> t -> unit

(** {1 Reports} *)

type report = {
  parallel_seconds : float;
  total_seconds : float;
  coord_seconds : float;
  parallel_ops : int;
  total_ops : int;
  visits : int array;  (** per site, one per (site, round) *)
  max_visits : int;
  retries : int;  (** delivery retries forced by the fault plan *)
  rounds : string list;  (** round labels, in order *)
  control_bytes : int;
  answer_bytes : int;
  tree_bytes : int;  (** nonzero only for fragment-shipping baselines *)
  n_messages : int;  (** physical transmissions, retransmissions included *)
  net_seconds : float;
      (** simulated wire time: per-message latency + bytes/bandwidth
          under a LAN-like model (0.1 ms, 100 MB/s), plus retry backoff
          and injected delays *)
  measured_bytes : int option;
      (** actual socket bytes this run, both directions, when a
          transport is installed; [None] for in-process runs *)
}

(** The report's traffic fields fold over the trace's [Message] events,
    the one ledger: every transmission counts, and a duplicated
    delivery counts twice, as in {!Trace.physical_messages}. *)
val report : t -> report

(** Every transmission of the run, in order: a view of the trace's
    [Message] events (a duplicated delivery appears twice). *)
val messages : t -> message list
val pp_report : Format.formatter -> report -> unit
