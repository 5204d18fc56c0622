(** One site's local procedure: the PaX2 and PaX3 stage handlers over
    a site's flat fragment images, with the per-run state a site keeps
    between visits (paper §3: a site keeps the vectors it computed in
    stage 1 for use in stages 2 and 3).

    This is the only place the stage kernels ({!Flat_pass}) run for a
    distributed PaX or ParBoX run.  Both backends call it: the socket
    server ([Pax_net.Server]) holds one {!t} per run id, and the
    in-process engines hold one per site per run and hand {!handler}
    to {!Pax_dist.Cluster.reset}, whose in-process transport visits
    it.  A stage is therefore described once, as a
    {!Pax_dist.Cluster.remote} ([build] the call, [parse] the reply),
    and every backend runs the same code on the same images.

    No sockets, no lock, no run-id table: a {!t} is touched by one
    visit at a time (the server's lock, or the one pool task visiting
    its site). *)

module Wire = Pax_wire.Wire

(** Tables keyed by an int (a fragment or round id), hashed and
    compared as ints. *)
module Int_tbl : Hashtbl.S with type key = int

(** One run's state at one site: the run's query and plan, the
    candidates each fragment keeps for the final stage (with the image
    their slots index), PaX3's qualifier states, and the reply memo. *)
type t

(** [create ?query intern ~image] — fresh run state over the site's
    intern table and image lookup ([image fid] raises [Failure] for a
    fragment the site does not hold).  [query] seeds the run's query
    and plan when the caller has built them already; otherwise the
    first call carrying the query source compiles and lowers it. *)
val create :
  ?query:Pax_xpath.Query.t * Flat_pass.plan ->
  Pax_xml.Intern.t ->
  image:(int -> Pax_xml.Flat.t) ->
  t

(** [handle t call] executes one PaX2 or PaX3 stage call over the
    site's images and returns its reply, without consulting or filling
    the memo.  Stage-1 calls keep state for the run's later stages;
    PaX3 stage 2 substitutes into the kept qualifier vectors in place,
    which is why a replayed call must be answered from the memo.  A
    [Calls] list answers element [i] against the [i]-th per-query state
    of [t] (created on first use), since a [t] holds one query's
    candidates; a [Ship] call answers with the listed fragments'
    images.
    @raise Failure on a final-stage call for a fragment without
    stage-1 state, and [Invalid_argument] on a reachability call (graph
    fragments are not tree images) or a nested [Calls]. *)
val handle : t -> Wire.call -> Wire.reply

(** The reply memoized for a round, if any. *)
val replay : t -> round:int -> Wire.reply option

(** Memoize a round's reply. *)
val record : t -> round:int -> Wire.reply -> unit

(** [visit t ~round call] — the reply memoized for [round], else
    {!handle} [call] and memoize its reply.  A replayed round gets the
    identical reply without running a kernel. *)
val visit : t -> round:int -> Wire.call -> Wire.reply

(** {1 In process} *)

(** [states cl q] — one fresh run state per site of [cl], over the
    fragment tree's images ({!Pax_frag.Fragment.flat}) and intern
    table, seeded with [q] and its plan (built once, here, and only
    read afterwards). *)
val states : Pax_dist.Cluster.t -> Pax_xpath.Query.t -> t array

(** [batch cl qs] — one run state per site whose [i]-th per-query
    state is [(states cl q_i).(site)]: the states a Batch run's
    [Calls] visits go to. *)
val batch : Pax_dist.Cluster.t -> Pax_xpath.Query.t list -> t array

(** [handler build] — the run's site procedure for
    {!Pax_dist.Cluster.reset}: site [s] answers through {!visit} on
    [(build ()).(s)], the states built once, at the first call (a run
    over sockets never calls it, so builds none). *)
val handler : (unit -> t array) -> Pax_dist.Transport.handler
