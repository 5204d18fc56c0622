(** The coordinator's side of an XPath stage, written once for every
    engine (paper §3–§4).

    PaX2 is PaX3 with its qualifier and selection passes folded into
    one traversal, and ParBoX is PaX3's first stage; at the coordinator
    the engines differ only in which rounds they run:
    - PaX3: {!qualify}, {!unify_quals} (both skipped for a query without
      qualifiers), {!select}, {!unify_contexts}, {!resolve};
    - PaX2, Count and Batch: {!select}, {!unify_quals},
      {!unify_contexts}, {!resolve};
    - ParBoX: {!qualify}, {!unify_quals}, then a check at the root.

    Each stage is a {!Pax_dist.Cluster.remote}: the wire call a site
    gets and how its reply fills the coordinator's views.  With a
    socket transport the call travels to a site server; without one,
    the in-process transport hands it to the same site handler
    ({!Site.handler}).  Each round's traffic is accounted by
    {!Pax_dist.Cluster.run_round} from its calls and replies. *)

(** Which engine's calls the stages make: [Two_stage] (PaX2) folds the
    qualifier pass into the selection pass; [Three_stage] (PaX3,
    ParBoX) runs it in a round of its own first. *)
type engine = Two_stage | Three_stage

(** One query's run at the coordinator: the per-fragment views filled
    from site replies and evalFT's results.  The sites' own state lives
    behind the run's handler ({!Site.handler}). *)
type t

val prepare :
  ?annotations:bool -> engine -> Pax_dist.Cluster.t -> Pax_xpath.Query.t -> t

(** Does the selection round visit the fragment?  With annotations,
    only if it may hold answers, or, for [Two_stage], data a qualifier
    of one reads; never if the stage cache answered it ({!prefill}). *)
val selects : t -> int -> bool

(** Did the fragment's selection reply keep candidates?  The final
    round visits these. *)
val has_candidates : t -> int -> bool

(** [round r ~label ~needed rm] runs [rm] on the sites holding a
    fragment that [needed] picks. *)
val round :
  t -> label:string -> needed:(int -> bool) -> 'a Pax_dist.Cluster.remote ->
  (int * 'a) list

(** Fill a fragment's view from a cached selection result, as if its
    site had just sent it; the selection round then skips it. *)
val prefill : t -> Pax_wire.Wire.frag_result -> unit

(** The qualifier pass ([Pax3_stage1]) over every fragment of the site.
    Parsing fills each fragment's root qualifier vector and charges its
    ops. *)
val qualify : t -> unit Pax_dist.Cluster.remote

(** The selection pass over the site's fragments that {!selects} picks:
    [Pax2_stage1] (the combined pass), or [Pax3_stage2] with the
    unified qualifier values of each fragment's sub-fragments.
    Parsing fills each fragment's view and charges its ops; [store]
    (default: nothing) sees each result it fills. *)
val select :
  ?store:(Pax_wire.Wire.frag_result -> unit) -> t ->
  unit Pax_dist.Cluster.remote

(** evalFT, bottom-up: unify the qualifier vectors; charges the
    coordinator [n_frag × n_qual] ops. *)
val unify_quals : t -> unit

(** evalFT, top-down: unify the context vectors (after {!unify_quals}
    when the query has qualifiers); charges the coordinator
    [n_frag × n_sel] ops. *)
val unify_contexts : t -> unit

(** The final stage ([Pax2_stage2] or [Pax3_stage3]): resolve the
    candidates with the unified values; the parsed result is the
    site's answers, its ops charged. *)
val resolve : t -> Pax_xml.Tree.node list Pax_dist.Cluster.remote

(** The answers the selection pass found certain, over all fragments. *)
val certain_answers : t -> Pax_xml.Tree.node list

(** The root fragment's unified qualifier values (after
    {!unify_quals}). *)
val root_quals : t -> bool array
