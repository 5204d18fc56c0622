(** Algorithm PaX2 (paper §4): the two-stage refinement of PaX3.

    Stage 1 folds qualifier and selection evaluation into a {e single}
    depth-first traversal of each fragment: the pre-order half computes
    the selection vector using placeholder variables
    ([Var.Qual_at (node, entry)]) for qualifier values that the
    post-order half has not yet computed; once the subtree is done, the
    placeholders are resolved locally (the paper's [qz] unification,
    Examples 4.1–4.2).  What is left symbolic crosses fragment
    boundaries only: boundary qualifier variables (resolved bottom-up by
    [evalFT]) and context variables (resolved top-down).  Stage 2 sends
    the unified values to the sites still holding candidates, which
    resolve and ship the remaining answers.

    ≤ 2 visits per site; with [annotations:true] the combined pass
    skips irrelevant fragments outright — including fragments whose data
    no qualifier of a possible answer can reach — and ground contexts
    remove Stage 2 visits (a single visit for qualifier-free queries). *)

(** Each stage is described once, as a {!Pax_dist.Cluster.remote}: the
    wire call a site gets and how its reply fills the coordinator's
    views.  With a socket transport the call travels to a site server;
    without one, the in-process transport hands it to the same site
    handler ({!Site.handler}: {!Flat_pass.combined_run} in stage 1,
    candidate resolution in stage 2). *)
val run :
  ?annotations:bool -> Pax_dist.Cluster.t -> Pax_xpath.Query.t -> Run_result.t

(** {1 The stages, shared with Count and Batch}

    {!run} is these steps in order: {!prepare}, a ["stage1"] round of
    {!stage1} visits, {!unify_quals} and {!unify_contexts} at the
    coordinator, and a ["stage2"] round of {!stage2} visits.  Each
    round's traffic is accounted by {!Pax_dist.Cluster.run_round} from
    its calls and replies, so a stage is described once.  Count and
    Batch drive the same steps, so they charge what PaX2 charges. *)

(** One query's PaX2 run at the coordinator: the stage-1 views filled
    from site replies and evalFT's results.  The sites' own state lives
    behind the run's handler ({!Site.handler}). *)
type stages

val prepare :
  ?annotations:bool -> Pax_dist.Cluster.t -> Pax_xpath.Query.t -> stages

(** May the fragment hold answers or data a qualifier of one reads
    (always, without annotations)?  Stage 1 visits these. *)
val relevant : stages -> int -> bool

(** Did the fragment's stage-1 reply keep candidates?  Stage 2 visits
    these. *)
val has_candidates : stages -> int -> bool

(** Stage 1: the combined pass over the site's relevant fragments
    that the stage cache did not already answer.  Parsing fills each
    fragment's view and charges its ops; [store] (default: nothing)
    sees each result it fills. *)
val stage1 :
  ?store:(Pax_wire.Wire.frag_result -> unit) -> stages ->
  unit Pax_dist.Cluster.remote

(** evalFT, bottom-up: unify the qualifier vectors; charges the
    coordinator [n_frag × n_qual] ops. *)
val unify_quals : stages -> unit

(** evalFT, top-down: unify the context vectors (after
    {!unify_quals}); charges the coordinator [n_frag × n_sel] ops. *)
val unify_contexts : stages -> unit

(** Stage 2: resolve the candidates with the unified values; the
    parsed result is the site's answers, its ops charged. *)
val stage2 : stages -> Pax_xml.Tree.node list Pax_dist.Cluster.remote

(** The answers stage 1 found certain, over all fragments. *)
val certain_answers : stages -> Pax_xml.Tree.node list
