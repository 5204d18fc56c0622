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

(** [run] is its rounds in order, each a stage of {!Stages}: a
    ["stage1"] round of {!Stages.select} ({!Flat_pass.combined_run} at
    the site), {!Stages.unify_quals} and {!Stages.unify_contexts} at
    the coordinator, and a ["stage2"] round of {!Stages.resolve}
    (candidate resolution). *)
val run :
  ?annotations:bool -> Pax_dist.Cluster.t -> Pax_xpath.Query.t -> Run_result.t
