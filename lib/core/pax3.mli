(** Algorithm PaX3 (paper §3): three-stage partial evaluation of a
    data-selecting XPath query over a fragmented, distributed tree.

    - {b Stage 1} — every site partially evaluates the qualifier vectors
      of all its fragments bottom-up, in parallel, shipping the root
      vectors (residual formulas) to the coordinator, which unifies them
      over the fragment tree ([evalFT]).  Skipped entirely when the
      query has no qualifier entries.
    - {b Stage 2} — the coordinator ships the unified qualifier values
      back; every site grounds its stored vectors and runs the top-down
      selection pass, starting from symbolic context variables (or from
      annotation-derived ground entries when [annotations] is set).
      Certain answers travel back with the response; context vectors for
      sub-fragments go to the coordinator, which unifies them top-down.
    - {b Stage 3} — only sites still holding candidate answers receive
      their grounded contexts, resolve the candidates locally and ship
      the remaining answers.

    Guarantees (checked by the test-suite): ≤ 3 visits per site,
    communication [O(|Q| |FT| + |ans|)] with only answer elements as
    tree data, total computation [O(|Q| |T|)].

    With [annotations:true], Stage 2 skips fragments that provably
    cannot contain answers (§5), and fragments whose annotation-derived
    context is fully ground produce no candidates, removing their
    Stage 3 visit. *)

(** [run] is its rounds in order, each a stage of {!Stages}: a
    ["stage1"] round of {!Stages.qualify} ({!Flat_pass.qual_run} at the
    site) and {!Stages.unify_quals}, both skipped without qualifiers; a
    ["stage2"] round of {!Stages.select} ({!Flat_pass.qual_resolve} and
    {!Flat_pass.sel_run}) and {!Stages.unify_contexts}; and a
    ["stage3"] round of {!Stages.resolve} (candidate resolution). *)
val run :
  ?annotations:bool -> Pax_dist.Cluster.t -> Pax_xpath.Query.t -> Run_result.t
