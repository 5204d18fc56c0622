(** The ParBoX special case (Buneman et al., VLDB 2006; paper §3.1):
    Boolean XPath queries over the fragmented tree, i.e. "does qualifier
    [q] hold at the document root?".

    This is exactly Stage 1 of PaX3 followed by the coordinator-side
    unification: a single visit per site, communication [O(|Q| |FT|)],
    no tree data shipped at all.  Our version carries the paper's
    extensions: arithmetic comparisons and arbitrarily many top-level
    qualifiers (pass a conjunction). *)

(** [eval cluster q] — truth of [q] at the root of the distributed
    document, plus the cost report.  Each site answers a PaX3 stage-1
    call on the query [ε[q]] ({!Flat_pass.qual_run} over its fragments,
    through {!Site.handle}). *)
val eval :
  Pax_dist.Cluster.t -> Pax_xpath.Ast.qual -> bool * Pax_dist.Cluster.report

(** [eval_string cluster s] parses [s] as a qualifier first. *)
val eval_string :
  Pax_dist.Cluster.t -> string -> bool * Pax_dist.Cluster.report
