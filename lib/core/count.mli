(** Aggregate evaluation: [count(Q)] over the fragmented tree.

    A natural extension in the spirit of Amer-Yahia et al.'s aggregate
    queries on distributed catalogs (the paper's §7): the same two-stage
    PaX2 protocol, but sites ship {e counts} instead of elements, so the
    total communication is [O(|Q| |FT|)] — independent of both the tree
    {e and} the answer size.

    It runs PaX2's own stages ({!Stages}, [Two_stage]), each call wrapped in
    {!Pax_wire.Wire.Count}: a site answers with its answer lists
    emptied and their lengths beside them.  Visits and ops equal a PaX2
    run's; only the answers' elements stay home. *)

(** [run ?annotations cluster q] — the number of nodes in [val(Q, root)]
    plus the cost report.  ≤ 2 visits per site, zero answer bytes. *)
val run :
  ?annotations:bool -> Pax_dist.Cluster.t -> Pax_xpath.Query.t ->
  int * Pax_dist.Cluster.report
