(** Multi-query evaluation: a whole batch of queries in the same two
    communication rounds.

    Each visit is the expensive part in a WAN setting; since PaX2's
    protocol is query-independent, [n] queries can share the rounds —
    every site is still visited at most twice {e in total}, and the
    communication stays [O(Σ|Qᵢ| |FT| + Σ|ansᵢ|)].

    Each query runs PaX2's own stages ({!Stages}, [Two_stage]), with its own
    site states, in process; a batch of one charges exactly what a
    PaX2 run charges. *)

type t = {
  results : (Pax_xpath.Query.t * Pax_xml.Tree.node list) list;
      (** per query, answers sorted by node id *)
  report : Pax_dist.Cluster.report;
}

val run : ?annotations:bool -> Pax_dist.Cluster.t -> Pax_xpath.Query.t list -> t
