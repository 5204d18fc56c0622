(** The distributed reachability engine: local partial evaluation to
    Boolean residuals over boundary-node variables, one visit per
    site, coordinator least-fixpoint (docs/ENGINES.md).

    Guarantees, in the terms of Fan/Wang/Wu's partial-evaluation
    treatment of distributed reachability:
    - {b visits} — each site is visited exactly once per query;
    - {b comm}   — total traffic is [O(|Vf|²)] in the number of
      boundary (entry) nodes, independent of graph size;
    - {b comp}   — total work is [O(|V| + |E| + |Vf|²)].

    The live auditor checks all three on every run via
    {!Pax_obs.Audit.bound}. *)

module Cluster = Pax_dist.Cluster

type query = {
  rq_src : int;
  rq_dst : int;
  rq_source : string;  (** canonical ["reach SRC DST"] text *)
}

(** Parse and range-check against the partition. *)
val parse : Gfrag.partition -> string -> (query, string) result

(** [stage1_reply frag_of ~query fids] — a site's reply to a
    [Reach_stage1] call: {!Gfrag.local_eval} of the parsed [query] over
    each listed fragment ([frag_of fid]), with its ops.  Site servers
    and {!eval}'s in-process visit both build their replies here.
    @raise Failure if [query] is not a reachability query. *)
val stage1_reply :
  (int -> Gfrag.fragment) -> query:string -> int list -> Pax_wire.Wire.reply

(** [eval g cl q] — one round of {!Pax_wire.Wire.call.Reach_stage1}
    visits over the sites (answered by {!stage1_reply}: in process
    through the run's {!Cluster.reset} handler, or by a site server
    over a socket transport), accounted sends (query down,
    vectors up), then the coordinator fixpoint.  Residual vectors are pure disjunctions, so
    the fixpoint is dependency-graph reachability over entry
    variables. *)
val eval : Gfrag.partition -> Cluster.t -> query -> bool * Cluster.report

(** Audit the bounds above against a finished run's trace and
    report. *)
val audit :
  Gfrag.partition -> Cluster.t -> Cluster.report -> Pax_obs.Audit.report

(** Package as a {!Pax_engine.Pe} engine named ["reach"] over an
    abstract cluster with the given placement. *)
val engine :
  Gfrag.partition -> n_sites:int -> assign:(int -> int) -> Pax_engine.Pe.packed
