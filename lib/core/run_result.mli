(** Outcome of one distributed evaluation: the answer plus the full cost
    accounting, and (for the cluster engines) the structured event
    trace the run emitted. *)

type t = {
  query : Pax_xpath.Query.t;
  answers : Pax_xml.Tree.node list;  (** sorted by node id *)
  answer_ids : int list;  (** sorted *)
  report : Pax_dist.Cluster.report;
  trace : Pax_dist.Trace.t option;
      (** every visit, message, retry and crash of the run; the visit
          and communication bounds are assertable from it post hoc *)
}

val make :
  ?trace:Pax_dist.Trace.t -> query:Pax_xpath.Query.t ->
  answers:Pax_xml.Tree.node list -> report:Pax_dist.Cluster.report -> unit -> t

(** The trace, for callers that know the engine recorded one. *)
val trace_exn : t -> Pax_dist.Trace.t

val pp : Format.formatter -> t -> unit
