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

(** [nodes_of_slots fl slots] — answers exactly as a site ships them:
    every slot of image [fl] through {!Pax_wire.Wire.answers_of_slots}
    and {!Pax_wire.Wire.node_of_answer}.  In-process and socket runs
    build [answers] with it, so both return the same nodes. *)
val nodes_of_slots : Pax_xml.Flat.t -> int list -> Pax_xml.Tree.node list

(** The trace, for callers that know the engine recorded one. *)
val trace_exn : t -> Pax_dist.Trace.t

val pp : Format.formatter -> t -> unit
