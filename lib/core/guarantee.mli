(** Audit a finished engine run against the paper's guarantees.

    Bridges {!Run_result.t} to {!Pax_obs.Audit}: visit counts and
    control bytes come from the run's trace (logical counters, immune
    to fault-induced retransmissions); |Q| is the compiled entry count
    ([n_sel + n_qual]), |FT| the fragment count, |T| the document node
    count.  Constants default to the calibrated values in
    {!Pax_obs.Audit} (see docs/OBSERVABILITY.md). *)

(** The per-site visit cap an engine promises: [Some 2] for ["pax2"]
    and ["pax2-xa"], [Some 3] for ["pax3"] and ["pax3-xa"], [Some 1]
    for ["parbox"], [None] otherwise (no visits bound is emitted —
    e.g. the shipping baselines).  The [-xa] variants are the
    annotated runs as named by {!Engines}; annotations only remove
    visits, so the same caps hold. *)
val visit_limit : string -> int option

val input :
  engine:string -> ftree:Pax_frag.Fragment.t -> Run_result.t ->
  Pax_obs.Audit.input

val audit :
  ?c_comm:float ->
  ?c_comp:float ->
  engine:string ->
  ftree:Pax_frag.Fragment.t ->
  Run_result.t ->
  Pax_obs.Audit.report
