(* Glue between a finished engine run and the Pax_obs.Audit bound
   checker: extract |Q|, |FT|, |T| and the run's logical accounting
   from the run result (visits and control bytes from the trace, whose
   logical counters are immune to fault-plan retransmissions), then
   evaluate the paper's three bounds. *)

module Audit = Pax_obs.Audit

let visit_limit = function
  | "pax2" | "pax2-xa" -> Some 2
  | "pax3" | "pax3-xa" -> Some 3
  | "parbox" -> Some 1
  | _ -> None

let input ~engine ~ftree (r : Run_result.t) : Audit.input =
  let compiled = r.Run_result.query.Pax_xpath.Query.compiled in
  let report = r.Run_result.report in
  let tr = r.Run_result.trace in
  {
    Audit.engine;
    visit_limit = visit_limit engine;
    max_visits = Pax_dist.Trace.max_logical_visits tr;
    q_entries = compiled.Pax_xpath.Compile.n_sel + compiled.n_qual;
    ft_size = Pax_frag.Fragment.n_fragments ftree;
    t_size = ftree.Pax_frag.Fragment.doc_node_count;
    control_bytes = Pax_dist.Trace.logical_control_bytes tr;
    answer_bytes = report.Pax_dist.Cluster.answer_bytes;
    total_ops = report.total_ops;
  }

let audit ?c_comm ?c_comp ~engine ~ftree r =
  Audit.evaluate ?c_comm ?c_comp (input ~engine ~ftree r)
