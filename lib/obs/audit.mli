(** Live guarantee auditor for the paper's three bounds (PAPER.md §6):
    per-site visit limits (≤2 PaX2 / ≤3 PaX3), communication
    [O(|Q|·|FT| + |ans|)], and total computation [O(|Q|·|T|)].

    The big-O constants default to empirically calibrated values with
    ≥4× headroom over the worst ratio observed on the example suite
    and bench workloads (see docs/OBSERVABILITY.md), so failures mean
    asymptotic regressions, not noise. *)

type input = {
  engine : string;
  visit_limit : int option;
      (** the engine's promised per-site visit cap; [None] if the
          engine makes no such promise (no visits bound emitted) *)
  max_visits : int;  (** max logical visits on any one site (Trace) *)
  q_entries : int;  (** |Q|: compiled selection + qualifier entries *)
  ft_size : int;  (** |FT|: number of fragments *)
  t_size : int;  (** |T|: document node count *)
  control_bytes : int;  (** logical non-answer traffic, section bytes *)
  answer_bytes : int;  (** logical answer traffic, section bytes *)
  total_ops : int;  (** coordinator + site operations *)
}

type bound = {
  b_name : string;  (** ["visits"], ["comm"] or ["comp"] *)
  b_formula : string;  (** instantiated human-readable formula *)
  b_actual : float;
  b_limit : float;
  b_pass : bool;
  b_margin : float;  (** [(limit - actual) / limit]; negative = violated *)
}

type report = { bounds : bound list; pass : bool }

val default_c_comm : float
val default_c_comp : float

val evaluate : ?c_comm:float -> ?c_comp:float -> input -> report

(** {1 Engine-specific bound sets}

    {!evaluate} hard-codes the XPath paper's three bounds.  An engine
    whose guarantees are stated in different terms (e.g. the
    reachability engine of [lib/graph/], whose communication bound is
    [O(|Vf|²)] over boundary nodes) builds its bounds directly and
    shares only the pass/margin/report machinery. *)

(** [bound ~name ~formula ~actual ~limit] — one checked bound;
    [b_pass] and [b_margin] are derived. *)
val bound :
  name:string -> formula:string -> actual:float -> limit:float -> bound

(** Assemble a report; [pass] is the conjunction. *)
val of_bounds : bound list -> report

(** {1 Cost ledger}

    Predicted-vs-actual accounting for every evaluated run
    (docs/OBSERVABILITY.md): each bound's actual cost lands in
    [pax_cost_actual{engine,bound}], its paper-predicted limit in the
    gauge [pax_cost_predicted_limit{engine,bound}], and their ratio in
    the calibration histogram [pax_cost_predicted_ratio{engine,bound}]
    (a ratio [>= 1] means the bound was violated, also counted into
    [pax_cost_violations_total]).  The serving coordinator records
    every admitted run here; the CLI records its one run. *)

val ratio_buckets : float array
val ledger : Sink.t -> engine:string -> report -> unit

val pp_bound : Format.formatter -> bound -> unit
val pp : Format.formatter -> report -> unit
val to_json : report -> Json.t
