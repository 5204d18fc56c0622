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

(** A bound's formula as the numbers it is instantiated with; its text
    is rendered only when printed ({!formula_text}). *)
type formula =
  | Visits of { limit : int; engine : string }
      (** max logical visits per site [<= limit] *)
  | Comm of { c : float; q : int; ft : int; ans : int }
      (** control + answer bytes [<= c·|Q|·|FT| + |ans|] *)
  | Comp of { c : float; q : int; t : int }  (** total ops [<= c·|Q|·|T|] *)
  | Text of string  (** an engine-specific formula, as given *)

type bound = {
  b_name : string;  (** ["visits"], ["comm"] or ["comp"] *)
  b_formula : formula;
  b_actual : float;
  b_limit : float;
}

(** A report keeps plain data only — the serving tier keeps every run's
    outcome — so the paper's bounds are kept as the input they are
    computed from and derived by {!bounds}.  [pass] is computed when the
    report is built. *)
type report = { checks : checks; pass : bool }

and checks =
  | Paper of { input : input; c_comm : float; c_comp : float }
      (** {!evaluate}'s three bounds *)
  | Given of bound list  (** {!of_bounds} *)

val default_c_comm : float
val default_c_comp : float

val evaluate : ?c_comm:float -> ?c_comp:float -> input -> report

(** The report's bounds, in order: visits (when the engine promises a
    visit limit), comm, comp for {!evaluate}'s. *)
val bounds : report -> bound list

(** [passes b] — [b_actual <= b_limit]. *)
val passes : bound -> bool

(** [margin b] — [(limit - actual) / limit]; negative means violated. *)
val margin : bound -> float

(** The instantiated formula as text, e.g.
    ["total ops <= 32*|Q|*|T| = 32*10*655"]. *)
val formula_text : formula -> string

(** {1 Engine-specific bound sets}

    {!evaluate} hard-codes the XPath paper's three bounds.  An engine
    whose guarantees are stated in different terms (e.g. the
    reachability engine of [lib/graph/], whose communication bound is
    [O(|Vf|²)] over boundary nodes) builds its bounds directly and
    shares only the pass/margin/report machinery. *)

(** [bound ~name ~formula ~actual ~limit] — one checked bound, its
    formula given as text. *)
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
