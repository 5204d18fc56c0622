(* Live guarantee auditor.

   The paper (§6) proves three bounds for PaX2/PaX3 over a fragmented
   tree T with fragment tree FT and query Q:

     visits:  every site is visited at most 2 (PaX2) / 3 (PaX3) times;
     comm:    total communication is O(|Q|·|FT| + |ans|);
     comp:    total computation is O(|Q|·|T|).

   This module turns a run's accounting into concrete checks.  The
   big-O constants are calibrated empirically (see
   docs/OBSERVABILITY.md "Auditor constants"): we measure the worst
   observed ratio across the example suite and the bench workloads and
   set each constant with >= 4x headroom, so the auditor fails only on
   genuine asymptotic regressions (e.g. shipping a fragment's subtree
   in a control message, or re-evaluating a stage per visit), not on
   noise.  Callers can tighten or loosen via [?c_comm]/[?c_comp].

   Units: |Q| is the compiled query's entry count (selection +
   qualifier vectors) — the quantity both engines' per-node work is
   linear in; |FT| is the number of fragments; |T| is the document
   node count; byte bounds use the accounted (wire section) sizes that the
   wire codec reproduces exactly. *)

type input = {
  engine : string; (* "pax2" | "pax3" | ... *)
  visit_limit : int option; (* None: engine makes no visit promise *)
  max_visits : int; (* max logical visits on any one site *)
  q_entries : int; (* |Q|: n_sel + n_qual *)
  ft_size : int; (* |FT|: number of fragments *)
  t_size : int; (* |T|: document node count *)
  control_bytes : int; (* logical non-answer traffic (section bytes) *)
  answer_bytes : int; (* logical answer traffic (section bytes) *)
  total_ops : int; (* coordinator + site ops *)
}

(* A bound's formula as the numbers it is instantiated with: a report
   is kept after its run, so its text is rendered only when printed. *)
type formula =
  | Visits of { limit : int; engine : string }
  | Comm of { c : float; q : int; ft : int; ans : int }
  | Comp of { c : float; q : int; t : int }
  | Text of string

type bound = {
  b_name : string; (* "visits" | "comm" | "comp" *)
  b_formula : formula;
  b_actual : float;
  b_limit : float;
}

(* The paper's bounds are kept as the input they are computed from. *)
type report = { checks : checks; pass : bool }

and checks =
  | Paper of { input : input; c_comm : float; c_comp : float }
  | Given of bound list

let default_c_comm = 64.
let default_c_comp = 32.

let passes b = b.b_actual <= b.b_limit
let margin b =
  if b.b_limit > 0. then (b.b_limit -. b.b_actual) /. b.b_limit
  else neg_infinity

let paper_bounds (i : input) ~c_comm ~c_comp =
  let fi = float_of_int in
  let visits =
    match i.visit_limit with
    | None -> []
    | Some limit ->
        [
          {
            b_name = "visits";
            b_formula = Visits { limit; engine = i.engine };
            b_actual = fi i.max_visits;
            b_limit = fi limit;
          };
        ]
  in
  let comm =
    {
      b_name = "comm";
      b_formula =
        Comm
          { c = c_comm; q = i.q_entries; ft = i.ft_size; ans = i.answer_bytes };
      b_actual = fi (i.control_bytes + i.answer_bytes);
      b_limit =
        (c_comm *. fi i.q_entries *. fi i.ft_size) +. fi i.answer_bytes;
    }
  in
  let comp =
    {
      b_name = "comp";
      b_formula = Comp { c = c_comp; q = i.q_entries; t = i.t_size };
      b_actual = fi i.total_ops;
      b_limit = c_comp *. fi i.q_entries *. fi i.t_size;
    }
  in
  visits @ [ comm; comp ]

let bounds r =
  match r.checks with
  | Paper { input; c_comm; c_comp } -> paper_bounds input ~c_comm ~c_comp
  | Given bounds -> bounds

(* Engine-specific bound sets: a non-XPath engine (e.g. distributed
   graph reachability) states its bounds in its own paper's terms and
   only shares the report/rendering machinery. *)
let bound ~name ~formula ~actual ~limit =
  {
    b_name = name;
    b_formula = Text formula;
    b_actual = actual;
    b_limit = limit;
  }

let of_bounds bounds =
  { checks = Given bounds; pass = List.for_all passes bounds }

let evaluate ?(c_comm = default_c_comm) ?(c_comp = default_c_comp) (i : input) :
    report =
  let pass = List.for_all passes (paper_bounds i ~c_comm ~c_comp) in
  { checks = Paper { input = i; c_comm; c_comp }; pass }

let formula_text = function
  | Visits { limit; engine } ->
      Printf.sprintf "max logical visits per site <= %d (%s)" limit engine
  | Comm { c; q; ft; ans } ->
      Printf.sprintf
        "control+answer bytes <= %g*|Q|*|FT| + |ans| = %g*%d*%d + %d" c c q ft
        ans
  | Comp { c; q; t } ->
      Printf.sprintf "total ops <= %g*|Q|*|T| = %g*%d*%d" c c q t
  | Text s -> s

(* ---------------- cost ledger ------------------------------------- *)

(* Ratio of actual cost to predicted bound: the calibration signal.
   Buckets resolve the interesting region — how far under its paper
   bound a run lands (most land a few percent in); >= 1 means the
   bound was violated ([passes] false), which the counter also tracks. *)
let ratio_buckets =
  [| 0.001; 0.0025; 0.005; 0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 0.75; 1.; 2. |]

(* Raw actuals (visits, bytes, ops) span many decades across query and
   document sizes. *)
let actual_buckets = [| 1.; 10.; 100.; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8 |]

let ledger sink ~engine r =
  List.iter
    (fun b ->
      let labels = [ ("engine", engine); ("bound", b.b_name) ] in
      Sink.observe sink ~labels ~buckets:actual_buckets "pax_cost_actual"
        b.b_actual;
      Sink.set sink ~labels "pax_cost_predicted_limit" b.b_limit;
      if b.b_limit > 0. then
        Sink.observe sink ~labels ~buckets:ratio_buckets
          "pax_cost_predicted_ratio" (b.b_actual /. b.b_limit);
      if not (passes b) then
        Sink.count sink ~labels "pax_cost_violations_total")
    (bounds r)

(* ---------------- rendering --------------------------------------- *)

let pp_bound ppf b =
  Format.fprintf ppf "%-6s %s  actual=%.0f limit=%.0f margin=%.1f%%  %s"
    b.b_name
    (if passes b then "PASS" else "FAIL")
    b.b_actual b.b_limit (100. *. margin b) (formula_text b.b_formula)

let pp ppf r =
  Format.fprintf ppf "guarantee audit: %s@\n"
    (if r.pass then "PASS" else "FAIL");
  List.iter (fun b -> Format.fprintf ppf "  %a@\n" pp_bound b) (bounds r)

let bound_to_json b =
  Json.Obj
    [
      ("name", Json.Str b.b_name);
      ("formula", Json.Str (formula_text b.b_formula));
      ("actual", Json.Num b.b_actual);
      ("limit", Json.Num b.b_limit);
      ("pass", Json.Bool (passes b));
      ("margin", Json.Num (margin b));
    ]

let to_json r =
  Json.Obj
    [
      ("pass", Json.Bool r.pass);
      ("bounds", Json.List (List.map bound_to_json (bounds r)));
    ]
