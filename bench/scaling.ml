(* Multicore scaling experiment (PR 2): the same Exp-2 workload — the
   nested FT2 fragment tree, queries Q1-Q4 — run at pool degrees 1, 2,
   4 and 8, measuring {e real} wall-clock next to the {e modelled}
   parallel cost the simulator always reported.

   The paper's bound says per-round work is [max_site |F_site|]-shaped;
   with the in-process transport delivering each round's visits over
   the Domain pool ([Pax_dist.Transport.local] under
   [Cluster.run_round]) that is now physical:
   on an n-core box the measured wall-clock of the per-site rounds
   should approach the modelled parallel seconds as the degree grows,
   while every deterministic observable (answers, visits, traces) stays
   byte-identical to the sequential run — asserted here on every
   combination.

   Results are printed as a table and emitted as machine-readable JSON
   (bench-results/BENCH_PR2.json; see Bench_json.write) whose schema is
   checked by bench/validate_bench.ml under the @bench-smoke alias. *)

module Cluster = Pax_dist.Cluster
module Trace = Pax_dist.Trace
module Run_result = Pax_core.Run_result
module J = Bench_json

let degrees = [ 1; 2; 4; 8 ]

(* Q1/Q2 exercise PaX3's three stages, Q3/Q4 also make sense under
   PaX2's two; PaX3-NA covers all four and is the paper's headline
   configuration for Exp-2. *)
let config = Setup.pax3_na
let engine = "pax3"

type run_m = {
  m_domains : int;
  m_wall_s : float;  (* full-run wall-clock, best of repeats *)
  m_parallel_s : float;  (* modelled: per-round max over sites + coord *)
  m_total_s : float;  (* modelled: per-round sum over sites + coord *)
  m_result : Run_result.t;
  m_latency : (string * float) list;
      (* telemetry pairs from the final repeat (every engine run
         starts with [Cluster.reset], which clears the sink, so the
         pairs describe exactly one run at this degree) *)
}

let time_run cl q : run_m =
  let best = ref None in
  for _ = 1 to Setup.repeats do
    let t0 = Unix.gettimeofday () in
    let r = config.Setup.run cl q in
    let wall = Unix.gettimeofday () -. t0 in
    match !best with
    | Some (w, _) when w <= wall -> ()
    | _ -> best := Some (wall, r)
  done;
  let wall, r = Option.get !best in
  let rep = r.Run_result.report in
  {
    m_domains = Cluster.domains cl;
    m_wall_s = wall;
    m_parallel_s = rep.Cluster.parallel_seconds;
    m_total_s = rep.Cluster.total_seconds;
    m_result = r;
    m_latency =
      Pax_obs.Metrics.pairs (Cluster.sink cl).Pax_obs.Sink.metrics;
  }

(* The equivalence assertions of the acceptance criterion: identical
   answers, visit counts and logical traces at every degree. *)
let assert_equivalent ~qname (seq : run_m) (par : run_m) =
  let fail what =
    failwith
      (Printf.sprintf "scaling: %s differs between domains:1 and domains:%d on %s"
         what par.m_domains qname)
  in
  if
    par.m_result.Run_result.answer_ids <> seq.m_result.Run_result.answer_ids
  then fail "answers";
  if
    par.m_result.Run_result.report.Cluster.visits
    <> seq.m_result.Run_result.report.Cluster.visits
  then fail "visit counts";
  if
    Trace.events (par.m_result.Run_result.trace)
    <> Trace.events (seq.m_result.Run_result.trace)
  then fail "traces"

type qrow = {
  q_name : string;
  runs : run_m list;
  q_audit : Pax_obs.Audit.report;
}

let sweep_query ~size_mb qname : qrow =
  let cl = Setup.ft2 ~cumulative_mb:size_mb in
  Cluster.set_sink cl (Pax_obs.Sink.create ());
  let q = Setup.query qname in
  let runs =
    List.map
      (fun d ->
        Cluster.set_domains cl d;
        time_run cl q)
      degrees
  in
  (match runs with
  | seq :: rest -> List.iter (fun r -> assert_equivalent ~qname seq r) rest
  | [] -> ());
  runs |> List.iter (fun r -> ignore r.m_wall_s);
  let q_audit =
    Pax_core.Guarantee.audit ~engine ~ftree:(Cluster.ftree cl)
      (List.hd runs).m_result
  in
  if not q_audit.Pax_obs.Audit.pass then
    failwith
      (Printf.sprintf "scaling: guarantee audit FAILED on %s (%s)" qname
         (Format.asprintf "%a" Pax_obs.Audit.pp q_audit));
  { q_name = qname; runs; q_audit }

let speedup ~(seq : run_m) (r : run_m) =
  if r.m_wall_s > 0. then seq.m_wall_s /. r.m_wall_s else 1.

let print_row (row : qrow) =
  let seq = List.hd row.runs in
  Setup.section (Printf.sprintf "%s (%s)" row.q_name config.Setup.cname);
  Printf.printf "%-8s %12s %12s %12s %10s\n" "domains" "wall s"
    "parallel s" "total s" "speedup";
  List.iter
    (fun r ->
      Printf.printf "%-8d %12.4f %12.4f %12.4f %9.2fx\n" r.m_domains
        r.m_wall_s r.m_parallel_s r.m_total_s (speedup ~seq r))
    row.runs

(* The sink's pax_round_seconds histogram for one run, re-shaped for
   the artifact: cumulative buckets in ascending le order plus sum and
   count.  Pairs come flattened from {!Pax_obs.Metrics.pairs} as
   [name_bucket{le="..."}] entries. *)
let latency_json (pairs : (string * float) list) : J.t =
  let pre = "pax_round_seconds_bucket{le=\"" in
  let npre = String.length pre in
  let buckets =
    List.filter_map
      (fun (name, v) ->
        if String.length name > npre + 2 && String.sub name 0 npre = pre then
          let le = String.sub name npre (String.length name - npre - 2) in
          let le_num =
            if le = "+Inf" then infinity else float_of_string le
          in
          Some (le_num, le, v)
        else None)
      pairs
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  let find k = Option.value ~default:0. (List.assoc_opt k pairs) in
  J.Obj
    [
      ( "buckets",
        J.List
          (List.map
             (fun (_, le, v) ->
               J.Obj [ ("le", J.Str le); ("count", J.Num v) ])
             buckets) );
      ("sum", J.Num (find "pax_round_seconds_sum"));
      ("count", J.Num (find "pax_round_seconds_count"));
    ]

let audit_json (a : Pax_obs.Audit.report) : J.t =
  J.Obj
    [
      ("pass", J.Bool a.Pax_obs.Audit.pass);
      ( "bounds",
        J.List
          (List.map
             (fun (b : Pax_obs.Audit.bound) ->
               J.Obj
                 [
                   ("name", J.Str b.b_name);
                   ("formula", J.Str (Pax_obs.Audit.formula_text b.b_formula));
                   ("actual", J.Num b.b_actual);
                   ("limit", J.Num b.b_limit);
                   ("pass", J.Bool (Pax_obs.Audit.passes b));
                   ("margin", J.Num (Pax_obs.Audit.margin b));
                 ])
             (Pax_obs.Audit.bounds a)) );
    ]

let json ~size_mb (rows : qrow list) : J.t =
  let cores = Domain.recommended_domain_count () in
  let run_json ~seq r =
    J.Obj
      [
        ("domains", J.int r.m_domains);
        (* Honesty flag: this run asked for more domains than the
           machine has cores, so its wall-clock is contention-bound and
           must not be read as algorithmic scaling. *)
        ("oversubscribed", J.Bool (r.m_domains > cores));
        ("wall_s", J.Num r.m_wall_s);
        ("parallel_s", J.Num r.m_parallel_s);
        ("total_s", J.Num r.m_total_s);
        ("speedup", J.Num (speedup ~seq r));
        ("round_latency_s", latency_json r.m_latency);
      ]
  in
  let row_json (row : qrow) =
    let seq = List.hd row.runs in
    J.Obj
      [
        ("query", J.Str row.q_name);
        ("config", J.Str config.Setup.cname);
        ( "answers",
          J.int (List.length (List.hd row.runs).m_result.Run_result.answers) );
        ("audit", audit_json row.q_audit);
        ("runs", J.List (List.map (run_json ~seq) row.runs));
      ]
  in
  J.Obj
    [
      ("bench", J.Str "scaling");
      ("pr", J.int 2);
      ("workload", J.Str "exp2-ft2");
      ("quick", J.Bool Setup.quick);
      ("cores", J.int (Domain.recommended_domain_count ()));
      ("size_mb", J.int size_mb);
      ("repeats", J.int Setup.repeats);
      ("domains_tested", J.List (List.map J.int degrees));
      ("results", J.List (List.map row_json rows));
    ]

let run () =
  let size_mb = if Setup.quick then 100 else 280 in
  Setup.header
    (Printf.sprintf
       "Scaling — real multicore wall-clock vs modelled parallel cost \
        (FT2, %d paper-MB, %d core(s))"
       size_mb
       (Domain.recommended_domain_count ()));
  let rows = List.map (sweep_query ~size_mb) [ "Q1"; "Q2"; "Q3"; "Q4" ] in
  List.iter print_row rows;
  Printf.printf "\nwrote %s\n" (J.write "BENCH_PR2.json" (json ~size_mb rows))
