(* Schema check for the benchmark JSON artifacts (BENCH_*.json):

     validate_bench.exe FILE...

   Dispatches on the top-level "bench" field: "scaling" (the multicore
   scaling runs of BENCH_PR2-style files), "throughput" (the serving
   benchmark of bench/throughput.ml), "flat" (the pointer-vs-flat
   stage kernels of the retired bench/flat_main.ml, kept for the
   committed BENCH_PR7.json), "skew" (the hot-shard
   rebalance runs of bench/skew.ml), "overload" (the deadline/QoS
   shedding storms of bench/overload.ml) or "pairs" (the alternating
   base/head runs of tools/pairs.py).  Exits 0 when every file is
   well-formed and carries the fields later PRs' perf tracking relies
   on; prints what is wrong and exits 1 otherwise.  Used by the
   @bench-smoke and @check dune aliases so a perf-harness regression
   shows up as a build failure, not as a silently missing or malformed
   artifact. *)

module J = Bench_json

let errors = ref []
let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt

let need_str obj ctx k =
  match Option.bind (J.member k obj) J.as_str with
  | Some s -> Some s
  | None ->
      err "%s: missing or non-string %S" ctx k;
      None

let need_num obj ctx k =
  match Option.bind (J.member k obj) J.as_num with
  | Some f -> Some f
  | None ->
      err "%s: missing or non-number %S" ctx k;
      None

let need_list obj ctx k =
  match Option.bind (J.member k obj) J.as_list with
  | Some l -> Some l
  | None ->
      err "%s: missing or non-array %S" ctx k;
      None

(* Optional (absent in pre-PR4 artifacts): the per-run round-latency
   histogram exported from the telemetry sink.  When present it must
   carry ascending-le cumulative buckets and non-negative sum/count. *)
let check_latency ctx h =
  let ctx = ctx ^ "/round_latency_s" in
  (match need_list h ctx "buckets" with
  | Some buckets ->
      let last_cum = ref 0. in
      List.iteri
        (fun i b ->
          let bctx = Printf.sprintf "%s/buckets[%d]" ctx i in
          ignore (need_str b bctx "le");
          match need_num b bctx "count" with
          | Some c when c < 0. -> err "%s: negative count" bctx
          | Some c when c < !last_cum ->
              err "%s: cumulative counts must be non-decreasing" bctx
          | Some c -> last_cum := c
          | None -> ())
        buckets
  | None -> ());
  List.iter
    (fun k ->
      match need_num h ctx k with
      | Some v when v < 0. -> err "%s: negative %S" ctx k
      | _ -> ())
    [ "sum"; "count" ]

(* Optional (absent in pre-PR4 artifacts): the guarantee auditor's
   verdict for the query.  Committed artifacts must only ever carry
   passing audits — a failed bound is a regression, not data. *)
let check_audit ctx a =
  let ctx = ctx ^ "/audit" in
  (match Option.bind (J.member "pass" a) J.as_bool with
  | Some true -> ()
  | Some false -> err "%s: audit failed (pass=false)" ctx
  | None -> err "%s: missing or non-bool \"pass\"" ctx);
  match need_list a ctx "bounds" with
  | Some (_ :: _ as bounds) ->
      List.iteri
        (fun i b ->
          let bctx = Printf.sprintf "%s/bounds[%d]" ctx i in
          ignore (need_str b bctx "name");
          ignore (need_str b bctx "formula");
          ignore (need_num b bctx "actual");
          ignore (need_num b bctx "limit");
          ignore (need_num b bctx "margin");
          match Option.bind (J.member "pass" b) J.as_bool with
          | Some _ -> ()
          | None -> err "%s: missing or non-bool \"pass\"" bctx)
        bounds
  | Some [] -> err "%s: empty \"bounds\"" ctx
  | None -> ()

let check_run ctx r =
  match Option.bind (J.member "domains" r) J.as_num with
  | None -> err "%s: run without integer \"domains\"" ctx
  | Some d ->
      let ctx = Printf.sprintf "%s/domains:%.0f" ctx d in
      if d < 1. || not (Float.is_integer d) then
        err "%s: bad domain count" ctx;
      (* Optional (absent in pre-PR3 artifacts), but must be a bool
         when present. *)
      (match J.member "oversubscribed" r with
      | Some v when J.as_bool v = None ->
          err "%s: non-bool \"oversubscribed\"" ctx
      | Some _ | None -> ());
      (match J.member "round_latency_s" r with
      | Some h -> check_latency ctx h
      | None -> ());
      List.iter
        (fun k ->
          match need_num r ctx k with
          | Some v when v < 0. -> err "%s: negative %S" ctx k
          | _ -> ())
        [ "wall_s"; "parallel_s"; "total_s"; "speedup" ]

let check_result i r =
  let ctx =
    match Option.bind (J.member "query" r) J.as_str with
    | Some q -> Printf.sprintf "results[%d]=%s" i q
    | None ->
        err "results[%d]: missing or non-string \"query\"" i;
        Printf.sprintf "results[%d]" i
  in
  ignore (need_str r ctx "config");
  ignore (need_num r ctx "answers");
  (match J.member "audit" r with
  | Some a -> check_audit ctx a
  | None -> ());
  match need_list r ctx "runs" with
  | Some (_ :: _ as runs) ->
      List.iter (check_run ctx) runs;
      (* The first run is the sequential baseline. *)
      (match runs with
      | first :: _ -> (
          match Option.bind (J.member "domains" first) J.as_num with
          | Some 1. -> ()
          | _ -> err "%s: first run must be the domains:1 baseline" ctx)
      | [] -> ())
  | Some [] -> err "%s: empty \"runs\"" ctx
  | None -> ()

let check_scaling (v : J.t) =
  (match J.member "pr" v with
  | Some _ -> ()
  | None -> err "top: missing \"pr\"");
  (match Option.bind (J.member "quick" v) J.as_bool with
  | Some _ -> ()
  | None -> err "top: missing or non-bool \"quick\"");
  List.iter
    (fun k ->
      match Option.bind (J.member k v) J.as_num with
      | Some f when f >= 1. -> ()
      | _ -> err "top: missing or bad %S" k)
    [ "cores"; "size_mb"; "repeats" ];
  (match Option.bind (J.member "domains_tested" v) J.as_list with
  | Some (_ :: _) -> ()
  | _ -> err "top: missing or empty \"domains_tested\"");
  match Option.bind (J.member "results" v) J.as_list with
  | Some (_ :: _ as results) -> List.iteri check_result results
  | Some [] -> err "top: empty \"results\""
  | None -> err "top: missing \"results\""

(* ---------------- the serving throughput schema -------------------- *)

(* One (concurrency, cache) combo of bench/throughput.ml. *)
let check_combo i r =
  let ctx = Printf.sprintf "results[%d]" i in
  let conc =
    match need_num r ctx "concurrency" with
    | Some c when c >= 1. && Float.is_integer c -> Some c
    | Some _ ->
        err "%s: bad \"concurrency\"" ctx;
        None
    | None -> None
  in
  let cached = Option.bind (J.member "cache" r) J.as_bool in
  if cached = None then err "%s: missing or non-bool \"cache\"" ctx;
  List.iter
    (fun k ->
      match need_num r ctx k with
      | Some v when v <= 0. -> err "%s: non-positive %S" ctx k
      | _ -> ())
    [ "queries"; "wall_s"; "qps" ];
  (match (need_num r ctx "p50_ms", need_num r ctx "p99_ms") with
  | Some p50, Some p99 ->
      if p50 < 0. || p99 < 0. then err "%s: negative latency" ctx;
      if p50 > p99 then err "%s: p50 > p99" ctx
  | _ -> ());
  (match Option.bind (J.member "audit_pass" r) J.as_bool with
  | Some true -> ()
  | Some false -> err "%s: audit failed (audit_pass=false)" ctx
  | None -> err "%s: missing or non-bool \"audit_pass\"" ctx);
  match (conc, cached, Option.bind (J.member "qps" r) J.as_num) with
  | Some c, Some k, Some q -> Some (c, k, q)
  | _ -> None

let check_throughput (v : J.t) =
  (match J.member "pr" v with
  | Some _ -> ()
  | None -> err "top: missing \"pr\"");
  let quick =
    match Option.bind (J.member "quick" v) J.as_bool with
    | Some q -> q
    | None ->
        err "top: missing or non-bool \"quick\"";
        false
  in
  List.iter
    (fun k ->
      match Option.bind (J.member k v) J.as_num with
      | Some f when f >= 1. -> ()
      | _ -> err "top: missing or bad %S" k)
    [ "cores"; "size_mb"; "repeats"; "total_queries" ];
  (match Option.bind (J.member "site_delay_ms" v) J.as_num with
  | Some d when d >= 0. -> ()
  | _ -> err "top: missing or bad \"site_delay_ms\"");
  (match Option.bind (J.member "queries" v) J.as_list with
  | Some (_ :: _) -> ()
  | _ -> err "top: missing or empty \"queries\"");
  match Option.bind (J.member "results" v) J.as_list with
  | Some (_ :: _ as results) ->
      let combos =
        List.mapi (fun i r -> check_combo i r) results
        |> List.filter_map Fun.id
      in
      (* The serving claim itself (quick smoke runs are too short to
         hold it to a perf bound): with the cross-query cache off, the
         highest tested concurrency must beat the sequential closed
         loop — otherwise concurrent serving isn't buying anything and
         the artifact documents a regression. *)
      let off = List.filter (fun (_, cached, _) -> not cached) combos in
      let qps_at c =
        List.find_map
          (fun (c', _, q) -> if c' = c then Some q else None)
          off
      in
      if not quick then (
        let cmax =
          List.fold_left (fun acc (c, _, _) -> Float.max acc c) 1. off
        in
        match (qps_at 1., qps_at cmax) with
        | Some q1, Some qn ->
            if cmax > 1. && qn <= q1 then
              err
                "top: concurrency %.0f qps (%.1f) must exceed the \
                 concurrency 1 baseline (%.1f) with cache off"
                cmax qn q1
        | _ -> err "top: cache-off results must include concurrency 1")
  | Some [] -> err "top: empty \"results\""
  | None -> err "top: missing \"results\""

(* ---------------- the pointer-vs-flat kernel schema ---------------- *)

(* One (query, kernel) row of the retired bench/flat_main.ml. *)
let check_flat_row i r =
  let ctx = Printf.sprintf "results[%d]" i in
  ignore (need_str r ctx "query");
  (match need_str r ctx "kernel" with
  | Some ("qual" | "sel" | "combined") | None -> ()
  | Some k -> err "%s: unknown kernel %S" ctx k);
  List.iter
    (fun k ->
      match need_num r ctx k with
      | Some v when v <= 0. -> err "%s: non-positive %S" ctx k
      | _ -> ())
    [ "pointer_s"; "flat_s"; "speedup" ];
  (* Bit-identity is not a timing claim: the cross-check must hold in
     quick runs too. *)
  (match Option.bind (J.member "agree" r) J.as_bool with
  | Some true -> ()
  | Some false -> err "%s: flat and pointer outcomes disagree" ctx
  | None -> err "%s: missing or non-bool \"agree\"" ctx);
  match
    (need_str r ctx "kernel", Option.bind (J.member "speedup" r) J.as_num)
  with
  | Some k, Some s -> Some (k, s)
  | _ -> None

let check_flat (v : J.t) =
  (match J.member "pr" v with
  | Some _ -> ()
  | None -> err "top: missing \"pr\"");
  let quick =
    match Option.bind (J.member "quick" v) J.as_bool with
    | Some q -> q
    | None ->
        err "top: missing or non-bool \"quick\"";
        false
  in
  List.iter
    (fun k ->
      match Option.bind (J.member k v) J.as_num with
      | Some f when f >= 1. -> ()
      | _ -> err "top: missing or bad %S" k)
    [ "cores"; "nodes"; "repeats" ];
  (match Option.bind (J.member "flat_build_s" v) J.as_num with
  | Some b when b >= 0. -> ()
  | _ -> err "top: missing or bad \"flat_build_s\"");
  (match Option.bind (J.member "queries" v) J.as_list with
  | Some (_ :: _) -> ()
  | _ -> err "top: missing or empty \"queries\"");
  match Option.bind (J.member "results" v) J.as_list with
  | Some (_ :: _ as results) ->
      let rows =
        List.mapi (fun i r -> check_flat_row i r) results
        |> List.filter_map Fun.id
      in
      (* The hot-path claim itself (quick smoke runs are too short to
         hold to a perf bound): no stage loop may lose to the pointer
         kernels, and the columnar win must show on the qualifier pass
         — otherwise the flat representation isn't buying anything and
         the artifact documents a regression. *)
      if not quick then begin
        List.iter
          (fun (k, s) ->
            if s < 1. then
              err "top: kernel %S slower flat than pointer (x%.2f)" k s)
          rows;
        match List.filter (fun (k, _) -> k = "qual") rows with
        | [] -> err "top: no \"qual\" kernel rows"
        | quals ->
            let best =
              List.fold_left (fun acc (_, s) -> Float.max acc s) 0. quals
            in
            if best < 2. then
              err "top: best qual speedup x%.2f < x2 — flat hot path lost"
                best
      end
  | Some [] -> err "top: empty \"results\""
  | None -> err "top: missing \"results\""

(* ---------------- the hot-shard rebalance schema ------------------- *)

(* One closed-loop phase ("pre" / "post") of bench/skew.ml.  Audits are
   not a timing claim: they must pass in quick runs too. *)
let check_skew_phase v ctx =
  match Option.bind (J.member ctx v) (fun p -> Some p) with
  | None ->
      err "top: missing %S" ctx;
      None
  | Some p ->
      List.iter
        (fun k ->
          match need_num p ctx k with
          | Some x when x <= 0. -> err "%s: non-positive %S" ctx k
          | _ -> ())
        [ "queries"; "wall_s"; "qps" ];
      (match (need_num p ctx "p50_ms", need_num p ctx "p99_ms") with
      | Some p50, Some p99 ->
          if p50 < 0. || p99 < 0. then err "%s: negative latency" ctx;
          if p50 > p99 then err "%s: p50 > p99" ctx
      | _ -> ());
      (match Option.bind (J.member "audit_pass" p) J.as_bool with
      | Some true -> ()
      | Some false -> err "%s: audit failed (audit_pass=false)" ctx
      | None -> err "%s: missing or non-bool \"audit_pass\"" ctx);
      Option.bind (J.member "p99_ms" p) J.as_num

let check_skew (v : J.t) =
  (match J.member "pr" v with
  | Some _ -> ()
  | None -> err "top: missing \"pr\"");
  let quick =
    match Option.bind (J.member "quick" v) J.as_bool with
    | Some q -> q
    | None ->
        err "top: missing or non-bool \"quick\"";
        false
  in
  List.iter
    (fun k ->
      match Option.bind (J.member k v) J.as_num with
      | Some f when f >= 1. -> ()
      | _ -> err "top: missing or bad %S" k)
    [
      "cores"; "size_mb"; "repeats"; "total_queries"; "concurrency";
      "n_frags"; "n_sites";
    ];
  (match Option.bind (J.member "site_delay_ms" v) J.as_num with
  | Some d when d >= 0. -> ()
  | _ -> err "top: missing or bad \"site_delay_ms\"");
  (match Option.bind (J.member "queries" v) J.as_list with
  | Some (_ :: _) -> ()
  | _ -> err "top: missing or empty \"queries\"");
  let moves =
    match Option.bind (J.member "moves" v) J.as_num with
    | Some m when m >= 0. && Float.is_integer m -> m
    | _ ->
        err "top: missing or bad \"moves\"";
        0.
  in
  (match Option.bind (J.member "move_list" v) J.as_list with
  | Some ms ->
      if List.length ms <> int_of_float moves then
        err "top: \"move_list\" length disagrees with \"moves\"";
      List.iteri
        (fun i m ->
          let ctx = Printf.sprintf "move_list[%d]" i in
          List.iter (fun k -> ignore (need_num m ctx k))
            [ "fid"; "from"; "to"; "epoch" ])
        ms
  | None -> err "top: missing \"move_list\"");
  let loads =
    match
      ( Option.bind (J.member "max_site_load_pre" v) J.as_num,
        Option.bind (J.member "max_site_load_post" v) J.as_num )
    with
    | Some a, Some b when a >= 0. && b >= 0. -> Some (a, b)
    | _ ->
        err "top: missing or bad \"max_site_load_pre\"/\"max_site_load_post\"";
        None
  in
  let pre = check_skew_phase v "pre" in
  let post = check_skew_phase v "post" in
  (* The rebalancing claim itself (quick smoke runs are too short to
     hold the latency to a perf bound): the committed artifact must
     show the hot shard actually dissolving — at least one executed
     move, a strictly lower max per-site visit load, and no p99
     regression. *)
  if not quick then begin
    if moves < 1. then err "top: rebalance executed no moves";
    (match loads with
    | Some (a, b) when b >= a ->
        err "top: max site load %.0f post >= %.0f pre — hot shard survived"
          b a
    | _ -> ());
    match (pre, post) with
    | Some p_pre, Some p_post ->
        if p_post > p_pre then
          err "top: post-rebalance p99 %.2f ms > pre %.2f ms" p_post p_pre
    | _ -> ()
  end

(* ---------------- the overload / shedding schema ------------------- *)

let check_overload (v : J.t) =
  (match J.member "pr" v with
  | Some _ -> ()
  | None -> err "top: missing \"pr\"");
  let quick =
    match Option.bind (J.member "quick" v) J.as_bool with
    | Some q -> q
    | None ->
        err "top: missing or non-bool \"quick\"";
        false
  in
  List.iter
    (fun k ->
      match Option.bind (J.member k v) J.as_num with
      | Some f when f >= 1. -> ()
      | _ -> err "top: missing or bad %S" k)
    [ "cores"; "size_mb"; "repeats"; "concurrency"; "max_inflight";
      "max_queue" ];
  (match Option.bind (J.member "site_delay_ms" v) J.as_num with
  | Some d when d >= 0. -> ()
  | _ -> err "top: missing or bad \"site_delay_ms\"");
  (match Option.bind (J.member "queries" v) J.as_list with
  | Some (_ :: _) -> ()
  | _ -> err "top: missing or empty \"queries\"");
  let counter k =
    match Option.bind (J.member k v) J.as_num with
    | Some c when c >= 0. && Float.is_integer c -> Some c
    | _ ->
        err "top: missing or bad %S" k;
        None
  in
  let offered = counter "offered"
  and admitted = counter "admitted"
  and shed = counter "shed" in
  (* The books must balance: every offered query was either admitted
     (and completed) or shed with a typed rejection — never dropped on
     the floor. *)
  (match (offered, admitted, shed) with
  | Some o, Some a, Some s ->
      if a +. s <> o then
        err "top: admitted %.0f + shed %.0f <> offered %.0f" a s o;
      if a < 1. then err "top: no queries admitted"
  | _ -> ());
  (match (counter "shed_overloaded", counter "shed_deadline", shed) with
  | Some so, Some sd, Some s when so +. sd <> s ->
      err "top: shed_overloaded %.0f + shed_deadline %.0f <> shed %.0f" so sd
        s
  | _ -> ());
  List.iter
    (fun k ->
      match Option.bind (J.member k v) J.as_num with
      | Some f when f > 0. -> ()
      | _ -> err "top: missing or non-positive %S" k)
    [ "sat_qps"; "overload_goodput_qps"; "goodput_ratio" ];
  (match
     ( Option.bind (J.member "p50_admitted_ms" v) J.as_num,
       Option.bind (J.member "p99_admitted_ms" v) J.as_num )
   with
  | Some p50, Some p99 ->
      if p50 < 0. || p99 < 0. then err "top: negative latency";
      if p50 > p99 then err "top: p50_admitted_ms > p99_admitted_ms"
  | _ -> err "top: missing \"p50_admitted_ms\"/\"p99_admitted_ms\"");
  (* Audits and the two-coordinator identity are not timing claims:
     they must hold in quick runs too. *)
  (match Option.bind (J.member "audit_pass" v) J.as_bool with
  | Some true -> ()
  | Some false -> err "top: audit failed (audit_pass=false)"
  | None -> err "top: missing or non-bool \"audit_pass\"");
  List.iter
    (fun k ->
      match Option.bind (J.member k v) J.as_bool with
      | Some true -> ()
      | Some false -> err "top: %S is false" k
      | None -> err "top: missing or non-bool %S" k)
    [ "two_coord_identical"; "restart_recovered" ];
  (* The shedding claim itself (quick smoke storms are too small to
     hold to perf bounds): a real overload run must offer >= 64-way
     concurrency, shed something — with the deadline path exercised,
     not just queue overflow — and keep admitted goodput within 10% of
     the saturation ceiling.  Collapse under load is a regression the
     artifact must not hide. *)
  if not quick then begin
    (match Option.bind (J.member "concurrency" v) J.as_num with
    | Some c when c < 64. ->
        err "top: full runs need concurrency >= 64 (got %.0f)" c
    | _ -> ());
    (match shed with
    | Some s when s < 1. -> err "top: overload run shed nothing"
    | _ -> ());
    (match counter "shed_deadline" with
    | Some sd when sd < 1. -> err "top: deadline shedding never fired"
    | _ -> ());
    match Option.bind (J.member "goodput_ratio" v) J.as_num with
    | Some r when r < 0.9 ->
        err "top: goodput ratio %.2f < 0.9 — the tier collapsed instead \
             of shedding" r
    | _ -> ()
  end

(* The alternating-pairs comparison of tools/pairs.py: per workload and
   metric, both sides' runs with their median and quartiles, the head's
   wins and a verdict.  The summaries must match the runs they
   summarize, every run must have been correct, and a committed claim
   carries the per-operation costs of the process tree beside the
   end-to-end metrics. *)
let check_pairs v =
  List.iter (fun k -> ignore (need_str v "top" k)) [ "label" ];
  List.iter
    (fun side ->
      match J.member side v with
      | Some o ->
          ignore (need_str o ("top/" ^ side) "rev");
          ignore (need_str o ("top/" ^ side) "commit")
      | None -> err "top: missing %S" side)
    [ "base"; "head" ];
  ignore (need_num v "top" "seed");
  (match need_num v "top" "seconds" with
  | Some s when s <= 0. -> err "top: non-positive \"seconds\""
  | _ -> ());
  let pairs =
    match need_num v "top" "pairs" with
    | Some n when n >= 1. && Float.is_integer n -> int_of_float n
    | Some _ ->
        err "top: \"pairs\" must be a positive integer";
        0
    | None -> 0
  in
  (match J.member "host" v with
  | Some h -> (
      ignore (need_str h "top/host" "cpu_model");
      match need_num h "top/host" "cpus" with
      | Some c when c < 1. -> err "top/host: bad \"cpus\""
      | _ -> ())
  | None -> err "top: missing \"host\"");
  let median l =
    let a = Array.of_list (List.sort compare l) in
    let n = Array.length a in
    if n = 0 then nan
    else if n mod 2 = 1 then a.(n / 2)
    else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
  in
  let check_side ctx o =
    let num k = need_num o ctx k in
    (match (num "q1", num "median", num "q3", num "iqr") with
    | Some q1, Some m, Some q3, Some iqr ->
        if not (q1 <= m && m <= q3) then err "%s: quartiles out of order" ctx;
        if Float.abs (q3 -. q1 -. iqr) > 1e-9 *. Float.max 1. (Float.abs iqr)
        then err "%s: iqr is not q3 - q1" ctx;
        (match need_list o ctx "runs" with
        | Some runs ->
            let xs = List.filter_map J.as_num runs in
            if List.length xs <> List.length runs then
              err "%s: non-number run" ctx;
            if List.length xs <> pairs then
              err "%s: %d runs for %d pairs" ctx (List.length xs) pairs;
            let m' = median xs in
            if Float.abs (m -. m') > 1e-9 *. Float.max 1. (Float.abs m) then
              err "%s: median %g is not the runs' median %g" ctx m m'
        | None -> ())
    | _ -> ())
  in
  match need_list v "top" "workloads" with
  | Some [] -> err "top: no workloads"
  | Some wls ->
      List.iteri
        (fun i wl ->
          let ctx =
            Printf.sprintf "workloads[%d] (%s)" i
              (Option.value ~default:"?"
                 (Option.bind (J.member "name" wl) J.as_str))
          in
          ignore (need_str wl ctx "name");
          (match Option.bind (J.member "correct" wl) J.as_bool with
          | Some true -> ()
          | Some false -> err "%s: a run was not correct" ctx
          | None -> err "%s: missing or non-bool \"correct\"" ctx);
          (match Option.bind (J.member "stall_free" wl) J.as_bool with
          | Some _ -> ()
          | None -> err "%s: missing or non-bool \"stall_free\"" ctx);
          match need_list wl ctx "metrics" with
          | Some ms ->
              let names =
                List.filter_map
                  (fun m -> Option.bind (J.member "name" m) J.as_str)
                  ms
              in
              List.iter
                (fun k ->
                  if not (List.mem k names) then err "%s: no %S metric" ctx k)
                [ "qps"; "p50_ms"; "p95_ms"; "setup_s"; "rss_mb";
                  "user_ms_per_op"; "sys_ms_per_op"; "vcsw_per_op" ];
              List.iter
                (fun m ->
                  let mctx =
                    Printf.sprintf "%s/%s" ctx
                      (Option.value ~default:"?"
                         (Option.bind (J.member "name" m) J.as_str))
                  in
                  ignore (need_str m mctx "unit");
                  (match Option.bind (J.member "better" m) J.as_str with
                  | Some ("higher" | "lower") -> ()
                  | _ -> err "%s: \"better\" must be higher or lower" mctx);
                  (match Option.bind (J.member "verdict" m) J.as_str with
                  | Some ("better" | "worse" | "unchanged" | "unresolved") -> ()
                  | _ -> err "%s: missing or unknown \"verdict\"" mctx);
                  (match (need_num m mctx "wins", need_num m mctx "losses") with
                  | Some w, Some l ->
                      if
                        w < 0. || l < 0.
                        || (not (Float.is_integer w))
                        || (not (Float.is_integer l))
                        || w +. l > float_of_int pairs
                      then err "%s: bad win/loss counts" mctx
                  | _ -> ());
                  List.iter
                    (fun side ->
                      match J.member side m with
                      | Some o -> check_side (mctx ^ "/" ^ side) o
                      | None -> err "%s: missing %S" mctx side)
                    [ "base"; "head" ])
                ms
          | None -> ())
        wls
  | None -> ()

let check (v : J.t) =
  match Option.bind (J.member "bench" v) J.as_str with
  | Some "scaling" ->
      check_scaling v;
      "scaling"
  | Some "throughput" ->
      check_throughput v;
      "throughput"
  | Some "flat" ->
      check_flat v;
      "flat"
  | Some "skew" ->
      check_skew v;
      "skew"
  | Some "overload" ->
      check_overload v;
      "overload"
  | Some "pairs" ->
      check_pairs v;
      "pairs"
  | Some other ->
      err "top: unknown bench kind %S" other;
      "?"
  | None ->
      err "top: missing \"bench\"";
      "?"

let check_file path =
  errors := [];
  let kind =
    match J.parse_file path with
    | v -> check v
    | exception J.Parse_error m ->
        err "not valid JSON: %s" m;
        "?"
    | exception Sys_error m ->
        err "%s" m;
        "?"
  in
  match List.rev !errors with
  | [] ->
      Printf.printf "%s: %s bench schema OK\n" path kind;
      true
  | es ->
      List.iter (fun e -> Printf.eprintf "%s: %s\n" path e) es;
      false

let () =
  match Array.to_list Sys.argv with
  | _ :: (_ :: _ as paths) ->
      (* Check every file even after a failure, then fail once. *)
      if not (List.fold_left (fun ok p -> check_file p && ok) true paths) then
        exit 1
  | _ ->
      prerr_endline "usage: validate_bench FILE...";
      exit 2
