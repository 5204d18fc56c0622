(* The telemetry subsystem (pax_obs), end to end:

   - Clock: the monotonized wall source and the injectable fake;
   - Metrics: counters/gauges/histograms and the Prometheus flattening;
   - Span + Chrome export: trace-event JSON schema-checked with the
     in-tree parser — spans must cover every round, site visit and
     (over sockets) wire frame;
   - Sink: the no-op default leaves every deterministic observable
     bit-identical to an instrumented run (qcheck differential over
     random scenarios in-process, fixed workloads over real sockets);
   - Audit: the paper's three bounds pass with margin on the example
     workloads, and a deliberately broken 4-visit run reports failure;
   - run ids: distinct across rapid successive runs (the clock-hash
     collision this replaces);
   - stats agreement: the client's visit-frame counters equal the sum
     of the site servers' for the same run. *)

module Tree = Pax_xml.Tree
module Query = Pax_xpath.Query
module Fragment = Pax_frag.Fragment
module Cluster = Pax_dist.Cluster
module Fault = Pax_dist.Fault
module Trace = Pax_dist.Trace
module Transport = Pax_dist.Transport
module Run_result = Pax_core.Run_result
module Guarantee = Pax_core.Guarantee
module Sockio = Pax_net.Sockio
module Server = Pax_net.Server
module Client = Pax_net.Client
module Clock = Pax_obs.Clock
module Metrics = Pax_obs.Metrics
module Span = Pax_obs.Span
module Chrome = Pax_obs.Chrome
module Sink = Pax_obs.Sink
module Json = Pax_obs.Json
module Audit = Pax_obs.Audit
module H = Test_helpers
module G = QCheck.Gen

let count n =
  match Sys.getenv_opt "PAX_QCHECK_COUNT" with
  | Some s -> ( try int_of_string s with _ -> n)
  | None -> n

exception Timed_out

let with_timeout secs f =
  let old =
    Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Timed_out))
  in
  ignore (Unix.alarm secs);
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.alarm 0);
      Sys.set_signal Sys.sigalrm old)
    f

(* ------------------------------------------------------------------ *)
(* Clock                                                              *)
(* ------------------------------------------------------------------ *)

let test_clock_wall_monotonic () =
  let prev = ref (Clock.now ()) in
  for _ = 1 to 1000 do
    let t = Clock.now () in
    if t < !prev then Alcotest.failf "clock went backwards: %.9f < %.9f" t !prev;
    prev := t
  done

let test_clock_fake () =
  let f = Clock.Fake.create ~at:5.0 () in
  Clock.with_source (Clock.Fake.source f) (fun () ->
      Alcotest.(check (float 0.)) "starts at 5" 5.0 (Clock.now ());
      Clock.Fake.advance f 2.5;
      Alcotest.(check (float 0.)) "advances" 7.5 (Clock.now ());
      (* Stepping the source backwards must not step [now] backwards:
         the high-water mark clamps. *)
      Clock.Fake.set f 1.0;
      Alcotest.(check (float 0.)) "clamped at the high-water mark" 7.5
        (Clock.now ());
      Clock.Fake.set f 9.0;
      Alcotest.(check (float 0.)) "resumes once ahead" 9.0 (Clock.now ()));
  (* The fake epoch must not clamp the restored wall source (and vice
     versa): a fresh epoch starts per installed source. *)
  let w = Clock.now () in
  Alcotest.(check bool) "wall restored" true (w > 1e9)

let test_clock_fresh_epoch () =
  (* A fake running far behind the wall still reads its own time. *)
  let f = Clock.Fake.create ~at:0.0 () in
  Clock.with_source (Clock.Fake.source f) (fun () ->
      Alcotest.(check (float 0.)) "not clamped up to wall readings" 0.0
        (Clock.now ()))

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)
(* ------------------------------------------------------------------ *)

let test_metrics_counters () =
  let m = Metrics.create () in
  Metrics.incr m "pax_rounds_total";
  Metrics.incr m "pax_rounds_total";
  Metrics.incr m ~by:3. "pax_rounds_total";
  Alcotest.(check (option (float 0.))) "counter sums" (Some 5.)
    (Metrics.value m "pax_rounds_total");
  Metrics.incr m ~labels:[ ("site", "1") ] "pax_visits_total";
  Metrics.incr m ~labels:[ ("site", "0") ] "pax_visits_total";
  Alcotest.(check (option (float 0.))) "labelled series are separate"
    (Some 1.)
    (Metrics.value m ~labels:[ ("site", "0") ] "pax_visits_total");
  Alcotest.(check (option (float 0.))) "absent series" None
    (Metrics.value m ~labels:[ ("site", "9") ] "pax_visits_total");
  Metrics.set m "pax_gauge" 42.;
  Metrics.set m "pax_gauge" 17.;
  Alcotest.(check (option (float 0.))) "gauge keeps last" (Some 17.)
    (Metrics.value m "pax_gauge");
  (* pairs are sorted and stable. *)
  let names = List.map fst (Metrics.pairs m) in
  Alcotest.(check (list string)) "sorted flattening"
    (List.sort compare names) names;
  let dump = Metrics.dump m in
  Alcotest.(check bool) "dump carries the series" true
    (Astring.String.is_infix ~affix:"pax_visits_total{site=\"0\"} 1" dump)

let test_metrics_errors () =
  let m = Metrics.create () in
  (match Metrics.incr m ~by:(-1.) "c" with
  | () -> Alcotest.fail "negative counter increment must be rejected"
  | exception Invalid_argument _ -> ());
  Metrics.incr m "c";
  match Metrics.observe m "c" 1. with
  | () -> Alcotest.fail "kind mismatch must be rejected"
  | exception Invalid_argument _ -> ()

let test_metrics_histogram () =
  let m = Metrics.create () in
  let buckets = [| 0.1; 1.; 10. |] in
  List.iter
    (fun v -> Metrics.observe m ~buckets "lat" v)
    [ 0.05; 0.5; 0.5; 5.; 50. ];
  let pairs = Metrics.pairs m in
  let get k =
    match List.assoc_opt k pairs with
    | Some v -> v
    | None -> Alcotest.failf "missing series %s" k
  in
  Alcotest.(check (float 0.)) "le=0.1 cumulative" 1. (get "lat_bucket{le=\"0.1\"}");
  Alcotest.(check (float 0.)) "le=1 cumulative" 3. (get "lat_bucket{le=\"1\"}");
  Alcotest.(check (float 0.)) "le=10 cumulative" 4. (get "lat_bucket{le=\"10\"}");
  Alcotest.(check (float 0.)) "le=+Inf = count" 5. (get "lat_bucket{le=\"+Inf\"}");
  Alcotest.(check (float 1e-9)) "sum" 56.05 (get "lat_sum");
  Alcotest.(check (float 0.)) "count" 5. (get "lat_count");
  (* of_pairs (the Stats wire payload shape) canonicalizes: sorted by
     series name, idempotent, and loses no series.  ([pairs] itself
     keeps histogram buckets in ascending-le order, which is what the
     text exposition wants; the two orders differ lexicographically.) *)
  let canon = Metrics.of_pairs pairs in
  Alcotest.(check (list string)) "of_pairs sorts by series name"
    (List.sort compare (List.map fst pairs))
    (List.map fst canon);
  Alcotest.(check bool) "of_pairs is idempotent" true
    (Metrics.of_pairs canon = canon);
  Alcotest.(check bool) "of_pairs keeps every series" true
    (List.sort compare canon = List.sort compare pairs)

(* ------------------------------------------------------------------ *)
(* Spans and the Chrome trace-event export                            *)
(* ------------------------------------------------------------------ *)

let json_str k j = Option.bind (Json.member k j) Json.as_str
let json_num k j = Option.bind (Json.member k j) Json.as_num

(* Schema-check a Chrome export: the object form with thread-name
   metadata, and one well-formed "X" event per span. *)
let check_chrome_schema ~spans serialized =
  let j =
    match Json.parse serialized with
    | Ok j -> j
    | Error e -> Alcotest.failf "trace JSON does not parse: %s" e
  in
  let events =
    match Option.bind (Json.member "traceEvents" j) Json.as_list with
    | Some l -> l
    | None -> Alcotest.fail "missing traceEvents array"
  in
  let metas, xs =
    List.partition (fun e -> json_str "ph" e = Some "M") events
  in
  Alcotest.(check int) "one X event per span" (List.length spans)
    (List.length xs);
  let named_tids =
    List.map
      (fun m ->
        Alcotest.(check (option string))
          "metadata names a thread" (Some "thread_name") (json_str "name" m);
        (match Option.bind (Json.member "args" m) (json_str "name") with
        | Some _ -> ()
        | None -> Alcotest.fail "thread_name metadata without args.name");
        match json_num "tid" m with
        | Some tid -> tid
        | None -> Alcotest.fail "metadata without tid")
      metas
  in
  List.iter
    (fun x ->
      (match json_str "ph" x with
      | Some "X" -> ()
      | _ -> Alcotest.fail "event is neither M nor X");
      (match json_str "name" x with
      | Some "" | None -> Alcotest.fail "X event without a name"
      | Some _ -> ());
      (match json_str "cat" x with
      | Some "" | None -> Alcotest.fail "X event without a category"
      | Some _ -> ());
      (match json_num "ts" x with
      | Some ts when ts >= 0. -> ()
      | _ -> Alcotest.fail "X event with negative or missing ts");
      (match json_num "dur" x with
      | Some d when d >= 1. -> ()
      | _ -> Alcotest.fail "X event with dur < 1us");
      (match json_num "pid" x with
      | Some _ -> ()
      | None -> Alcotest.fail "X event without pid");
      match json_num "tid" x with
      | Some tid when List.mem tid named_tids -> ()
      | Some _ -> Alcotest.fail "X event on an unnamed tid"
      | None -> Alcotest.fail "X event without tid")
    xs;
  (events, xs)

let test_chrome_export () =
  let f = Clock.Fake.create ~at:100.0 () in
  Clock.with_source (Clock.Fake.source f) (fun () ->
      let s = Span.create () in
      let rec_span name track d =
        let t0 = Clock.now () in
        Clock.Fake.advance f d;
        Span.record s ~cat:"test" ~track ~args:[ ("k", "v") ] name ~t0
          ~t1:(Clock.now ())
      in
      rec_span "a" "coordinator" 0.001;
      rec_span "b" "site 0" 0.002;
      rec_span "c" "site 1" 0.0;
      let spans = Span.spans s in
      Alcotest.(check int) "three spans" 3 (List.length spans);
      let _, xs = check_chrome_schema ~spans (Chrome.to_string spans) in
      (* Timestamps are relative to the earliest span... *)
      Alcotest.(check (option (float 0.))) "first span at ts 0" (Some 0.)
        (json_num "ts" (List.hd xs));
      (* ... and a zero-length span still renders 1us wide. *)
      let last = List.nth xs 2 in
      Alcotest.(check (option (float 0.))) "zero duration clamps to 1us"
        (Some 1.) (json_num "dur" last))

let test_span_order () =
  let f = Clock.Fake.create ~at:0.0 () in
  Clock.with_source (Clock.Fake.source f) (fun () ->
      let s = Span.create () in
      Span.record s "late" ~t0:5.0 ~t1:6.0;
      Span.record s "early" ~t0:1.0 ~t1:2.0;
      Span.record s "tie-1" ~t0:3.0 ~t1:3.5;
      Span.record s "tie-2" ~t0:3.0 ~t1:3.5;
      Alcotest.(check (list string)) "sorted by (begin, seq)"
        [ "early"; "tie-1"; "tie-2"; "late" ]
        (List.map (fun (x : Span.span) -> x.Span.sp_name) (Span.spans s)))

(* ------------------------------------------------------------------ *)
(* Sink                                                               *)
(* ------------------------------------------------------------------ *)

let test_sink_noop () =
  let s = Sink.noop in
  Alcotest.(check bool) "disabled" false s.Sink.enabled;
  let r = Sink.span s "x" (fun () -> 41 + 1) in
  Alcotest.(check int) "span is exactly f ()" 42 r;
  Sink.count s "c";
  Sink.observe s "h" 1.;
  Alcotest.(check int) "no spans recorded" 0 (Span.length s.Sink.spans);
  Alcotest.(check (option (float 0.))) "no metrics recorded" None
    (Metrics.value s.Sink.metrics "c")

let test_sink_enabled () =
  let s = Sink.create () in
  Alcotest.(check bool) "enabled" true s.Sink.enabled;
  (match Sink.span s "boom" (fun () -> failwith "boom") with
  | () -> Alcotest.fail "exception must propagate"
  | exception Failure _ -> ());
  Alcotest.(check int) "span recorded even on exception" 1
    (Span.length s.Sink.spans);
  Sink.count s ~labels:[ ("k", "v") ] "c";
  Alcotest.(check (option (float 0.))) "counter recorded" (Some 1.)
    (Metrics.value s.Sink.metrics ~labels:[ ("k", "v") ] "c");
  Sink.clear s;
  Alcotest.(check int) "clear empties spans" 0 (Span.length s.Sink.spans);
  Alcotest.(check (list (pair string (float 0.)))) "clear empties metrics" []
    (Metrics.pairs s.Sink.metrics)

(* ------------------------------------------------------------------ *)
(* Audit units                                                        *)
(* ------------------------------------------------------------------ *)

let sample_input =
  {
    Audit.engine = "pax2";
    visit_limit = Some 2;
    max_visits = 2;
    q_entries = 4;
    ft_size = 5;
    t_size = 1000;
    control_bytes = 200;
    answer_bytes = 100;
    total_ops = 5000;
  }

let test_audit_pass () =
  let r = Audit.evaluate sample_input in
  Alcotest.(check bool) "passes" true r.Audit.pass;
  Alcotest.(check int) "three bounds" 3 (List.length (Audit.bounds r));
  List.iter
    (fun (b : Audit.bound) ->
      Alcotest.(check bool) (b.Audit.b_name ^ " passes") true (Audit.passes b);
      if Audit.margin b < 0. then
        Alcotest.failf "%s: negative margin on a passing bound" b.Audit.b_name)
    (Audit.bounds r);
  (* No visits bound when the engine promises none. *)
  let r' = Audit.evaluate { sample_input with Audit.visit_limit = None } in
  Alcotest.(check int) "two bounds without a visit promise" 2
    (List.length (Audit.bounds r'))

(* The acceptance criterion's deliberate violation: a 4-visit run under
   a <= 2 promise must report failure, with a negative margin. *)
let test_audit_violation () =
  let r = Audit.evaluate { sample_input with Audit.max_visits = 4 } in
  Alcotest.(check bool) "fails" false r.Audit.pass;
  let visits =
    List.find (fun (b : Audit.bound) -> b.Audit.b_name = "visits")
      (Audit.bounds r)
  in
  Alcotest.(check bool) "visits bound failed" false (Audit.passes visits);
  Alcotest.(check bool) "negative margin" true (Audit.margin visits < 0.);
  Alcotest.(check (float 0.)) "actual is 4" 4. visits.Audit.b_actual;
  (* The other two bounds fail on inflated actuals too. *)
  let r_comm =
    Audit.evaluate { sample_input with Audit.control_bytes = 10_000_000 }
  in
  Alcotest.(check bool) "comm violation fails" false r_comm.Audit.pass;
  let r_comp =
    Audit.evaluate { sample_input with Audit.total_ops = 100_000_000 }
  in
  Alcotest.(check bool) "comp violation fails" false r_comp.Audit.pass

let test_audit_json () =
  let j = Audit.to_json (Audit.evaluate sample_input) in
  (* The report serializes to parseable JSON with the verdict. *)
  match Json.parse (Json.to_string j) with
  | Error e -> Alcotest.failf "audit JSON does not parse: %s" e
  | Ok j' -> (
      match Option.bind (Json.member "pass" j') Json.as_bool with
      | Some true -> ()
      | _ -> Alcotest.fail "audit JSON without pass=true")

(* ------------------------------------------------------------------ *)
(* Audit over the example suite                                       *)
(* ------------------------------------------------------------------ *)

let xmark_ft () =
  let doc = Pax_xmark.Xmark.doc ~seed:11 ~total_nodes:1600 ~n_sites:4 in
  Fragment.fragmentize doc ~cuts:(Fragment.cuts_by_tag doc ~tag:"site")

let xmark_queries =
  [
    "//person[profile/education]";
    "//person/profile/age";
    "//regions/*/item/name";
    "/site/open_auctions/open_auction[bidder]";
  ]

let engines =
  [
    ("pax2", fun cl q -> Pax_core.Pax2.run cl q);
    ("pax2", fun cl q -> Pax_core.Pax2.run ~annotations:true cl q);
    ("pax3", fun cl q -> Pax_core.Pax3.run cl q);
    ("pax3", fun cl q -> Pax_core.Pax3.run ~annotations:true cl q);
  ]

let check_audit_pass ~what ~engine ~ftree r =
  let rep = Guarantee.audit ~engine ~ftree r in
  if not rep.Audit.pass then
    Alcotest.failf "%s: audit failed:@.%s" what
      (Format.asprintf "%a" Audit.pp rep);
  List.iter
    (fun (b : Audit.bound) ->
      if Audit.margin b < 0. then
        Alcotest.failf "%s: %s margin negative" what b.Audit.b_name)
    (Audit.bounds rep)

let test_audit_example_suite () =
  (* The Fig. 2 clientele example... *)
  let c = H.Data.clientele () in
  let ft = H.Data.clientele_ftree c in
  let q = Query.of_string "//stock[qt/text()=\"40\"]/code" in
  List.iter
    (fun (engine, run) ->
      let cl = H.Data.clientele_cluster c in
      check_audit_pass ~what:("clientele " ^ engine) ~engine ~ftree:ft
        (run cl q))
    engines;
  (* ... and the XMark workload at several queries. *)
  let ft = xmark_ft () in
  List.iter
    (fun qs ->
      let q = Query.of_string qs in
      List.iter
        (fun (engine, run) ->
          let cl = Pax_dist.Placement.cluster_round_robin ft ~n_sites:3 in
          check_audit_pass
            ~what:(Printf.sprintf "xmark %s %s" engine qs)
            ~engine ~ftree:ft (run cl q))
        engines)
    xmark_queries

(* ------------------------------------------------------------------ *)
(* Span coverage of an engine run                                     *)
(* ------------------------------------------------------------------ *)

let spans_with_cat cat spans =
  List.filter (fun (s : Span.span) -> s.Span.sp_cat = cat) spans

let test_span_coverage_in_process () =
  let c = H.Data.clientele () in
  let cl = H.Data.clientele_cluster c in
  let sink = Sink.create () in
  Cluster.set_sink cl sink;
  let q = Query.of_string "//stock[qt/text()=\"40\"]/code" in
  let r = Pax_core.Pax2.run cl q in
  let rep = r.Run_result.report in
  let spans = Span.spans sink.Sink.spans in
  let rounds = spans_with_cat "round" spans in
  Alcotest.(check (list string)) "one round span per round, in order"
    (List.map (fun l -> "round " ^ l) rep.Cluster.rounds)
    (List.map (fun (s : Span.span) -> s.Span.sp_name) rounds);
  let visits = spans_with_cat "visit" spans in
  Alcotest.(check int) "one visit span per charged visit"
    (Array.fold_left ( + ) 0 rep.Cluster.visits)
    (List.length visits);
  (* Visit spans live on their site's track. *)
  List.iter
    (fun (s : Span.span) ->
      if not (Astring.String.is_prefix ~affix:"site " s.Span.sp_track) then
        Alcotest.failf "visit span on track %S" s.Span.sp_track)
    visits;
  Alcotest.(check bool) "coordinator stage spans present" true
    (spans_with_cat "stage" spans <> []);
  (* The whole run exports as schema-valid Chrome JSON. *)
  ignore (check_chrome_schema ~spans (Chrome.to_string spans));
  (* And the counters agree with the report. *)
  Alcotest.(check (option (float 0.))) "rounds counter"
    (Some (float_of_int (List.length rep.Cluster.rounds)))
    (Metrics.value sink.Sink.metrics "pax_rounds_total");
  Array.iteri
    (fun site n ->
      let got =
        Option.value ~default:0.
          (Metrics.value sink.Sink.metrics
             ~labels:[ ("site", string_of_int site) ]
             "pax_visits_total")
      in
      Alcotest.(check (float 0.))
        (Printf.sprintf "visit counter site %d" site)
        (float_of_int n) got)
    rep.Cluster.visits

let test_span_coverage_pool () =
  let c = H.Data.clientele () in
  (* Baseline: sequential, uninstrumented. *)
  let cl0 = H.Data.clientele_cluster c in
  let q = Query.of_string "//stock[qt/text()=\"40\"]/code" in
  let r0 = Pax_core.Pax3.run cl0 q in
  (* Instrumented parallel run on a real domain pool. *)
  let cl = H.Data.clientele_cluster c in
  Cluster.set_domains cl 3;
  let sink = Sink.create () in
  Cluster.set_sink cl sink;
  let r = Pax_core.Pax3.run cl q in
  Alcotest.(check (list int)) "parallel instrumented answers"
    r0.Run_result.answer_ids r.Run_result.answer_ids;
  Alcotest.(check int) "parallel instrumented ops"
    r0.Run_result.report.Cluster.total_ops r.Run_result.report.Cluster.total_ops;
  let spans = Span.spans sink.Sink.spans in
  Alcotest.(check int) "visit spans still cover every visit"
    (Array.fold_left ( + ) 0 r.Run_result.report.Cluster.visits)
    (List.length (spans_with_cat "visit" spans));
  Alcotest.(check bool) "pool queue-wait spans recorded" true
    (spans_with_cat "pool" spans <> []);
  (* Histograms flatten through [pairs]. *)
  let cnt =
    Option.value ~default:0.
      (List.assoc_opt "pax_pool_queue_wait_seconds_count"
         (Metrics.pairs sink.Sink.metrics))
  in
  Alcotest.(check bool) "queue wait observed per pooled task" true (cnt > 0.)

(* ------------------------------------------------------------------ *)
(* Differential: instrumented = uninstrumented (in-process, qcheck)   *)
(* ------------------------------------------------------------------ *)

let observables (r : Run_result.t) =
  let rep = r.Run_result.report in
  ( r.Run_result.answer_ids,
    rep.Cluster.visits,
    rep.Cluster.rounds,
    rep.Cluster.total_ops,
    ( rep.Cluster.control_bytes,
      rep.Cluster.answer_bytes,
      rep.Cluster.tree_bytes,
      rep.Cluster.n_messages ) )

let diff_engines =
  [
    ("PaX2-NA", fun cl q -> Pax_core.Pax2.run cl q);
    ("PaX2-XA", fun cl q -> Pax_core.Pax2.run ~annotations:true cl q);
    ("PaX3-NA", fun cl q -> Pax_core.Pax3.run cl q);
    ("PaX3-XA", fun cl q -> Pax_core.Pax3.run ~annotations:true cl q);
  ]

let arbitrary_faulty =
  QCheck.make
    ~print:(fun (s, seed) ->
      Printf.sprintf "fault seed %d\n%s" seed (H.Gen.print_scenario s))
    G.(pair H.Gen.scenario (int_bound 1_000_000))

(* One engine, one scenario: the run's deterministic observables (and
   the full logical trace) must be identical under the no-op sink and
   under a live one.  [mk_fault] is re-applied before each run so both
   see the same schedule. *)
let check_noop_equivalence name run cl q ~mk_fault =
  let capture () =
    Cluster.set_fault cl (mk_fault ());
    match (run cl q : Run_result.t) with
    | r -> Ok (observables r, Trace.events (Cluster.trace cl))
    | exception Cluster.Site_unreachable { site; stage; attempts } ->
        Error (site, stage, attempts)
  in
  Cluster.set_sink cl Sink.noop;
  let plain = capture () in
  Cluster.set_sink cl (Sink.create ());
  let instrumented = capture () in
  Cluster.set_sink cl Sink.noop;
  plain = instrumented
  || QCheck.Test.fail_reportf
       "%s: instrumented run diverges from the no-op-sink run" name

let differential ~fault (s, seed) =
  let cl = s.H.Gen.s_cluster in
  let q = Query.of_ast s.H.Gen.s_query in
  let mk_fault () =
    if fault then
      Fault.seeded ~drop:0.12 ~dup:0.08 ~delay:0.05 ~lose:0.1 ~crash:0.15
        ~seed ()
    else Fault.none
  in
  List.for_all
    (fun (name, run) -> check_noop_equivalence name run cl q ~mk_fault)
    diff_engines

let make_diff_test name ~count:n ~fault =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:(count n) arbitrary_faulty
       (differential ~fault))

(* ------------------------------------------------------------------ *)
(* Differential + coverage + stats agreement over real sockets        *)
(* ------------------------------------------------------------------ *)

let site_frags cl ft site =
  List.map
    (fun fid -> (fid, (Fragment.fragment ft fid).Fragment.root))
    (Cluster.fragments_on cl site)

let with_servers ft ~n_sites f =
  let cl = Pax_dist.Placement.cluster_round_robin ft ~n_sites in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pax_obs_test_%d_%d" (Unix.getpid ()) (Random.int 100000))
  in
  Sys.mkdir dir 0o755;
  let addrs =
    Array.init n_sites (fun site ->
        Sockio.Unix_path (Filename.concat dir (Printf.sprintf "s%d.sock" site)))
  in
  let pids =
    Array.to_list
      (Array.mapi
         (fun site addr -> Server.spawn ~addr ~frags:(site_frags cl ft site) ())
         addrs)
  in
  let client = Client.create ~timeout:20. ~addrs () in
  Cluster.set_transport cl (Some (Client.transport client));
  Fun.protect
    ~finally:(fun () ->
      Client.shutdown_sites client;
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with _ -> ());
          try ignore (Unix.waitpid [] pid) with _ -> ())
        pids;
      Array.iter
        (fun a ->
          match a with
          | Sockio.Unix_path p -> ( try Sys.remove p with _ -> ())
          | Sockio.Tcp _ -> ())
        addrs;
      try Sys.rmdir dir with _ -> ())
    (fun () -> f cl client)

let net_pair pairs ~name ~dir =
  Option.value ~default:0.
    (List.assoc_opt (Printf.sprintf "%s{dir=\"%s\"}" name dir) pairs)

let test_net_differential_and_stats () =
  with_timeout 120 (fun () ->
      let ft = xmark_ft () in
      with_servers ft ~n_sites:3 (fun cl client ->
          List.iter
            (fun qs ->
              let q = Query.of_string qs in
              List.iter
                (fun (name, run) ->
                  (* Uninstrumented... *)
                  Cluster.set_sink cl Sink.noop;
                  Client.set_sink client Sink.noop;
                  let r0 = (run cl q : Run_result.t) in
                  (* ... vs instrumented, same servers.  The servers'
                     counters are cumulative across runs, so snapshot
                     them first and compare deltas below. *)
                  let before =
                    List.init (Cluster.n_sites cl) (Client.fetch_stats client)
                  in
                  let sink = Sink.create () in
                  Cluster.set_sink cl sink;
                  Client.set_sink client sink;
                  let r1 = run cl q in
                  if observables r0 <> observables r1 then
                    Alcotest.failf "%s %s: instrumented socket run diverges"
                      name qs;
                  (* Span coverage: every round, every (synthesized)
                     site visit, every wire frame. *)
                  let rep = r1.Run_result.report in
                  let spans = Span.spans sink.Sink.spans in
                  Alcotest.(check int)
                    (qs ^ ": round spans")
                    (List.length rep.Cluster.rounds)
                    (List.length (spans_with_cat "round" spans));
                  Alcotest.(check int)
                    (qs ^ ": visit spans")
                    (Array.fold_left ( + ) 0 rep.Cluster.visits)
                    (List.length (spans_with_cat "visit" spans));
                  let stats =
                    match Cluster.net_stats cl with
                    | Some s -> s
                    | None -> Alcotest.fail "net_stats missing"
                  in
                  Alcotest.(check int)
                    (qs ^ ": one wire span per frame")
                    stats.Transport.frames
                    (List.length (spans_with_cat "wire" spans));
                  ignore (check_chrome_schema ~spans (Chrome.to_string spans));
                  (* Stats agreement: the client's visit-frame counters
                     equal the sum over the site servers', dir-flipped
                     (client "sent" arrives as server "recv"). *)
                  let cpairs = Metrics.pairs sink.Sink.metrics in
                  let servers =
                    List.init (Cluster.n_sites cl) (Client.fetch_stats client)
                  in
                  let sum ~name ~dir =
                    List.fold_left2
                      (fun acc p0 p1 ->
                        acc +. net_pair p1 ~name ~dir
                        -. net_pair p0 ~name ~dir)
                      0. before servers
                  in
                  List.iter
                    (fun series ->
                      Alcotest.(check (float 0.))
                        (Printf.sprintf "%s %s: client sent = servers recv (%s)"
                           name qs series)
                        (net_pair cpairs ~name:series ~dir:"sent")
                        (sum ~name:series ~dir:"recv");
                      Alcotest.(check (float 0.))
                        (Printf.sprintf "%s %s: client recv = servers sent (%s)"
                           name qs series)
                        (net_pair cpairs ~name:series ~dir:"recv")
                        (sum ~name:series ~dir:"sent"))
                    [ "pax_net_visit_frames_total"; "pax_net_visit_bytes_total" ];
                  (* Fetching stats twice is stable: the raw-IO fetch
                     does not disturb the counters it reads. *)
                  let again =
                    List.init (Cluster.n_sites cl) (Client.fetch_stats client)
                  in
                  Alcotest.(check bool)
                    (qs ^ ": stats fetch is read-only") true (servers = again))
                [ ("pax2", fun cl q -> Pax_core.Pax2.run cl q);
                  ("pax3", fun cl q -> Pax_core.Pax3.run cl q) ])
            [ "//person[profile/education]"; "//regions/*/item/name" ]))

(* ------------------------------------------------------------------ *)
(* Run ids                                                            *)
(* ------------------------------------------------------------------ *)

let test_run_id_uniqueness () =
  let n = 20_000 in
  let seen = Hashtbl.create (2 * n) in
  for i = 1 to n do
    let id = Client.fresh_run_id () in
    if id < 0 || id >= 1 lsl 55 then
      Alcotest.failf "run id %d outside the wire varint range" id;
    if Hashtbl.mem seen id then
      Alcotest.failf "duplicate run id %d after %d draws" id i;
    Hashtbl.add seen id ()
  done

(* The first use of the per-process run-id base, raced: in each of 20
   forked children 16 threads make their first [fresh_run_id] call at
   once.  A child exits non-zero on any exception (a thread forcing the
   base while another is still inside it) or duplicate id.  The
   children inherit the parent's base cell, so this must run before
   anything in this process draws a run id. *)
let test_run_id_first_use_race () =
  let n_threads = 16 in
  let child () =
    let ready = Atomic.make 0 and failed = Atomic.make false in
    let ids = Array.make n_threads (-1) in
    let worker i =
      Atomic.incr ready;
      while Atomic.get ready < n_threads do
        Thread.yield ()
      done;
      match Client.fresh_run_id () with
      | id -> ids.(i) <- id
      | exception _ -> Atomic.set failed true
    in
    List.iter Thread.join (List.init n_threads (Thread.create worker));
    let distinct = List.sort_uniq compare (Array.to_list ids) in
    if Atomic.get failed || List.length distinct <> n_threads then 1 else 0
  in
  for k = 1 to 20 do
    flush_all ();
    match Unix.fork () with
    | 0 -> Unix._exit (try child () with _ -> 2)
    | pid -> (
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _, Unix.WEXITED code -> Alcotest.failf "child %d exited %d" k code
        | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
            Alcotest.failf "child %d stopped by signal %d" k s)
  done

(* ------------------------------------------------------------------ *)
(* Span ring bounds                                                   *)
(* ------------------------------------------------------------------ *)

let test_span_ring_capacity () =
  let t = Span.create ~capacity:4 () in
  for i = 1 to 6 do
    Span.record t ~cat:"c"
      (Printf.sprintf "s%d" i)
      ~t0:(float_of_int i)
      ~t1:(float_of_int i +. 0.5)
  done;
  Alcotest.(check int) "length capped" 4 (Span.length t);
  Alcotest.(check int) "drops counted" 2 (Span.drops t);
  Alcotest.(check (list string)) "oldest evicted first"
    [ "s3"; "s4"; "s5"; "s6" ]
    (List.map (fun (sp : Span.span) -> sp.Span.sp_name) (Span.spans t));
  let drained = Span.drain t in
  Alcotest.(check int) "drain returns the retained spans" 4
    (List.length drained);
  Alcotest.(check int) "empty after drain" 0 (Span.length t);
  Alcotest.(check int) "drops survive the drain" 2 (Span.drops t);
  (* The sink counts evictions into the exported metric. *)
  let s = Sink.create ~capacity:2 () in
  for i = 1 to 5 do
    Sink.record s (Printf.sprintf "m%d" i) ~t0:0. ~t1:1.
  done;
  Alcotest.(check (option (float 0.))) "pax_obs_spans_dropped_total" (Some 3.)
    (Metrics.value s.Sink.metrics Sink.dropped_total)

(* ------------------------------------------------------------------ *)
(* Clock-offset estimation                                            *)
(* ------------------------------------------------------------------ *)

let test_estimate_offset () =
  (* Symmetric transit: the skew is recovered exactly, whatever its
     sign or magnitude — simulated on a hand-cranked clock, so the
     whole estimate is deterministic. *)
  List.iter
    (fun skew ->
      List.iter
        (fun transit ->
          let f = Clock.Fake.create ~at:100. () in
          Clock.with_source (Clock.Fake.source f) (fun () ->
              let t0 = Clock.now () in
              Clock.Fake.advance f transit;
              let server_now = Clock.now () +. skew in
              Clock.Fake.advance f transit;
              let t1 = Clock.now () in
              Alcotest.(check (float 1e-9))
                (Printf.sprintf "skew %g recovered (transit %g)" skew transit)
                skew
                (Client.estimate_offset ~t0 ~t1 ~server_now)))
        [ 0.; 0.001; 0.5 ])
    [ 0.; 37.25; -12.5; 3600. ];
  (* Asymmetric transit: the error is bounded by half the round trip. *)
  let f = Clock.Fake.create ~at:0. () in
  Clock.with_source (Clock.Fake.source f) (fun () ->
      let skew = 5. in
      let t0 = Clock.now () in
      Clock.Fake.advance f 0.9;
      let server_now = Clock.now () +. skew in
      Clock.Fake.advance f 0.1;
      let t1 = Clock.now () in
      let est = Client.estimate_offset ~t0 ~t1 ~server_now in
      Alcotest.(check bool) "error bounded by rtt/2" true
        (Float.abs (est -. skew) <= ((t1 -. t0) /. 2.) +. 1e-9))

(* ------------------------------------------------------------------ *)
(* Merged multi-process Chrome export                                 *)
(* ------------------------------------------------------------------ *)

(* Schema-check a merged export: one process_name per process (pids
   1..n in list order), one X event per span across all processes, no
   negative timestamps, and flow arrows in matched s/f pairs.  Returns
   (flow starts, X events) for further assertions. *)
let check_chrome_processes_schema procs =
  let serialized = Chrome.to_string_processes procs in
  let j =
    match Json.parse serialized with
    | Ok j -> j
    | Error e -> Alcotest.failf "merged trace does not parse: %s" e
  in
  let events =
    match Option.bind (Json.member "traceEvents" j) Json.as_list with
    | Some l -> l
    | None -> Alcotest.fail "missing traceEvents array"
  in
  let proc_metas =
    List.filter
      (fun e ->
        json_str "ph" e = Some "M" && json_str "name" e = Some "process_name")
      events
  in
  Alcotest.(check int) "one process_name per process" (List.length procs)
    (List.length proc_metas);
  List.iteri
    (fun i p ->
      match
        List.find_opt
          (fun m -> json_num "pid" m = Some (float_of_int (i + 1)))
          proc_metas
      with
      | Some m ->
          Alcotest.(check (option string))
            "process named as given"
            (Some p.Chrome.pr_name)
            (Option.bind (Json.member "args" m) (json_str "name"))
      | None -> Alcotest.failf "no process_name for pid %d" (i + 1))
    procs;
  let xs = List.filter (fun e -> json_str "ph" e = Some "X") events in
  Alcotest.(check int) "one X event per span across processes"
    (List.fold_left (fun n p -> n + List.length p.Chrome.pr_spans) 0 procs)
    (List.length xs);
  List.iter
    (fun x ->
      (match json_num "ts" x with
      | Some ts when ts >= 0. -> ()
      | _ -> Alcotest.fail "X event with negative or missing ts");
      match json_num "dur" x with
      | Some d when d >= 0. -> ()
      | _ -> Alcotest.fail "X event with negative or missing dur")
    xs;
  let starts = List.filter (fun e -> json_str "ph" e = Some "s") events in
  let finishes = List.filter (fun e -> json_str "ph" e = Some "f") events in
  Alcotest.(check int) "flow starts pair with finishes"
    (List.length starts) (List.length finishes);
  let finish_ids = List.filter_map (json_num "id") finishes in
  List.iter
    (fun s ->
      match json_num "id" s with
      | Some id when List.mem id finish_ids -> ()
      | _ -> Alcotest.fail "flow start without a matching finish")
    starts;
  (starts, xs)

let test_chrome_processes_merge () =
  let sp ?parent ~id ~t0 ~t1 ~track ~cat name seqn =
    {
      Span.sp_name = name;
      sp_cat = cat;
      sp_track = track;
      sp_begin = t0;
      sp_dur = t1 -. t0;
      sp_args = [];
      sp_seq = seqn;
      sp_id = id;
      sp_parent = parent;
    }
  in
  (* Coordinator at true time 100 s; the site clock runs 50 s ahead.
     After alignment the site's visit must land 2 ms after the
     coordinator's rpc span, and the dangling parent (9999 is nowhere)
     must draw no flow arrow. *)
  let coord =
    [ sp ~id:1 ~t0:100. ~t1:100.01 ~track:"coordinator" ~cat:"rpc" "rpc S0" 0 ]
  in
  let site =
    [
      sp ~parent:1 ~id:2 ~t0:150.002 ~t1:150.008 ~track:"site 0" ~cat:"visit"
        "stage1" 1;
      sp ~parent:9999 ~id:3 ~t0:150.004 ~t1:150.005 ~track:"site 0"
        ~cat:"wire" "dangling" 2;
    ]
  in
  let procs =
    [
      { Chrome.pr_name = "coordinator"; pr_offset = 0.; pr_spans = coord };
      { Chrome.pr_name = "site S0"; pr_offset = 50.; pr_spans = site };
    ]
  in
  let starts, xs = check_chrome_processes_schema procs in
  Alcotest.(check int) "exactly one flow arrow (dangling parent skipped)" 1
    (List.length starts);
  (match starts with
  | [ s ] ->
      Alcotest.(check (option (float 0.))) "flow id is the child span's"
        (Some 2.) (json_num "id" s)
  | _ -> ());
  let ts_of name =
    match List.find_opt (fun x -> json_str "name" x = Some name) xs with
    | Some x -> json_num "ts" x
    | None -> Alcotest.failf "no X event named %s" name
  in
  Alcotest.(check (option (float 0.))) "origin at the earliest aligned span"
    (Some 0.) (ts_of "rpc S0");
  Alcotest.(check (option (float 0.5))) "site span aligned onto coord clock"
    (Some 2000.) (ts_of "stage1");
  Alcotest.(check (option (float 0.5))) "alignment preserves in-site order"
    (Some 4000.) (ts_of "dangling")

(* ------------------------------------------------------------------ *)
(* Cross-process parent links over real sockets                       *)
(* ------------------------------------------------------------------ *)

let test_parent_links_across_wire () =
  with_timeout 120 (fun () ->
      let ft = xmark_ft () in
      with_servers ft ~n_sites:2 (fun cl client ->
          (* Drain anything recorded before this run so the harvest
             below holds exactly this run's spans. *)
          for site = 0 to Cluster.n_sites cl - 1 do
            ignore (Client.fetch_spans client site)
          done;
          let sink = Sink.create () in
          Cluster.set_sink cl sink;
          Client.set_sink client sink;
          let q = Query.of_string "//person[profile/education]" in
          ignore (Pax_core.Pax2.run cl q : Run_result.t);
          let harvested =
            List.init (Cluster.n_sites cl) (Client.fetch_spans client)
          in
          let coord_spans = Span.spans sink.Sink.spans in
          Alcotest.(check bool) "coordinator recorded rpc spans" true
            (spans_with_cat "rpc" coord_spans <> []);
          let coord_ids = Hashtbl.create 64 in
          List.iter
            (fun (sp : Span.span) -> Hashtbl.replace coord_ids sp.Span.sp_id ())
            coord_spans;
          List.iter
            (fun (_offset, spans) ->
              Alcotest.(check bool) "site recorded spans" true (spans <> []);
              let site_ids = Hashtbl.create 64 in
              List.iter
                (fun (sp : Span.span) ->
                  Hashtbl.replace site_ids sp.Span.sp_id ())
                spans;
              List.iter
                (fun (sp : Span.span) ->
                  match (sp.Span.sp_cat, sp.Span.sp_parent) with
                  (* Every server visit span parent-links to the
                     coordinator rpc span whose id crossed the wire. *)
                  | "visit", Some p when Hashtbl.mem coord_ids p -> ()
                  | "visit", Some p ->
                      Alcotest.failf
                        "visit span parent %d unknown to the coordinator" p
                  | "visit", None ->
                      Alcotest.fail "server visit span without a parent"
                  (* Decode/memo/stage/encode/send spans nest under
                     their own process's visit span. *)
                  | _, Some p when Hashtbl.mem site_ids p -> ()
                  | _, Some p ->
                      Alcotest.failf "span %S: parent %d not in its process"
                        sp.Span.sp_name p
                  | _, None ->
                      Alcotest.failf "server span %S without a parent"
                        sp.Span.sp_name)
                spans)
            harvested;
          (* And the whole thing merges into a valid multi-process
             trace with at least one cross-process flow arrow. *)
          let procs =
            {
              Chrome.pr_name = "coordinator";
              pr_offset = 0.;
              pr_spans = coord_spans;
            }
            :: List.mapi
                 (fun site (offset, spans) ->
                   {
                     Chrome.pr_name = Printf.sprintf "site S%d" site;
                     pr_offset = offset;
                     pr_spans = spans;
                   })
                 harvested
          in
          let starts, _ = check_chrome_processes_schema procs in
          Alcotest.(check bool) "cross-process flow arrows drawn" true
            (starts <> [])))

(* Site servers record spans only for traced frames: untraced visits of
   every engine leave their span rings empty, while the counters they
   serve still count the visits. *)
let test_untraced_visits_record_no_spans () =
  with_timeout 120 (fun () ->
      let ft = xmark_ft () in
      with_servers ft ~n_sites:2 (fun cl client ->
          List.iter
            (fun (_, run) ->
              List.iter
                (fun src ->
                  ignore (run cl (Query.of_string src) : Run_result.t))
                xmark_queries)
            engines;
          for site = 0 to Cluster.n_sites cl - 1 do
            let _offset, spans = Client.fetch_spans client site in
            Alcotest.(check int)
              (Printf.sprintf "site %d recorded no spans" site)
              0 (List.length spans);
            let visits =
              List.fold_left
                (fun acc (name, v) ->
                  if
                    String.starts_with ~prefix:"pax_net_visit_frames_total"
                      name
                  then acc +. v
                  else acc)
                0. (Client.fetch_stats client site)
            in
            Alcotest.(check bool)
              (Printf.sprintf "site %d still counts visit frames" site)
              true (visits > 0.)
          done))

(* ------------------------------------------------------------------ *)
(* Cost ledger                                                        *)
(* ------------------------------------------------------------------ *)

let test_cost_ledger () =
  let s = Sink.create () in
  let report =
    Audit.evaluate
      {
        Audit.engine = "pax2";
        visit_limit = Some 2;
        max_visits = 2;
        q_entries = 4;
        ft_size = 5;
        t_size = 100;
        control_bytes = 10;
        answer_bytes = 10;
        total_ops = 50;
      }
  in
  Audit.ledger s ~engine:"pax2" report;
  let v name bound =
    Metrics.value s.Sink.metrics
      ~labels:[ ("engine", "pax2"); ("bound", bound) ]
      name
  in
  List.iter
    (fun (b : Audit.bound) ->
      Alcotest.(check bool)
        (b.Audit.b_name ^ ": ratio histogram populated")
        true
        (v "pax_cost_predicted_ratio" b.Audit.b_name <> None);
      Alcotest.(check (option (float 1e-9)))
        (b.Audit.b_name ^ ": predicted limit gauge")
        (Some b.Audit.b_limit)
        (v "pax_cost_predicted_limit" b.Audit.b_name);
      (* A histogram's [value] is its sum — one observation here. *)
      Alcotest.(check (option (float 1e-9)))
        (b.Audit.b_name ^ ": actual recorded")
        (Some b.Audit.b_actual)
        (v "pax_cost_actual" b.Audit.b_name))
    (Audit.bounds report);
  Alcotest.(check (option (float 0.))) "no violations counted" None
    (v "pax_cost_violations_total" "visits");
  (* A violated bound is counted. *)
  let bad =
    Audit.of_bounds
      [ Audit.bound ~name:"visits" ~formula:"x" ~actual:4. ~limit:2. ]
  in
  Audit.ledger s ~engine:"pax2" bad;
  Alcotest.(check (option (float 0.))) "violation counted" (Some 1.)
    (v "pax_cost_violations_total" "visits")

let () =
  Random.self_init ();
  Alcotest.run "obs"
    [
      ( "clock",
        [
          Alcotest.test_case "wall is monotonic" `Quick
            test_clock_wall_monotonic;
          Alcotest.test_case "fake clock" `Quick test_clock_fake;
          Alcotest.test_case "fresh epoch per source" `Quick
            test_clock_fresh_epoch;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters and gauges" `Quick test_metrics_counters;
          Alcotest.test_case "misuse is rejected" `Quick test_metrics_errors;
          Alcotest.test_case "histograms" `Quick test_metrics_histogram;
        ] );
      ( "spans",
        [
          Alcotest.test_case "chrome export schema" `Quick test_chrome_export;
          Alcotest.test_case "stable order" `Quick test_span_order;
          Alcotest.test_case "bounded ring evicts and counts" `Quick
            test_span_ring_capacity;
          Alcotest.test_case "multi-process merge aligns and flows" `Quick
            test_chrome_processes_merge;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "clock offset under known skews" `Quick
            test_estimate_offset;
        ] );
      ( "sink",
        [
          Alcotest.test_case "noop records nothing" `Quick test_sink_noop;
          Alcotest.test_case "enabled records" `Quick test_sink_enabled;
        ] );
      ( "audit",
        [
          Alcotest.test_case "bounds pass" `Quick test_audit_pass;
          Alcotest.test_case "violations fail" `Quick test_audit_violation;
          Alcotest.test_case "json report" `Quick test_audit_json;
          Alcotest.test_case "example suite passes" `Quick
            test_audit_example_suite;
          Alcotest.test_case "cost ledger metrics" `Quick test_cost_ledger;
        ] );
      ( "differential",
        [
          make_diff_test "instrumented = noop (clean network)" ~count:40
            ~fault:false;
          make_diff_test "instrumented = noop (faults)" ~count:60 ~fault:true;
        ] );
      (* The net suite forks site servers, which OCaml 5 forbids once
         any other domain has been created — so it must run before the
         pooled-coverage test below spins up the domain pool. *)
      ( "net",
        [
          (* First: it needs this process's run-id base still unforced. *)
          Alcotest.test_case "run ids: racing first use" `Quick
            test_run_id_first_use_race;
          Alcotest.test_case "sockets: differential + coverage + stats" `Quick
            test_net_differential_and_stats;
          Alcotest.test_case "sockets: cross-process parent links" `Quick
            test_parent_links_across_wire;
          Alcotest.test_case "sockets: untraced visits record no spans"
            `Quick test_untraced_visits_record_no_spans;
          Alcotest.test_case "run ids are unique" `Quick test_run_id_uniqueness;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "spans cover an in-process run" `Quick
            test_span_coverage_in_process;
          Alcotest.test_case "spans cover a pooled run" `Quick
            test_span_coverage_pool;
        ] );
    ]
