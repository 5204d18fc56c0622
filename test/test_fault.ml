(* Fault-plan regression tests: golden fault schedules (dropped
   stage-1 vectors, a site crashing mid-stage-2, duplicated resolution
   messages, lost visit replies) must each terminate with the correct
   answers or a typed [Cluster.Site_unreachable] — never a wrong answer
   and never a hang — and the trace must account visits and retries the
   way the paper's bounds are stated: one logical visit per (site,
   round), however many deliveries it took. *)

module Tree = Pax_xml.Tree
module Query = Pax_xpath.Query
module Cluster = Pax_dist.Cluster
module Fault = Pax_dist.Fault
module Retry = Pax_dist.Retry
module Trace = Pax_dist.Trace
module Run_result = Pax_core.Run_result
module H = Test_helpers

(* The paper's Fig. 2 placement: S0 {F0}, S1 {F1 E*trade broker},
   S2 {F2 NASDAQ/E*trade, F4 NASDAQ/Bache}, S3 {F3 CIBC}.  The query
   matches only inside F2, whose selection context is symbolic without
   annotations, so stage 2/3 really does visit S2. *)
let qs = "//stock[qt/text()=\"40\"]/code"

let setup () =
  let c = H.Data.clientele () in
  let cl = H.Data.clientele_cluster c in
  let q = Query.of_string qs in
  let oracle = H.Pointer.eval_ids q c.H.Data.doc.Tree.root in
  Alcotest.(check bool) "query matches something" true (oracle <> []);
  (cl, q, oracle)

let check_ids name expected (r : Run_result.t) =
  Alcotest.(check (list int)) name expected r.Run_result.answer_ids

let events_with pred tr = List.exists pred (Trace.events tr)

(* ------------------------------------------------------------------ *)
(* Golden schedules                                                   *)
(* ------------------------------------------------------------------ *)

(* Every stage-1 partial-answer vector is dropped once and
   retransmitted; answers and logical visit counts are unchanged. *)
let test_drop_stage1_vectors () =
  let cl, q, oracle = setup () in
  Cluster.set_fault cl
    (Fault.drop_message (fun c ->
         c.Fault.m_kind = Trace.Vectors && c.Fault.m_round = 0));
  let r2 = Pax_core.Pax2.run cl q in
  check_ids "PaX2 under dropped vectors" oracle r2;
  let tr = r2.Run_result.trace in
  Alcotest.(check bool) "vectors were dropped" true
    (events_with
       (function
         | Trace.Message { kind = Trace.Vectors; status = Trace.Dropped; _ } ->
             true
         | _ -> false)
       tr);
  Alcotest.(check bool) "retries happened" true (Trace.retries tr > 0);
  Alcotest.(check bool) "PaX2 logical visits <= 2" true
    (Trace.max_logical_visits tr <= 2);
  let r3 = Pax_core.Pax3.run cl q in
  check_ids "PaX3 under dropped vectors" oracle r3;
  Alcotest.(check bool) "PaX3 logical visits <= 3" true
    (Trace.max_logical_visits r3.Run_result.trace <= 3)

(* S2 crashes when stage 2 first knocks, restarts two attempts later;
   the visit is re-delivered and the run completes correctly. *)
let test_crash_mid_stage2 () =
  let cl, q, oracle = setup () in
  Cluster.set_fault cl (Fault.crash_site ~down_for:2 ~site:2 ~round:1 ());
  let r = Pax_core.Pax2.run cl q in
  check_ids "PaX2 with S2 crashing mid-stage-2" oracle r;
  let tr = r.Run_result.trace in
  Alcotest.(check bool) "crash recorded" true
    (events_with
       (function Trace.Site_down { site = 2; _ } -> true | _ -> false)
       tr);
  Alcotest.(check bool) "restart recorded" true
    (events_with
       (function Trace.Site_restart { site = 2; _ } -> true | _ -> false)
       tr);
  Alcotest.(check int) "S2 still charged one stage-2 visit" 2
    r.Run_result.report.Cluster.visits.(2)

(* A site that never restarts must surface as the typed error — with
   the answer withheld, not wrong. *)
let test_permanent_crash () =
  let cl, q, _oracle = setup () in
  Cluster.set_fault cl (Fault.crash_site ~site:2 ~round:1 ());
  (match Pax_core.Pax2.run cl q with
  | _ -> Alcotest.fail "permanently crashed site must not yield answers"
  | exception Cluster.Site_unreachable { site; attempts; _ } ->
      Alcotest.(check int) "failing site identified" 2 site;
      Alcotest.(check int) "full retry budget spent"
        Retry.default.Retry.max_attempts attempts);
  Alcotest.(check bool) "gave-up recorded" true
    (events_with
       (function Trace.Gave_up { site = 2; _ } -> true | _ -> false)
       (Cluster.trace cl))

(* Duplicated resolution messages: the replayed delivery is recorded
   (and billed) but cannot change the answer. *)
let test_duplicate_resolution () =
  let cl, q, oracle = setup () in
  let baseline = Pax_core.Pax2.run cl q in
  Cluster.set_fault cl
    (Fault.duplicate_message (fun c -> c.Fault.m_kind = Trace.Resolution));
  let r = Pax_core.Pax2.run cl q in
  check_ids "PaX2 under duplicated resolutions" oracle r;
  let tr = r.Run_result.trace in
  Alcotest.(check bool) "duplicate recorded" true
    (events_with
       (function
         | Trace.Message
             { kind = Trace.Resolution; status = Trace.Duplicated; _ } ->
             true
         | _ -> false)
       tr);
  Alcotest.(check bool) "the spurious copy was billed" true
    (r.Run_result.report.Cluster.n_messages
    > baseline.Run_result.report.Cluster.n_messages)

(* A lost reply makes S2 replay its stage-1 visit.  The replay must be
   idempotent: same answers, same operation count, one logical visit. *)
let test_lost_reply_replay () =
  let cl, q, oracle = setup () in
  let baseline = Pax_core.Pax2.run cl q in
  Cluster.set_fault cl (Fault.lose_reply ~times:2 ~site:2 ~round:0 ());
  let r = Pax_core.Pax2.run cl q in
  check_ids "PaX2 under lost stage-1 replies" oracle r;
  let tr = r.Run_result.trace in
  (* stage 1: attempts 1 and 2 execute and lose their reply, attempt 3
     succeeds; stage 2 adds one more execution. *)
  Alcotest.(check int) "S2 executed four times" 4
    (Trace.physical_visits tr ~site:2);
  Alcotest.(check int) "but is charged two logical visits" 2
    (Trace.logical_visits tr ~site:2);
  Alcotest.(check bool) "replays marked in the trace" true
    (events_with
       (function Trace.Visit { site = 2; replay = true; _ } -> true | _ -> false)
       tr);
  Alcotest.(check int) "visit counter unchanged"
    baseline.Run_result.report.Cluster.visits.(2)
    r.Run_result.report.Cluster.visits.(2);
  Alcotest.(check int) "replays don't double-count work"
    baseline.Run_result.report.Cluster.total_ops
    r.Run_result.report.Cluster.total_ops;
  (* Every round of both engines: one lost reply per site and round, so
     every visit replays — the final stages and PaX3's qualifier
     resolution included, whose replays the site's reply memo answers
     without re-running a kernel. *)
  List.iter
    (fun (name, engine, n_rounds) ->
      Cluster.set_fault cl Fault.none;
      let clean = engine cl q in
      Cluster.set_fault cl
        (Fault.all
           (List.concat_map
              (fun round ->
                List.init (Cluster.n_sites cl) (fun site ->
                    Fault.lose_reply ~site ~round ()))
              (List.init n_rounds Fun.id)));
      let r = engine cl q in
      check_ids (name ^ " under a lost reply in every round") oracle r;
      Alcotest.(check int)
        (name ^ ": replays don't double-count work")
        clean.Run_result.report.Cluster.total_ops
        r.Run_result.report.Cluster.total_ops;
      let tr = r.Run_result.trace in
      for round = 0 to n_rounds - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "%s: round %d replayed" name round)
          true
          (events_with
             (function
               | Trace.Visit { round = r; replay = true; _ } -> r = round
               | _ -> false)
             tr)
      done)
    [
      ("PaX2", (fun cl q -> Pax_core.Pax2.run cl q), 2);
      ("PaX3", (fun cl q -> Pax_core.Pax3.run cl q), 3);
    ];
  (* The memo answers a replayed round with the very reply the first
     execution built: no kernel runs twice. *)
  let states = Pax_core.Site.states cl q in
  let call =
    Pax_wire.Wire.Pax3_stage1
      { query = q.Query.source; fids = Cluster.fragments_on cl 2 }
  in
  let first = Pax_core.Site.visit states.(2) ~round:0 call in
  Alcotest.(check bool) "a replay returns the memoized reply" true
    (Pax_core.Site.visit states.(2) ~round:0 call == first)

(* Post-hoc logical-vs-physical message accounting under duplicated
   deliveries: the paper's communication bound is stated over logical
   messages and bytes, so those must be immune to a fault plan that
   duplicates every resolution message, while the physical counters
   bill every transmission. *)
let test_duplicated_accounting () =
  let cl, q, oracle = setup () in
  let clean = Pax_core.Pax2.run cl q in
  let clean_tr = clean.Run_result.trace in
  Cluster.set_fault cl
    (Fault.duplicate_message (fun c -> c.Fault.m_kind = Trace.Resolution));
  let r = Pax_core.Pax2.run cl q in
  check_ids "answers unchanged" oracle r;
  let tr = r.Run_result.trace in
  let dups =
    List.length
      (List.filter
         (function
           | Trace.Message { status = Trace.Duplicated; _ } -> true
           | _ -> false)
         (Trace.events tr))
  in
  Alcotest.(check bool) "some resolutions duplicated" true (dups > 0);
  Alcotest.(check int) "logical messages immune to duplication"
    (Trace.logical_messages clean_tr)
    (Trace.logical_messages tr);
  Alcotest.(check int) "each duplicate bills one extra transmission"
    (Trace.logical_messages tr + dups)
    (Trace.physical_messages tr);
  Alcotest.(check int) "logical resolution bytes immune"
    (Trace.logical_bytes clean_tr ~kind:Trace.Resolution)
    (Trace.logical_bytes tr ~kind:Trace.Resolution);
  Alcotest.(check bool) "physical resolution bytes billed double" true
    (Trace.physical_bytes tr ~kind:Trace.Resolution
    > Trace.logical_bytes tr ~kind:Trace.Resolution)

(* Delayed deliveries are still single transmissions: physical equals
   logical everywhere; only the delay is recorded. *)
let test_delayed_accounting () =
  let cl, q, oracle = setup () in
  Cluster.set_fault cl
    (Fault.delay_message ~seconds:0.01 (fun c ->
         c.Fault.m_kind = Trace.Vectors));
  let r = Pax_core.Pax2.run cl q in
  check_ids "answers unchanged under delays" oracle r;
  let tr = r.Run_result.trace in
  Alcotest.(check bool) "delays recorded" true
    (events_with
       (function
         | Trace.Message { status = Trace.Delayed _; _ } -> true | _ -> false)
       tr);
  Alcotest.(check int) "a delayed message is one transmission"
    (Trace.logical_messages tr)
    (Trace.physical_messages tr);
  List.iter
    (fun kind ->
      Alcotest.(check int)
        ("physical = logical bytes: " ^ Trace.kind_name kind)
        (Trace.logical_bytes tr ~kind)
        (Trace.physical_bytes tr ~kind))
    [ Trace.Query; Trace.Vectors; Trace.Resolution; Trace.Answers ]

(* Replayed visits (lost replies) never inflate the logical message
   log: retransmissions carry attempt > 1 and are excluded. *)
let test_replay_accounting () =
  let cl, q, oracle = setup () in
  let clean = Pax_core.Pax2.run cl q in
  let clean_tr = clean.Run_result.trace in
  Cluster.set_fault cl (Fault.lose_reply ~times:2 ~site:2 ~round:0 ());
  let r = Pax_core.Pax2.run cl q in
  check_ids "answers unchanged under replays" oracle r;
  let tr = r.Run_result.trace in
  Alcotest.(check bool) "the replay really happened" true
    (Trace.physical_visits tr ~site:2 > Trace.logical_visits tr ~site:2);
  Alcotest.(check int) "logical visits match the clean run"
    (Trace.logical_visits clean_tr ~site:2)
    (Trace.logical_visits tr ~site:2);
  Alcotest.(check int) "logical control bytes match the clean run"
    (Trace.logical_control_bytes clean_tr)
    (Trace.logical_control_bytes tr)

(* Message-level retry exhaustion is the same typed error. *)
let test_message_retry_exhaustion () =
  let cl, q, _oracle = setup () in
  Cluster.set_fault cl
    (Fault.drop_message ~times:max_int (fun c ->
         c.Fault.m_kind = Trace.Vectors));
  Cluster.set_retry cl { Retry.default with Retry.max_attempts = 3 };
  (match Pax_core.Pax3.run cl q with
  | _ -> Alcotest.fail "undeliverable vectors must not yield answers"
  | exception Cluster.Site_unreachable { attempts; _ } ->
      Alcotest.(check int) "failed at the reduced budget" 3 attempts);
  Cluster.set_retry cl Retry.default

(* A message given up on is accounted after its round is recorded: the
   report still lists every round the run started. *)
let test_message_give_up_keeps_round () =
  let cl, q, _oracle = setup () in
  Cluster.set_fault cl
    (Fault.drop_message ~times:max_int (fun c ->
         c.Fault.m_kind = Trace.Vectors));
  Cluster.set_retry cl { Retry.default with Retry.max_attempts = 3 };
  (match Pax_core.Pax3.run cl q with
  | _ -> Alcotest.fail "undeliverable vectors must not yield answers"
  | exception Cluster.Site_unreachable _ -> ());
  Alcotest.(check int) "every started round is in the report"
    (Trace.rounds (Cluster.trace cl))
    (List.length (Cluster.report cl).Cluster.rounds);
  Cluster.set_retry cl Retry.default

(* ------------------------------------------------------------------ *)
(* Visit accounting under retries (the sites_holding / visits audit)  *)
(* ------------------------------------------------------------------ *)

let ft =
  let c = H.Data.clientele () in
  H.Data.clientele_ftree c

(* One visit per (site, round) even when the caller names a site twice
   — sites_holding already dedups, and run_round must too. *)
let test_duplicate_site_in_round () =
  let cl = Cluster.one_site_per_fragment ft in
  H.Rounds.install cl (fun s ~round:_ -> s);
  let results = H.Rounds.run cl ~label:"r" ~sites:[ 1; 1; 2; 1 ] in
  Alcotest.(check int) "each site ran once" 2 (List.length results);
  let r = Cluster.report cl in
  Alcotest.(check int) "site 1 charged once" 1 r.Cluster.visits.(1)

(* Retries re-deliver to the same site without inflating the charge. *)
let test_retry_visit_accounting () =
  let cl = Cluster.one_site_per_fragment ft in
  Cluster.set_fault cl
    (Fault.all
       [
         Fault.lose_reply ~times:2 ~site:1 ~round:0 ();
         Fault.crash_site ~down_for:1 ~site:2 ~round:0 ();
       ]);
  let executions = Array.make (Cluster.n_sites cl) 0 in
  H.Rounds.install cl (fun s ~round:_ ->
      executions.(s) <- executions.(s) + 1;
      0);
  ignore (H.Rounds.run cl ~label:"r" ~sites:[ 0; 1; 2 ]);
  let r = Cluster.report cl in
  Alcotest.(check int) "site 1 re-executed" 3 executions.(1);
  Alcotest.(check int) "site 1 charged once" 1 r.Cluster.visits.(1);
  Alcotest.(check int) "site 2 charged once despite crash" 1
    r.Cluster.visits.(2);
  Alcotest.(check int) "retries surfaced in the report" 3 r.Cluster.retries;
  let tr = Cluster.trace cl in
  Alcotest.(check int) "one logical visit at site 1" 1
    (Trace.logical_visits tr ~site:1);
  Alcotest.(check int) "one logical visit at site 2" 1
    (Trace.logical_visits tr ~site:2);
  Alcotest.(check int) "three physical executions at site 1" 3
    (Trace.physical_visits tr ~site:1)

(* sites_holding charges a multi-fragment site once. *)
let test_sites_holding_dedup () =
  let cl = Cluster.create ~ftree:ft ~n_sites:2 ~assign:(fun _ -> 1) () in
  Alcotest.(check (list int)) "all fragments, one site" [ 1 ]
    (Cluster.sites_holding cl [ 0; 1; 2; 3; 4 ])

let () =
  Alcotest.run "fault"
    [
      ( "golden",
        [
          Alcotest.test_case "drop stage-1 vectors" `Quick
            test_drop_stage1_vectors;
          Alcotest.test_case "crash mid-stage-2" `Quick test_crash_mid_stage2;
          Alcotest.test_case "permanent crash" `Quick test_permanent_crash;
          Alcotest.test_case "duplicate resolution" `Quick
            test_duplicate_resolution;
          Alcotest.test_case "lost reply replay" `Quick test_lost_reply_replay;
          Alcotest.test_case "message retry exhaustion" `Quick
            test_message_retry_exhaustion;
          Alcotest.test_case "message give-up keeps its round" `Quick
            test_message_give_up_keeps_round;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "duplicated deliveries" `Quick
            test_duplicated_accounting;
          Alcotest.test_case "delayed deliveries" `Quick
            test_delayed_accounting;
          Alcotest.test_case "replayed visits" `Quick test_replay_accounting;
          Alcotest.test_case "duplicate site in round" `Quick
            test_duplicate_site_in_round;
          Alcotest.test_case "retries charge one visit" `Quick
            test_retry_visit_accounting;
          Alcotest.test_case "sites_holding dedups" `Quick
            test_sites_holding_dedup;
        ] );
    ]
