(* The Pe seam is a zero-cost repackaging: every XPath engine run
   through [Pax_core.Engines] must be bit-identical to calling the
   engine directly — same answer ids, same per-site visit vectors, same
   structured trace events, same audit report — on random scenarios,
   clean and under seeded fault plans.  A golden section pins the FT1
   visit-count matrix (test_visits_matrix.ml) as observed through the
   seam, so a refactor of the wrappers cannot silently change engine
   behaviour. *)

module Tree = Pax_xml.Tree
module Ast = Pax_xpath.Ast
module Query = Pax_xpath.Query
module Fragment = Pax_frag.Fragment
module Cluster = Pax_dist.Cluster
module Fault = Pax_dist.Fault
module Trace = Pax_dist.Trace
module Run_result = Pax_core.Run_result
module Engines = Pax_core.Engines
module Pe = Pax_engine.Pe
module Xmark = Pax_xmark.Xmark
module H = Test_helpers
module G = QCheck.Gen

let count n =
  match Sys.getenv_opt "PAX_QCHECK_COUNT" with
  | Some s -> (try int_of_string s with _ -> n)
  | None -> n

(* The deterministic projection of a run: everything except wall-clock
   seconds (which no two runs share). *)
type obs = {
  o_keys : int list;
  o_visits : int list;
  o_max_visits : int;
  o_retries : int;
  o_rounds : string list;
  o_control : int;
  o_answer : int;
  o_tree : int;
  o_messages : int;
  o_ops : int;
  o_events : Trace.event list option;
  o_audit : Pax_obs.Audit.report;
}

let obs ~keys ~(report : Cluster.report) ~trace ~audit =
  {
    o_keys = keys;
    o_visits = Array.to_list report.Cluster.visits;
    o_max_visits = report.Cluster.max_visits;
    o_retries = report.Cluster.retries;
    o_rounds = report.Cluster.rounds;
    o_control = report.Cluster.control_bytes;
    o_answer = report.Cluster.answer_bytes;
    o_tree = report.Cluster.tree_bytes;
    o_messages = report.Cluster.n_messages;
    o_ops = report.Cluster.total_ops;
    o_events = Option.map Trace.events trace;
    o_audit = audit;
  }

(* Both sides either produce an observation or fail with the typed
   [Site_unreachable]; the comparison covers which. *)
type run = Completed of obs | Unreachable

let mk_fault seed =
  Fault.seeded ~drop:0.12 ~dup:0.08 ~delay:0.05 ~lose:0.1 ~crash:0.15 ~seed ()

(* One engine three ways: its registry name, its Pe constructor, and
   the pre-seam direct call path.  The direct path is exactly what the
   code before the seam did: run, then audit the Run_result. *)
let direct_xpath ~annotations runner ~ename cl text =
  match
    let q = Query.of_string text in
    let r : Run_result.t = runner ~annotations cl q in
    obs ~keys:r.Run_result.answer_ids ~report:r.Run_result.report
      ~trace:r.Run_result.trace
      ~audit:
        (Pax_core.Guarantee.audit ~engine:ename ~ftree:(Cluster.ftree cl) r)
  with
  | o -> Completed o
  | exception Cluster.Site_unreachable _ -> Unreachable

let direct_parbox cl text =
  match
    let qual = Pax_xpath.Parse.qual text in
    let answer, report = Pax_core.Parbox.eval cl qual in
    let rq =
      Query.of_ast ~source:text
        {
          Ast.absolute = false;
          path = Ast.Qualified (Ast.Empty, qual);
        }
    in
    let r =
      Run_result.make ~trace:(Cluster.trace cl) ~query:rq ~answers:[] ~report ()
    in
    obs
      ~keys:(if answer then [ 1 ] else [])
      ~report
      ~trace:(Some (Cluster.trace cl))
      ~audit:
        (Pax_core.Guarantee.audit ~engine:"parbox" ~ftree:(Cluster.ftree cl) r)
  with
  | o -> Completed o
  | exception Cluster.Site_unreachable _ -> Unreachable

let pax2_run ~annotations cl q = Pax_core.Pax2.run ~annotations cl q
let pax3_run ~annotations cl q = Pax_core.Pax3.run ~annotations cl q

let engines =
  [
    ("pax2", Engines.pax2, direct_xpath ~annotations:false pax2_run ~ename:"pax2");
    ( "pax2-xa",
      Engines.pax2_xa,
      direct_xpath ~annotations:true pax2_run ~ename:"pax2-xa" );
    ("pax3", Engines.pax3, direct_xpath ~annotations:false pax3_run ~ename:"pax3");
    ( "pax3-xa",
      Engines.pax3_xa,
      direct_xpath ~annotations:true pax3_run ~ename:"pax3-xa" );
  ]

(* [Pe.run_text] with the cluster its [tune] saw, whose trace is the
   run's until the cluster runs again. *)
let run_capturing pe ?(tune = ignore) text =
  let cluster = ref None in
  let o =
    Pe.run_text pe
      ~tune:(fun cl ->
        cluster := Some cl;
        tune cl)
      text
  in
  (o, Cluster.trace (Option.get !cluster))

let pe_run pe ~placement:(ftree, n_sites, assign) ~fault text =
  let pe = pe ftree ~n_sites ~assign in
  match run_capturing pe ~tune:(fun cl -> Cluster.set_fault cl fault) text with
  | (o : Pe.outcome), trace ->
      Completed
        (obs
           ~keys:(Array.to_list o.Pe.answer_keys)
           ~report:o.Pe.report ~trace:(Some trace) ~audit:o.Pe.audit)
  | exception Cluster.Site_unreachable _ -> Unreachable

let explain ppf = function
  | Unreachable -> Format.fprintf ppf "Unreachable"
  | Completed o ->
      Format.fprintf ppf
        "keys=[%s] visits=[%s] retries=%d msgs=%d ops=%d ctrl=%d ans=%d \
         rounds=[%s] events=%s audit_pass=%b"
        (String.concat ";" (List.map string_of_int o.o_keys))
        (String.concat ";" (List.map string_of_int o.o_visits))
        o.o_retries o.o_messages o.o_ops o.o_control o.o_answer
        (String.concat ";" o.o_rounds)
        (match o.o_events with
        | None -> "-"
        | Some es -> string_of_int (List.length es))
        o.o_audit.Pax_obs.Audit.pass

(* The property: for every engine, Pe-run = direct run, bit for bit,
   on the same placement under the same (independently instantiated,
   identically seeded) fault plan. *)
let seam ~fault ((s : H.Gen.scenario), seed) =
  let cl = s.H.Gen.s_cluster in
  let ftree = Cluster.ftree cl in
  let n_sites = Cluster.n_sites cl in
  let assign fid = Cluster.site_of cl fid in
  let placement = (ftree, n_sites, assign) in
  let text = Ast.to_string s.H.Gen.s_query in
  let qual_text =
    Format.asprintf "%a" Ast.pp_qual (Ast.QPath s.H.Gen.s_query.Ast.path)
  in
  let check name via_pe direct =
    if via_pe <> direct then
      QCheck.Test.fail_reportf "%s: seam diverges@.pe:     %a@.direct: %a" name
        explain via_pe explain direct
    else true
  in
  List.for_all
    (fun (name, ctor, direct) ->
      let via_pe =
        pe_run ctor ~placement
          ~fault:(if fault then mk_fault seed else Fault.none)
          text
      in
      Cluster.set_fault cl (if fault then mk_fault seed else Fault.none);
      check name via_pe (direct cl text))
    engines
  &&
  let via_pe =
    pe_run
      (fun ftree ~n_sites ~assign -> Engines.parbox ftree ~n_sites ~assign)
      ~placement
      ~fault:(if fault then mk_fault seed else Fault.none)
      qual_text
  in
  Cluster.set_fault cl (if fault then mk_fault seed else Fault.none);
  check "parbox" via_pe (direct_parbox cl qual_text)

let arbitrary_faulty =
  QCheck.make
    ~print:(fun (s, seed) ->
      Printf.sprintf "fault seed %d\n%s" seed (H.Gen.print_scenario s))
    G.(pair H.Gen.scenario (int_bound 1_000_000))

(* Validation agrees with parsing: Pe.validate accepts what the engine
   parser accepts and reports errors for the rest, for every mounted
   engine name. *)
let test_validate () =
  let doc = Tree.doc_of_root (Tree.elem (Tree.builder ()) "a" []) in
  let ft = Fragment.fragmentize doc ~cuts:[] in
  List.iter
    (fun name ->
      let ctor = Option.get (Engines.of_name name) in
      let pe = ctor ft ~n_sites:1 ~assign:(fun _ -> 0) in
      Alcotest.(check string) ("name " ^ name) name (Pe.name pe);
      (match Pe.validate pe (if name = "parbox" then "a/b" else "//a[b]") with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s rejected a valid query: %s" name e);
      match Pe.validate pe "//a[" with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "%s accepted garbage" name)
    Engines.names

(* The FT1 golden matrix, through the seam: same layout and queries as
   test_visits_matrix.ml, asserted on the outcome's trace. *)
let test_golden_matrix () =
  let doc = Xmark.doc ~seed:4 ~total_nodes:2500 ~n_sites:4 in
  let sites = Tree.select (fun n -> n.Tree.tag = "site") doc.Tree.root in
  let cuts =
    match sites with
    | _ :: rest -> List.map (fun (n : Tree.node) -> n.Tree.id) rest
    | [] -> []
  in
  let ft = Fragment.fragmentize doc ~cuts in
  let n_sites = Fragment.n_fragments ft in
  let cases =
    [
      (Xmark.q1, "pax3", 2);
      (Xmark.q1, "pax3-xa", 1);
      (Xmark.q1, "pax2", 2);
      (Xmark.q1, "pax2-xa", 1);
      (Xmark.q3, "pax3", 3);
      (Xmark.q3, "pax3-xa", 2);
      (Xmark.q3, "pax2", 2);
      (Xmark.q3, "pax2-xa", 1);
      (Xmark.q4, "pax3", 3);
      (Xmark.q4, "pax2", 2);
    ]
  in
  List.iter
    (fun (qs, name, expected) ->
      let ctor = Option.get (Engines.of_name name) in
      let pe = ctor ft ~n_sites ~assign:Fun.id in
      let o, tr = run_capturing pe qs in
      Alcotest.(check int)
        (Printf.sprintf "%s on %s" name qs)
        expected
        (Trace.max_logical_visits tr);
      Alcotest.(check bool)
        (Printf.sprintf "%s audit on %s" name qs)
        true o.Pe.audit.Pax_obs.Audit.pass)
    cases

let qtest name ~count:n prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:(count n) arbitrary_faulty prop)

let () =
  Alcotest.run "engine_seam"
    [
      ( "seam",
        [
          Alcotest.test_case "validate = parse, all engines" `Quick
            test_validate;
          Alcotest.test_case "FT1 golden visit matrix through Pe" `Quick
            test_golden_matrix;
          qtest "Pe = direct, bit for bit (clean)" ~count:100 (seam ~fault:false);
          qtest "Pe = direct, bit for bit (faults)" ~count:150 (seam ~fault:true);
        ] );
    ]
