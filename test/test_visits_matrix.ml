(* Regression pin for the visit-count matrix of the cost table (the
   structural content of the §3.4 guarantees): exact visit counts per
   (query class, algorithm, annotations) on the flat FT1 layout, plus a
   deep-chain stress test for all engines.  The counts are asserted
   from the structured trace (logical visits) as well as from the live
   counters, and a fault-plan section checks that retries inflate
   neither the logical visit count nor the logical traffic. *)

module Tree = Pax_xml.Tree
module Query = Pax_xpath.Query
module Semantics = Pax_xpath.Semantics
module Fragment = Pax_frag.Fragment
module Cluster = Pax_dist.Cluster
module Fault = Pax_dist.Fault
module Trace = Pax_dist.Trace
module Run_result = Pax_core.Run_result
module Xmark = Pax_xmark.Xmark

(* A small FT1: root + 4 site fragments on 5 machines. *)
let cluster () =
  let doc = Xmark.doc ~seed:4 ~total_nodes:2500 ~n_sites:4 in
  let sites = Tree.select (fun n -> n.Tree.tag = "site") doc.Tree.root in
  let cuts =
    match sites with
    | _ :: rest -> List.map (fun (n : Tree.node) -> n.Tree.id) rest
    | [] -> []
  in
  Cluster.one_site_per_fragment (Fragment.fragmentize doc ~cuts)

(* Both accountings of the same quantity: the live counter and the
   post-hoc count of (site, round) pairs in the trace must agree. *)
let max_visits run annotations qs =
  let cl = cluster () in
  let r : Run_result.t = run ~annotations cl (Query.of_string qs) in
  let from_report = r.Run_result.report.Cluster.max_visits in
  let from_trace = Trace.max_logical_visits r.Run_result.trace in
  Alcotest.(check int)
    (Printf.sprintf "trace agrees with counter on %s" qs)
    from_report from_trace;
  from_report

(* The matrix, as measured and recorded in EXPERIMENTS.md. *)
let test_matrix () =
  let cases =
    [
      (* query, algo name, run, annotations, expected max visits *)
      (Xmark.q1, "PaX3-NA", Pax_core.Pax3.run, false, 2);
      (Xmark.q1, "PaX3-XA", Pax_core.Pax3.run, true, 1);
      (Xmark.q1, "PaX2-NA", Pax_core.Pax2.run, false, 2);
      (Xmark.q1, "PaX2-XA", Pax_core.Pax2.run, true, 1);
      (Xmark.q2, "PaX3-NA", Pax_core.Pax3.run, false, 2);
      (Xmark.q2, "PaX2-XA", Pax_core.Pax2.run, true, 1);
      (Xmark.q3, "PaX3-NA", Pax_core.Pax3.run, false, 3);
      (Xmark.q3, "PaX3-XA", Pax_core.Pax3.run, true, 2);
      (Xmark.q3, "PaX2-NA", Pax_core.Pax2.run, false, 2);
      (Xmark.q3, "PaX2-XA", Pax_core.Pax2.run, true, 1);
      (Xmark.q4, "PaX3-NA", Pax_core.Pax3.run, false, 3);
      (Xmark.q4, "PaX2-NA", Pax_core.Pax2.run, false, 2);
    ]
  in
  List.iter
    (fun (qs, name,
          (run : ?annotations:bool -> Cluster.t -> Query.t -> Run_result.t),
          annotations, expected) ->
      Alcotest.(check int)
        (Printf.sprintf "%s on %s" name qs)
        expected
        (max_visits (fun ~annotations cl q -> run ~annotations cl q) annotations qs))
    cases

(* A pathological 3000-deep chain: recursion depth, Dos chains and the
   streaming stack all hold up, and every engine agrees. *)
let test_deep_chain () =
  let b = Tree.builder () in
  let rec chain n = if n = 0 then Tree.leaf b "tip" "42" else Tree.elem b "link" [ chain (n - 1) ] in
  let root = Tree.elem b "root" [ chain 3000 ] in
  let doc = Tree.doc_of_root root in
  let q = Query.of_string "//link[tip]/tip" in
  let oracle = Semantics.eval_ids q.Query.ast root in
  Alcotest.(check int) "one answer at the bottom" 1 (List.length oracle);
  Alcotest.(check (list int)) "centralized" oracle (Pax_core.Centralized.eval_ids q root);
  (* Fragment the chain every ~500 nodes: a 7-deep fragment chain. *)
  let ft = Fragment.fragmentize doc ~cuts:(Fragment.cuts_by_size doc ~budget:500) in
  Alcotest.(check bool) "several fragments" true (Fragment.n_fragments ft > 3);
  let cl = Cluster.one_site_per_fragment ft in
  List.iter
    (fun (name, run) ->
      let r : Run_result.t = run cl q in
      Alcotest.(check (list int)) name oracle r.Run_result.answer_ids)
    [
      ("PaX3 deep", fun cl q -> Pax_core.Pax3.run cl q);
      ("PaX2 deep", fun cl q -> Pax_core.Pax2.run cl q);
      ("PaX2-XA deep", fun cl q -> Pax_core.Pax2.run ~annotations:true cl q);
    ];
  (* Streaming over the same chain. *)
  let stream =
    Pax_core.Stream_eval.over_string q (Pax_xml.Printer.to_string root)
  in
  Alcotest.(check int) "stream finds it too" 1
    (List.length stream.Pax_core.Stream_eval.matches);
  Alcotest.(check bool) "stream depth tracked" true
    (stream.Pax_core.Stream_eval.max_depth >= 3000)

(* Under a fault plan that forces stage-1 replays, the *logical* visit
   bound still holds — retries of a dropped reply re-deliver to the
   same (site, round) and may not inflate the count. *)
let test_bound_survives_retries () =
  let cases =
    [
      ("PaX2", (fun cl q -> Pax_core.Pax2.run cl q), 2);
      ("PaX3", (fun cl q -> Pax_core.Pax3.run cl q), 3);
    ]
  in
  List.iter
    (fun (name, run, bound) ->
      let cl = cluster () in
      Cluster.set_fault cl
        (Fault.all
           [
             Fault.lose_reply ~times:2 ~site:1 ~round:0 ();
             Fault.crash_site ~down_for:1 ~site:2 ~round:0 ();
           ]);
      let r : Run_result.t = run cl (Query.of_string Xmark.q1) in
      let tr = r.Run_result.trace in
      Alcotest.(check bool)
        (name ^ ": replays happened") true
        (Trace.physical_visits tr ~site:1 > Trace.logical_visits tr ~site:1);
      Alcotest.(check bool)
        (name ^ ": logical visits within bound") true
        (Trace.max_logical_visits tr <= bound);
      Alcotest.(check bool)
        (name ^ ": counter agrees") true
        (r.Run_result.report.Cluster.max_visits <= bound))
    cases

(* The communication side of the §6 cost model, asserted from the
   trace: control traffic (everything that is not Answers/Tree_data)
   stays within c·|Q|·|FT| logical bytes, tree data is never shipped,
   and an active fault plan changes the physical byte count but not
   the logical one. *)
let test_traffic_bound () =
  List.iter
    (fun (name, run) ->
      let q = Query.of_string Xmark.q3 in
      let cl = cluster () in
      let r : Run_result.t = run cl q in
      let tr = r.Run_result.trace in
      let budget =
        200 * Query.size q
        * Fragment.n_fragments (Cluster.ftree cl)
      in
      let clean_logical = Trace.logical_control_bytes tr in
      Alcotest.(check bool)
        (name ^ ": control bytes within c|Q||FT|") true
        (clean_logical <= budget);
      Alcotest.(check int)
        (name ^ ": no tree data shipped") 0
        (Trace.logical_bytes tr ~kind:Trace.Tree_data);
      (* Same run under dropped vectors: retransmissions are physical
         overhead only. *)
      Cluster.set_fault cl
        (Fault.drop_message (fun c -> c.Fault.m_kind = Trace.Vectors));
      let r' : Run_result.t = run cl q in
      let tr' = r'.Run_result.trace in
      Alcotest.(check int)
        (name ^ ": logical traffic unchanged by retries") clean_logical
        (Trace.logical_control_bytes tr');
      Alcotest.(check bool)
        (name ^ ": physical traffic grew") true
        (r'.Run_result.report.Cluster.control_bytes > clean_logical))
    [
      ("PaX2", fun cl q -> Pax_core.Pax2.run cl q);
      ("PaX3", fun cl q -> Pax_core.Pax3.run cl q);
    ]

let test_cluster_guard () =
  let c = Test_helpers.Data.clientele () in
  let ft = Test_helpers.Data.clientele_ftree c in
  match Cluster.create ~ftree:ft ~n_sites:0 ~assign:(fun _ -> 0) () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero sites must be rejected"

let () =
  Alcotest.run "visits_matrix"
    [
      ( "matrix",
        [
          Alcotest.test_case "visit counts per configuration" `Quick test_matrix;
          Alcotest.test_case "bounds survive retries" `Quick
            test_bound_survives_retries;
          Alcotest.test_case "traffic bound from trace" `Quick
            test_traffic_bound;
          Alcotest.test_case "deep chains" `Quick test_deep_chain;
          Alcotest.test_case "cluster guard" `Quick test_cluster_guard;
        ] );
    ]
