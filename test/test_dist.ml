(* The cluster simulator's accounting: placement, visits, rounds,
   parallel vs total aggregation, message classification. *)

module Tree = Pax_xml.Tree
module Fragment = Pax_frag.Fragment
module Cluster = Pax_dist.Cluster
module Wire = Pax_wire.Wire
module H = Test_helpers

let ft =
  let c = H.Data.clientele () in
  H.Data.clientele_ftree c

let test_placement () =
  let cl = Cluster.create ~ftree:ft ~n_sites:2 ~assign:(fun fid -> fid mod 2) () in
  Alcotest.(check int) "two sites" 2 (Cluster.n_sites cl);
  Alcotest.(check int) "F3 on site 1" 1 (Cluster.site_of cl 3);
  Alcotest.(check (list int)) "site 0 fragments" [ 0; 2; 4 ]
    (Cluster.fragments_on cl 0);
  Alcotest.(check (list int)) "sites holding {1,3}" [ 1 ]
    (Cluster.sites_holding cl [ 1; 3 ]);
  Alcotest.(check (list int)) "sites holding all" [ 0; 1 ]
    (Cluster.sites_holding cl [ 0; 1; 2; 3; 4 ])

let test_bad_placement_rejected () =
  match Cluster.create ~ftree:ft ~n_sites:2 ~assign:(fun _ -> 7) () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range site must be rejected"

let test_visits_and_rounds () =
  let cl = Cluster.one_site_per_fragment ft in
  H.Rounds.install cl (fun s ~round:_ -> s);
  ignore (H.Rounds.run cl ~label:"r1" ~sites:[ 0; 1; 2 ]);
  ignore (H.Rounds.run cl ~label:"r2" ~sites:[ 1 ]);
  let r = Cluster.report cl in
  Alcotest.(check int) "site 1 visited twice" 2 r.Cluster.visits.(1);
  Alcotest.(check int) "site 3 never" 0 r.Cluster.visits.(3);
  Alcotest.(check int) "max visits" 2 r.Cluster.max_visits;
  Alcotest.(check (list string)) "round labels" [ "r1"; "r2" ] r.Cluster.rounds

let test_ops_aggregation () =
  let cl = Cluster.one_site_per_fragment ft in
  (* Each site reports its work; the parse charges it to that site. *)
  H.Rounds.install cl (fun s ~round ->
      if round = 1 then 5 else if s = 0 then 10 else 25);
  let parse s n = Cluster.add_ops cl ~site:s n in
  ignore (H.Rounds.run_parsed ~parse cl ~label:"work" ~sites:[ 0; 1 ]);
  ignore (H.Rounds.run_parsed ~parse cl ~label:"more" ~sites:[ 0 ]);
  Cluster.coord cl ~label:"c" (fun () -> Cluster.add_ops cl ~site:(-1) 3);
  let r = Cluster.report cl in
  (* parallel = max(10,25) + max(5) + coord 3; total = 10+25+5+3 *)
  Alcotest.(check int) "parallel ops" 33 r.Cluster.parallel_ops;
  Alcotest.(check int) "total ops" 43 r.Cluster.total_ops

let test_message_classification () =
  let cl = Cluster.one_site_per_fragment ft in
  Cluster.send cl ~src:Cluster.Coordinator ~dst:(Cluster.Site 0)
    ~kind:Cluster.Query ~bytes:10 ~label:"q";
  Cluster.send cl ~src:(Cluster.Site 0) ~dst:Cluster.Coordinator
    ~kind:Cluster.Vectors ~bytes:20 ~label:"v";
  Cluster.send cl ~src:Cluster.Coordinator ~dst:(Cluster.Site 0)
    ~kind:Cluster.Resolution ~bytes:30 ~label:"r";
  Cluster.send cl ~src:(Cluster.Site 0) ~dst:Cluster.Coordinator
    ~kind:Cluster.Answers ~bytes:40 ~label:"a";
  Cluster.send cl ~src:(Cluster.Site 0) ~dst:Cluster.Coordinator
    ~kind:Cluster.Tree_data ~bytes:50 ~label:"t";
  let r = Cluster.report cl in
  Alcotest.(check int) "control" 60 r.Cluster.control_bytes;
  Alcotest.(check int) "answers" 40 r.Cluster.answer_bytes;
  Alcotest.(check int) "tree" 50 r.Cluster.tree_bytes;
  Alcotest.(check int) "count" 5 r.Cluster.n_messages;
  Alcotest.(check bool) "net time positive" true (r.Cluster.net_seconds > 0.)

let test_reset () =
  let cl = Cluster.one_site_per_fragment ft in
  H.Rounds.install cl (fun _ ~round:_ -> 0);
  ignore (H.Rounds.run cl ~label:"r" ~sites:[ 0 ]);
  Cluster.send cl ~src:Cluster.Coordinator ~dst:(Cluster.Site 0)
    ~kind:Cluster.Query ~bytes:10 ~label:"q";
  Cluster.reset cl;
  let r = Cluster.report cl in
  Alcotest.(check int) "no visits" 0 r.Cluster.max_visits;
  Alcotest.(check int) "no messages" 0 r.Cluster.n_messages;
  Alcotest.(check (list string)) "no rounds" [] r.Cluster.rounds

(* The section sizes accounting charges. *)
let test_measures () =
  let query s = Wire.section_bytes (Wire.Query s) in
  Alcotest.(check bool) "query bytes grow with |Q|" true
    (query "a/b[c]/d" < query "a/b[c and d/e]/f//g");
  let open Pax_bool in
  Alcotest.(check bool) "formula vector bytes" true
    (Wire.section_bytes
       (Wire.Vectors [| Formula.true_; Formula.var (Var.Qual (1, 2)) |])
    > 0);
  Alcotest.(check int) "bool array bytes: header + varint + 2 bytes" 7
    (Wire.section_bytes (Wire.Resolution (Bits.of_array (Array.make 16 true))));
  let b = Tree.builder () in
  Alcotest.(check bool) "answers bytes" true
    (Wire.section_bytes
       (Wire.Answers [ Wire.answer_of_node (Tree.leaf b "x" "hello") ])
    > 8)

(* Accounted traffic, pinned: engine x query -> control, answer and tree
   bytes of the report, and the run's logical messages per kind (query,
   vectors, resolution, answers, tree data).  XPath engines run on the
   paper's clientele placement; reachability on a small 3-fragment graph
   over 2 sites.  A change to how traffic is accounted must leave every
   row as it is. *)
let golden_traffic =
  [
    ("pax2", "//stock/code", 120, 79, 0, [ 4; 4; 3; 3; 0 ]);
    ("pax2-xa", "//stock/code", 100, 84, 0, [ 4; 4; 0; 4; 0 ]);
    ("pax3", "//stock/code", 120, 79, 0, [ 4; 4; 3; 3; 0 ]);
    ("pax3-xa", "//stock/code", 100, 84, 0, [ 4; 4; 0; 4; 0 ]);
    ("naive", "//stock/code", 0, 0, 424, [ 0; 0; 0; 0; 4 ]);
    ("pax2", "client[country/text() = \"US\"]//stock/qt", 282, 46, 0, [ 4; 9; 3; 2; 0 ]);
    ("pax2-xa", "client[country/text() = \"US\"]//stock/qt", 282, 46, 0, [ 4; 9; 3; 2; 0 ]);
    ("pax3", "client[country/text() = \"US\"]//stock/qt", 474, 46, 0, [ 8; 9; 7; 2; 0 ]);
    ("pax3-xa", "client[country/text() = \"US\"]//stock/qt", 474, 46, 0, [ 8; 9; 7; 2; 0 ]);
    ("naive", "client[country/text() = \"US\"]//stock/qt", 0, 0, 424, [ 0; 0; 0; 0; 4 ]);
    ("pax2", "//broker[//stock/code/text() = \"GOOG\"]/name", 409, 58, 0, [ 4; 9; 7; 3; 0 ]);
    ("pax2-xa", "//broker[//stock/code/text() = \"GOOG\"]/name", 394, 58, 0, [ 4; 9; 6; 3; 0 ]);
    ("pax3", "//broker[//stock/code/text() = \"GOOG\"]/name", 574, 58, 0, [ 8; 9; 6; 3; 0 ]);
    ("pax3-xa", "//broker[//stock/code/text() = \"GOOG\"]/name", 556, 58, 0, [ 8; 9; 4; 3; 0 ]);
    ("naive", "//broker[//stock/code/text() = \"GOOG\"]/name", 0, 0, 424, [ 0; 0; 0; 0; 4 ]);
    ("pax2", "client/name", 92, 43, 0, [ 4; 4; 0; 1; 0 ]);
    ("pax2-xa", "client/name", 39, 43, 0, [ 1; 3; 0; 1; 0 ]);
    ("pax3", "client/name", 92, 43, 0, [ 4; 4; 0; 1; 0 ]);
    ("pax3-xa", "client/name", 39, 43, 0, [ 1; 3; 0; 1; 0 ]);
    ("naive", "client/name", 0, 0, 424, [ 0; 0; 0; 0; 4 ]);
    ("pax2", "//*", 93, 522, 0, [ 4; 4; 5; 4; 0 ]);
    ("pax2-xa", "//*", 60, 527, 0, [ 4; 4; 0; 5; 0 ]);
    ("pax3", "//*", 88, 522, 0, [ 4; 4; 4; 4; 0 ]);
    ("pax3-xa", "//*", 60, 527, 0, [ 4; 4; 0; 5; 0 ]);
    ("naive", "//*", 0, 0, 424, [ 0; 0; 0; 0; 4 ]);
    ("pax2", "//nothing", 86, 0, 0, [ 4; 4; 0; 0; 0 ]);
    ("pax2-xa", "//nothing", 84, 0, 0, [ 4; 4; 0; 0; 0 ]);
    ("pax3", "//nothing", 86, 0, 0, [ 4; 4; 0; 0; 0 ]);
    ("pax3-xa", "//nothing", 84, 0, 0, [ 4; 4; 0; 0; 0 ]);
    ("naive", "//nothing", 0, 0, 424, [ 0; 0; 0; 0; 4 ]);
    ("parbox", "//stock/code/text() = \"GOOG\"", 260, 0, 0, [ 4; 5; 0; 0; 0 ]);
    ("parbox", "client[country/text() = \"US\"]", 205, 0, 0, [ 4; 5; 0; 0; 0 ]);
    ("parbox", "//nothing", 167, 0, 0, [ 4; 5; 0; 0; 0 ]);
    (* One batch of every query of the pax2 rows. *)
    ("batch", "*", 1082, 748, 0, [ 24; 34; 18; 13; 0 ]);
    ("batch-xa", "*", 1004, 758, 0, [ 24; 33; 9; 15; 0 ]);
    ("reach", "reach 0 5", 59, 0, 0, [ 2; 3; 0; 0; 0 ]);
    ("reach", "reach 4 7", 59, 0, 0, [ 2; 3; 0; 0; 0 ]);
    ("reach", "reach 5 0", 62, 0, 0, [ 2; 3; 0; 0; 0 ]);
  ]

let logical_per_kind cl =
  List.map
    (fun k ->
      List.length
        (List.filter
           (function
             | Pax_dist.Trace.Message m -> m.attempt = 1 && m.kind = k
             | _ -> false)
           (Pax_dist.Trace.events (Cluster.trace cl))))
    [ Cluster.Query; Vectors; Resolution; Answers; Tree_data ]

let golden_graph =
  Pax_graph.Gfrag.partition ~n:8
    ~edges:
      [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 2); (6, 7); (7, 0); (3, 6) ]
    ~owner:[| 0; 0; 1; 1; 2; 2; 0; 1 |]

let run_golden engine q =
  let xpath () = H.Data.clientele_cluster (H.Data.clientele ()) in
  let of_result cl (r : Pax_core.Run_result.t) =
    (cl, r.Pax_core.Run_result.report)
  in
  let queries () =
    List.filter_map
      (fun (e, q, _, _, _, _) ->
        if e = "pax2" then Some (Pax_xpath.Query.of_string q) else None)
      golden_traffic
  in
  match engine with
  | "pax2" | "pax2-xa" | "pax3" | "pax3-xa" ->
      let annotations = Filename.check_suffix engine "-xa" in
      let run =
        if String.starts_with ~prefix:"pax2" engine then Pax_core.Pax2.run
        else Pax_core.Pax3.run
      in
      let cl = xpath () in
      of_result cl (run ~annotations cl (Pax_xpath.Query.of_string q))
  | "naive" ->
      let cl = xpath () in
      of_result cl (Pax_core.Naive.run cl (Pax_xpath.Query.of_string q))
  | "parbox" ->
      let cl = xpath () in
      (cl, snd (Pax_core.Parbox.eval_string cl q))
  | "batch" | "batch-xa" ->
      let cl = xpath () in
      let annotations = engine = "batch-xa" in
      let b = Pax_core.Batch.run ~annotations cl (queries ()) in
      (cl, b.Pax_core.Batch.report)
  | "reach" ->
      let cl =
        Cluster.create_abstract ~n_frags:3 ~n_sites:2
          ~assign:(fun f -> f mod 2)
          ()
      in
      let rq = Result.get_ok (Pax_graph.Reach.parse golden_graph q) in
      (cl, snd (Pax_graph.Reach.eval golden_graph cl rq))
  | e -> Alcotest.failf "golden table: unknown engine %s" e

let test_golden_traffic () =
  List.iter
    (fun (engine, q, control, answer, tree, per_kind) ->
      let cl, r = run_golden engine q in
      let name what = Printf.sprintf "%s %s: %s" engine q what in
      Alcotest.(check int) (name "control bytes") control
        r.Cluster.control_bytes;
      Alcotest.(check int) (name "answer bytes") answer r.Cluster.answer_bytes;
      Alcotest.(check int) (name "tree bytes") tree r.Cluster.tree_bytes;
      Alcotest.(check (list int))
        (name "logical messages per kind")
        per_kind (logical_per_kind cl))
    golden_traffic

(* Cost next to traffic: for every XPath row above but naive's, the
   run's round labels, per-site visits, total ops and parallel ops. *)
let golden_cost =
  [
    ("pax2", "//stock/code", [ "stage1"; "stage2" ], [ 1; 1; 2; 2 ], 149, 88);
    ("pax2-xa", "//stock/code", [ "stage1"; "stage2" ], [ 1; 1; 1; 1 ], 145, 85);
    ("pax3", "//stock/code", [ "stage2"; "stage3" ], [ 1; 1; 2; 2 ], 204, 99);
    ("pax3-xa", "//stock/code", [ "stage2"; "stage3" ], [ 1; 1; 1; 1 ], 200, 96);
    ("pax2", "client[country/text() = \"US\"]//stock/qt", [ "stage1"; "stage2" ], [ 1; 1; 2; 2 ], 327, 208);
    ("pax2-xa", "client[country/text() = \"US\"]//stock/qt", [ "stage1"; "stage2" ], [ 1; 1; 2; 2 ], 327, 208);
    ("pax3", "client[country/text() = \"US\"]//stock/qt", [ "stage1"; "stage2"; "stage3" ], [ 2; 2; 3; 3 ], 730, 342);
    ("pax3-xa", "client[country/text() = \"US\"]//stock/qt", [ "stage1"; "stage2"; "stage3" ], [ 2; 2; 3; 3 ], 730, 342);
    ("pax2", "//broker[//stock/code/text() = \"GOOG\"]/name", [ "stage1"; "stage2" ], [ 2; 2; 1; 2 ], 914, 437);
    ("pax2-xa", "//broker[//stock/code/text() = \"GOOG\"]/name", [ "stage1"; "stage2" ], [ 2; 2; 1; 1 ], 913, 437);
    ("pax3", "//broker[//stock/code/text() = \"GOOG\"]/name", [ "stage1"; "stage2"; "stage3" ], [ 2; 3; 2; 3 ], 1281, 611);
    ("pax3-xa", "//broker[//stock/code/text() = \"GOOG\"]/name", [ "stage1"; "stage2"; "stage3" ], [ 2; 2; 2; 2 ], 1279, 610);
    ("pax2", "client/name", [ "stage1"; "stage2" ], [ 1; 1; 1; 1 ], 72, 57);
    ("pax2-xa", "client/name", [ "stage1"; "stage2" ], [ 1; 0; 0; 0 ], 57, 57);
    ("pax3", "client/name", [ "stage2"; "stage3" ], [ 1; 1; 1; 1 ], 147, 69);
    ("pax3-xa", "client/name", [ "stage2"; "stage3" ], [ 1; 0; 0; 0 ], 69, 69);
    ("pax2", "//*", [ "stage1"; "stage2" ], [ 1; 2; 2; 2 ], 220, 106);
    ("pax2-xa", "//*", [ "stage1"; "stage2" ], [ 1; 1; 1; 1 ], 194, 90);
    ("pax3", "//*", [ "stage2"; "stage3" ], [ 1; 2; 2; 2 ], 176, 88);
    ("pax3-xa", "//*", [ "stage2"; "stage3" ], [ 1; 1; 1; 1 ], 150, 72);
    ("pax2", "//nothing", [ "stage1"; "stage2" ], [ 1; 1; 1; 1 ], 72, 57);
    ("pax2-xa", "//nothing", [ "stage1"; "stage2" ], [ 1; 1; 1; 1 ], 72, 57);
    ("pax3", "//nothing", [ "stage2"; "stage3" ], [ 1; 1; 1; 1 ], 150, 72);
    ("pax3-xa", "//nothing", [ "stage2"; "stage3" ], [ 1; 1; 1; 1 ], 150, 72);
    ("parbox", "//stock/code/text() = \"GOOG\"", [ "parbox" ], [ 1; 1; 1; 1 ], 672, 322);
    ("parbox", "client[country/text() = \"US\"]", [ "parbox" ], [ 1; 1; 1; 1 ], 576, 276);
    ("parbox", "//nothing", [ "parbox" ], [ 1; 1; 1; 1 ], 384, 184);
    ("batch", "*", [ "stage1"; "stage2" ], [ 2; 2; 2; 2 ], 1754, 952);
    ("batch-xa", "*", [ "stage1"; "stage2" ], [ 2; 2; 2; 2 ], 1708, 933);
  ]

let test_golden_cost () =
  List.iter
    (fun (engine, q, rounds, visits, total, parallel) ->
      let _, r = run_golden engine q in
      let name what = Printf.sprintf "%s %s: %s" engine q what in
      Alcotest.(check (list string)) (name "rounds") rounds r.Cluster.rounds;
      Alcotest.(check (list int))
        (name "visits per site") visits
        (Array.to_list r.Cluster.visits);
      Alcotest.(check int) (name "total ops") total r.Cluster.total_ops;
      Alcotest.(check int) (name "parallel ops") parallel r.Cluster.parallel_ops)
    golden_cost

let () =
  Alcotest.run "dist"
    [
      ( "cluster",
        [
          Alcotest.test_case "placement" `Quick test_placement;
          Alcotest.test_case "bad placement" `Quick test_bad_placement_rejected;
          Alcotest.test_case "visits and rounds" `Quick test_visits_and_rounds;
          Alcotest.test_case "ops aggregation" `Quick test_ops_aggregation;
          Alcotest.test_case "message kinds" `Quick test_message_classification;
          Alcotest.test_case "reset" `Quick test_reset;
        ] );
      ("measure", [ Alcotest.test_case "byte estimates" `Quick test_measures ]);
      ( "traffic",
        [
          Alcotest.test_case "golden table" `Quick test_golden_traffic;
          Alcotest.test_case "golden cost table" `Quick test_golden_cost;
        ] );
    ]
