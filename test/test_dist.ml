(* The cluster simulator's accounting: placement, visits, rounds,
   parallel vs total aggregation, message classification. *)

module Tree = Pax_xml.Tree
module Fragment = Pax_frag.Fragment
module Cluster = Pax_dist.Cluster
module Measure = Pax_dist.Measure
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

let test_measures () =
  let q = Pax_xpath.Query.of_string "a/b[c]/d" in
  Alcotest.(check bool) "query bytes grow with |Q|" true
    (Measure.query q < Measure.query (Pax_xpath.Query.of_string "a/b[c and d/e]/f//g"));
  let open Pax_bool in
  Alcotest.(check bool) "formula vector bytes" true
    (Measure.formula_array [| Formula.true_; Formula.var (Var.Qual (1, 2)) |] > 0);
  Alcotest.(check int) "bool array bytes: header + varint + 2 bytes" 7
    (Measure.bool_array (Array.make 16 true));
  let b = Tree.builder () in
  Alcotest.(check bool) "answers bytes" true
    (Measure.answers [ Tree.leaf b "x" "hello" ] > 8)

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
    ]
