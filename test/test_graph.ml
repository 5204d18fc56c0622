(* The graph fragment store and the distributed reachability engine,
   in-process: partitioning invariants, the per-fragment local partial
   evaluation, the coordinator fixpoint against the centralized BFS
   reference, and the Fan/Wang/Wu guarantee audit.  The socket side of
   the same oracle lives in test_reach_differential.ml. *)

module Formula = Pax_bool.Formula
module Var = Pax_bool.Var
module Gfrag = Pax_graph.Gfrag
module Bfs = Pax_graph.Bfs
module Reach = Pax_graph.Reach
module Cluster = Pax_dist.Cluster
module Pe = Pax_engine.Pe
module H = Test_helpers
module G = QCheck.Gen

let count n =
  match Sys.getenv_opt "PAX_QCHECK_COUNT" with
  | Some s -> (try int_of_string s with _ -> n)
  | None -> n

(* A 3-fragment chain: 0→1→2→3→4→5, two nodes per fragment.  Cross
   edges 1→2 and 3→4 make nodes 2 and 4 the only entries. *)
let chain () =
  Gfrag.partition ~n:6
    ~edges:[ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5) ]
    ~owner:[| 0; 0; 1; 1; 2; 2 |]

let test_partition_basics () =
  let g = chain () in
  Alcotest.(check int) "fragments" 3 (Gfrag.n_fragments g);
  Alcotest.(check int) "nodes" 6 g.Gfrag.n_nodes;
  Alcotest.(check int) "edges" 5 g.Gfrag.n_edges;
  Alcotest.(check int) "owner of 3" 1 (Gfrag.owner_of g 3);
  let f0 = Gfrag.fragment g 0 and f1 = Gfrag.fragment g 1 in
  Alcotest.(check (array int)) "frag0 owns" [| 0; 1 |] f0.Gfrag.gf_nodes;
  Alcotest.(check (array int)) "frag0 entries" [||] f0.Gfrag.gf_entries;
  Alcotest.(check (array int)) "frag1 entries" [| 2 |] f1.Gfrag.gf_entries;
  Alcotest.(check int) "|Vf|" 2 g.Gfrag.n_entries;
  (* The cross edge 1→2 is known to both sides: frag0 carries node 2's
     coordinates, frag1 lists it as an entry. *)
  Alcotest.(check (list (pair int (pair int int))))
    "frag0 ext" [ (2, (1, 0)) ]
    (Array.to_list f0.Gfrag.gf_ext)

let test_partition_dedup () =
  let g =
    Gfrag.partition ~n:3
      ~edges:[ (0, 1); (0, 1); (1, 1); (2, 0); (0, 1) ]
      ~owner:[| 0; 0; 1 |]
  in
  Alcotest.(check int) "deduped edges" 3 g.Gfrag.n_edges

let test_partition_invalid () =
  Alcotest.check_raises "node out of range"
    (Invalid_argument "Gfrag.partition: edge endpoint out of range")
    (fun () ->
      ignore (Gfrag.partition ~n:3 ~edges:[ (0, 7) ] ~owner:[| 0; 0; 0 |]))

let test_query_text () =
  Alcotest.(check string) "print" "reach 3 12" (Gfrag.query_string ~src:3 ~dst:12);
  Alcotest.(check (option (pair int int)))
    "parse" (Some (3, 12))
    (Gfrag.parse_query "reach 3 12");
  Alcotest.(check (option (pair int int)))
    "reject" None (Gfrag.parse_query "reach x 12")

let test_local_eval () =
  let g = chain () in
  let f0 = Gfrag.fragment g 0 in
  (* src 0 lives in frag0, is not an entry: one trailing start slot. *)
  Alcotest.(check int) "starts" 1 (Gfrag.n_starts f0 ~src:0);
  Alcotest.(check int) "src slot" 0 (Gfrag.src_slot f0 ~src:0);
  let vec, _ops = Gfrag.local_eval f0 ~src:0 ~dst:5 in
  Alcotest.(check bool)
    "escape residual is the entry variable" true
    (Formula.equal vec.(0) (Formula.var (Var.Qual (1, 0))));
  (* An owned dst short-circuits to True without any variable. *)
  let vec, _ops = Gfrag.local_eval f0 ~src:0 ~dst:1 in
  Alcotest.(check (option bool)) "owned dst" (Some true)
    (Formula.to_bool vec.(0));
  (* A start with no owned path out is constant False. *)
  let f2 = Gfrag.fragment g 2 in
  let vec, _ops = Gfrag.local_eval f2 ~src:5 ~dst:0 in
  Alcotest.(check (option bool))
    "dead end" (Some false)
    (Formula.to_bool vec.(Gfrag.src_slot f2 ~src:5))

let mk_cluster ?transport (gs : H.Gen.gscenario) =
  Cluster.create_abstract ?transport ~n_frags:gs.H.Gen.g_n_frags
    ~n_sites:gs.H.Gen.g_n_sites
    ~assign:(fun fid -> gs.H.Gen.g_assign.(fid))
    ()

let partition_of (gs : H.Gen.gscenario) =
  Gfrag.partition ~n:gs.H.Gen.g_n ~edges:gs.H.Gen.g_edges
    ~owner:gs.H.Gen.g_owner

let test_fixpoint_chain () =
  let g = chain () in
  let cl = Cluster.create_abstract ~n_frags:3 ~n_sites:3 ~assign:Fun.id () in
  let run src dst =
    let q =
      match Reach.parse g (Gfrag.query_string ~src ~dst) with
      | Ok q -> q
      | Error e -> Alcotest.fail e
    in
    Cluster.reset cl;
    fst (Reach.eval g cl q)
  in
  Alcotest.(check bool) "0 reaches 5" true (run 0 5);
  Alcotest.(check bool) "5 not back to 0" false (run 5 0);
  Alcotest.(check bool) "reflexive" true (run 4 4)

let test_parse_ranges () =
  let g = chain () in
  (match Reach.parse g "reach 0 6" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "dst out of range accepted");
  match Reach.parse g "reach 0" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed accepted"

(* One visit per site, every run, by construction: the single
   round visits each site once and the fixpoint is coordinator-only. *)
let test_audit_chain () =
  let g = chain () in
  let cl = Cluster.create_abstract ~n_frags:3 ~n_sites:3 ~assign:Fun.id () in
  let q =
    match Reach.parse g "reach 0 5" with Ok q -> q | Error e -> Alcotest.fail e
  in
  Cluster.reset cl;
  let _ans, report = Reach.eval g cl q in
  let a = Reach.audit g cl report in
  if not a.Pax_obs.Audit.pass then
    Alcotest.failf "audit failed:@.%a" (fun ppf () ->
        Pax_obs.Audit.pp ppf a)
      ();
  Alcotest.(check int) "three bounds" 3
    (List.length (Pax_obs.Audit.bounds a))

(* The oracle, in-process: distributed answer = centralized BFS, and
   the audit passes, on every random scenario. *)
let oracle (gs : H.Gen.gscenario) =
  let g = partition_of gs in
  let cl = mk_cluster gs in
  let src = gs.H.Gen.g_src and dst = gs.H.Gen.g_dst in
  let q =
    match Reach.parse g (Gfrag.query_string ~src ~dst) with
    | Ok q -> q
    | Error e -> QCheck.Test.fail_reportf "parse: %s" e
  in
  Cluster.reset cl;
  let got, report = Reach.eval g cl q in
  let expected =
    Bfs.reach ~n:gs.H.Gen.g_n ~edges:gs.H.Gen.g_edges ~src ~dst
  in
  if got <> expected then
    QCheck.Test.fail_reportf "reach %d %d: distributed %b, BFS %b" src dst got
      expected
  else begin
    let a = Reach.audit g cl report in
    a.Pax_obs.Audit.pass
    || QCheck.Test.fail_reportf "audit failed on a correct answer"
  end

(* The same scenarios through the Pe seam: the engine's outcome must
   match a direct eval bit for bit. *)
let oracle_engine (gs : H.Gen.gscenario) =
  let g = partition_of gs in
  let pe =
    Reach.engine g ~n_sites:gs.H.Gen.g_n_sites
      ~assign:(fun fid -> gs.H.Gen.g_assign.(fid))
  in
  let text = Gfrag.query_string ~src:gs.H.Gen.g_src ~dst:gs.H.Gen.g_dst in
  let o = Pe.run_text pe text in
  let expected =
    Bfs.reach ~n:gs.H.Gen.g_n ~edges:gs.H.Gen.g_edges ~src:gs.H.Gen.g_src
      ~dst:gs.H.Gen.g_dst
  in
  if o.Pe.answer_keys <> (if expected then [| 1 |] else [||]) then
    QCheck.Test.fail_reportf "engine keys disagree with BFS %b" expected
  else
    o.Pe.audit.Pax_obs.Audit.pass
    || QCheck.Test.fail_reportf "engine audit failed"

let qtest name ~count:n prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:(count n) H.Gen.arbitrary_gscenario prop)

let () =
  Alcotest.run "graph"
    [
      ( "fragment store",
        [
          Alcotest.test_case "partition basics" `Quick test_partition_basics;
          Alcotest.test_case "edge dedup" `Quick test_partition_dedup;
          Alcotest.test_case "invalid input" `Quick test_partition_invalid;
          Alcotest.test_case "query text round-trip" `Quick test_query_text;
          Alcotest.test_case "local partial evaluation" `Quick test_local_eval;
        ] );
      ( "reachability",
        [
          Alcotest.test_case "fixpoint on the chain" `Quick test_fixpoint_chain;
          Alcotest.test_case "parse range checks" `Quick test_parse_ranges;
          Alcotest.test_case "audit on the chain" `Quick test_audit_chain;
          qtest "distributed = BFS + audit (in-process)" ~count:200 oracle;
          qtest "Pe engine = BFS (in-process)" ~count:100 oracle_engine;
        ] );
    ]
