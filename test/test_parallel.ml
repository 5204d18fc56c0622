(* The domain-pool execution path (docs/PARALLELISM.md): a [domains:n]
   run must be observationally identical to the [domains:1] run — same
   answers, same deterministic report fields, same logical trace, byte
   for byte — with only wall-clock allowed to differ.

   Three layers:
   - unit tests of the [run_round] result-order contract (input [sites]
     order, duplicates removed), over the in-process transport with a
     test site procedure, and of [Pool] itself;
   - a qcheck differential: random scenarios evaluated by every engine
     at [domains:4] vs [domains:1], two in three under a seeded fault
     plan — plans are pure per-attempt functions, so faulted rounds run
     pooled and must stay bit-identical too;
   - a stress test hammering the pool with many rounds of deliberately
     uneven per-site workloads (set PAX_STRESS to raise the iteration
     count; `dune build @slow` does). *)

module Tree = Pax_xml.Tree
module Query = Pax_xpath.Query
module Fragment = Pax_frag.Fragment
module Cluster = Pax_dist.Cluster
module Fault = Pax_dist.Fault
module Pool = Pax_dist.Pool
module Trace = Pax_dist.Trace
module Run_result = Pax_core.Run_result
module H = Test_helpers
module G = QCheck.Gen

let stress_iters =
  match Sys.getenv_opt "PAX_STRESS" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 30)
  | None -> 30

(* ------------------------------------------------------------------ *)
(* Pool unit tests                                                    *)
(* ------------------------------------------------------------------ *)

let test_pool_map () =
  let pool = Pool.create ~domains:4 in
  let xs = Array.init 100 Fun.id in
  let ys = Pool.map pool (fun x -> x * x) xs in
  Alcotest.(check (array int)) "squares in order"
    (Array.map (fun x -> x * x) xs)
    ys;
  (* Batches are reusable back to back. *)
  let zs = Pool.map pool string_of_int xs in
  Alcotest.(check string) "second batch" "17" zs.(17);
  Pool.shutdown pool

let test_pool_first_error () =
  let pool = Pool.create ~domains:4 in
  let xs = Array.init 64 Fun.id in
  (* Several tasks fail; the re-raised exception must be the smallest
     failing index no matter which domain got there first. *)
  (match
     Pool.map pool
       (fun x -> if x mod 10 = 3 then failwith (string_of_int x) else x)
       xs
   with
  | _ -> Alcotest.fail "expected a failure"
  | exception Failure msg ->
      Alcotest.(check string) "smallest failing index" "3" msg);
  Pool.shutdown pool

let test_pool_degree_one_inline () =
  let pool = Pool.create ~domains:1 in
  let seen = ref [] in
  ignore (Pool.map pool (fun x -> seen := x :: !seen) [| 1; 2; 3 |]);
  Alcotest.(check (list int)) "inline, in order" [ 3; 2; 1 ] !seen;
  Pool.shutdown pool

(* ------------------------------------------------------------------ *)
(* run_round result-order contract                                    *)
(* ------------------------------------------------------------------ *)

(* [run_round] does not care whether a site holds fragments, so a
   one-fragment tree on [n_sites] sites is enough to drive it. *)
let bare_cluster ~domains ~n_sites =
  let ft = Fragment.fragmentize (H.Data.mini_sites ()) ~cuts:[] in
  Cluster.create ~domains ~ftree:ft ~n_sites ~assign:(fun _ -> 0) ()

let test_round_order domains () =
  let cl = bare_cluster ~domains ~n_sites:4 in
  (* Scrambled order with duplicates: the contract is dedup-preserving
     input order, for sequential and parallel paths alike. *)
  let sites = [ 3; 1; 3; 0; 2; 1; 0 ] in
  H.Rounds.install cl (fun s ~round:_ -> s * 10);
  let results = H.Rounds.run cl ~label:"order" ~sites in
  Alcotest.(check (list (pair int int)))
    (Printf.sprintf "input order, deduped (domains:%d)" domains)
    [ (3, 30); (1, 10); (0, 0); (2, 20) ]
    results

(* ------------------------------------------------------------------ *)
(* Differential: domains:4 vs domains:1                               *)
(* ------------------------------------------------------------------ *)

let engines =
  [
    ("PaX2-NA", fun cl q -> Pax_core.Pax2.run cl q);
    ("PaX2-XA", fun cl q -> Pax_core.Pax2.run ~annotations:true cl q);
    ("PaX3-NA", fun cl q -> Pax_core.Pax3.run cl q);
    ("PaX3-XA", fun cl q -> Pax_core.Pax3.run ~annotations:true cl q);
    ("Naive", fun cl q -> Pax_core.Naive.run cl q);
  ]

(* A cluster with the same fragment tree and placement at a different
   degree. *)
let reclustered ?(domains = 1) cl =
  Cluster.create ~domains ~ftree:(Cluster.ftree cl)
    ~n_sites:(Cluster.n_sites cl) ~assign:(Cluster.site_of cl) ()

let check_same_trace name t1 t4 =
  let e1 = Trace.events t1 and e4 = Trace.events t4 in
  if e1 <> e4 then
    QCheck.Test.fail_reportf "%s: traces differ\n-- domains:1 --\n%s\n-- domains:4 --\n%s"
      name
      (Format.asprintf "%a" Trace.pp t1)
      (Format.asprintf "%a" Trace.pp t4)

(* Every deterministic report field; only the wall-clock ones may
   differ between degrees. *)
let check_same_report name (r1 : Cluster.report) (r4 : Cluster.report) =
  let chk what a b =
    if a <> b then
      QCheck.Test.fail_reportf "%s: %s differs: domains:1 %s, domains:4 %s"
        name what a b
  in
  let istr = string_of_int in
  chk "parallel_ops" (istr r1.parallel_ops) (istr r4.parallel_ops);
  chk "total_ops" (istr r1.total_ops) (istr r4.total_ops);
  chk "visits"
    (String.concat ";" (List.map istr (Array.to_list r1.visits)))
    (String.concat ";" (List.map istr (Array.to_list r4.visits)));
  chk "max_visits" (istr r1.max_visits) (istr r4.max_visits);
  chk "retries" (istr r1.retries) (istr r4.retries);
  chk "rounds" (String.concat "->" r1.rounds) (String.concat "->" r4.rounds);
  chk "control_bytes" (istr r1.control_bytes) (istr r4.control_bytes);
  chk "answer_bytes" (istr r1.answer_bytes) (istr r4.answer_bytes);
  chk "tree_bytes" (istr r1.tree_bytes) (istr r4.tree_bytes);
  chk "n_messages" (istr r1.n_messages) (istr r4.n_messages)

(* A third of the seeds run fault-free; the rest under the plan the
   differential oracle uses. *)
let plan seed =
  if seed mod 3 = 0 then Fault.none
  else
    Fault.seeded ~drop:0.12 ~dup:0.08 ~delay:0.05 ~lose:0.1 ~crash:0.15 ~seed
      ()

let differential ((s : H.Gen.scenario), seed) =
  let cl1 = reclustered ~domains:1 s.H.Gen.s_cluster in
  let cl4 = reclustered ~domains:4 s.H.Gen.s_cluster in
  Cluster.set_fault cl1 (plan seed);
  Cluster.set_fault cl4 (plan seed);
  let q = Query.of_ast s.H.Gen.s_query in
  let attempt run cl =
    match (run cl q : Run_result.t) with
    | r -> Ok r
    | exception Cluster.Site_unreachable { site; stage; attempts } ->
        Error (site, stage, attempts)
  in
  List.for_all
    (fun (name, run) ->
      match (attempt run cl1, attempt run cl4) with
      | Ok r1, Ok r4 ->
          if r1.Run_result.answer_ids <> r4.Run_result.answer_ids then
            QCheck.Test.fail_reportf "%s: answers differ: [%s] vs [%s]" name
              (String.concat ";"
                 (List.map string_of_int r1.Run_result.answer_ids))
              (String.concat ";"
                 (List.map string_of_int r4.Run_result.answer_ids))
          else begin
            check_same_report name r1.Run_result.report r4.Run_result.report;
            check_same_trace name r1.Run_result.trace
              r4.Run_result.trace;
            true
          end
      | Error e1, Error e4 when e1 = e4 ->
          check_same_trace name (Cluster.trace cl1) (Cluster.trace cl4);
          true
      | _ ->
          QCheck.Test.fail_reportf
            "%s: one degree failed with Site_unreachable, the other did not \
             (or at another site/stage/attempt)"
            name)
    engines

let arbitrary_faulty =
  QCheck.make
    ~print:(fun (s, seed) ->
      Printf.sprintf "fault seed %d\n%s" seed (H.Gen.print_scenario s))
    G.(pair H.Gen.scenario (int_bound 1_000_000))

let qcheck_count n =
  match Sys.getenv_opt "PAX_QCHECK_COUNT" with
  | Some s -> ( try int_of_string s with _ -> n)
  | None -> n

let equivalence_test =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"domains:4 = domains:1 (answers, reports, traces)"
       ~count:(qcheck_count 75) arbitrary_faulty differential)

(* ------------------------------------------------------------------ *)
(* Stress: uneven workloads over many rounds                          *)
(* ------------------------------------------------------------------ *)

(* Site [s] of round [r] burns an amount of CPU that varies wildly with
   (s, r) and returns a checksum; the parallel run must deliver exactly
   the sequential results, order included, every round.  This shakes the
   pool's claiming/merge logic far harder than the engines do: many
   back-to-back barriers, skewed task sizes, and degrees above the
   physical core count. *)
let busywork ~site ~round =
  let n = 1 + ((site * 7919 + round * 104729) mod 4000) in
  let acc = ref 0 in
  for i = 1 to n do
    acc := (!acc * 31) + ((i * site) lxor round)
  done;
  !acc

let test_stress () =
  let n_sites = 8 in
  let mk domains = bare_cluster ~domains ~n_sites in
  let all_sites = List.init n_sites Fun.id in
  let run (cl : Cluster.t) =
    H.Rounds.install cl (fun site ~round -> busywork ~site ~round);
    List.init stress_iters (fun round ->
        (* Vary the site subset and its order from round to round. *)
        let sites =
          List.filter (fun s -> (s + round) mod 3 <> 0 || s = round mod n_sites)
            (if round mod 2 = 0 then all_sites else List.rev all_sites)
        in
        H.Rounds.run cl ~label:(Printf.sprintf "r%d" round) ~sites)
  in
  let seq = run (mk 1) in
  List.iter
    (fun domains ->
      let par = run (mk domains) in
      Alcotest.(check bool)
        (Printf.sprintf "stress domains:%d = sequential" domains)
        true (par = seq))
    [ 2; 4; 8; 13 ]

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map keeps input order" `Quick test_pool_map;
          Alcotest.test_case "first-index error wins" `Quick
            test_pool_first_error;
          Alcotest.test_case "degree 1 runs inline" `Quick
            test_pool_degree_one_inline;
        ] );
      ( "round order",
        [
          Alcotest.test_case "sequential: input order, deduped" `Quick
            (test_round_order 1);
          Alcotest.test_case "parallel: input order, deduped" `Quick
            (test_round_order 4);
        ] );
      ("equivalence", [ equivalence_test ]);
      ( "stress",
        [ Alcotest.test_case "uneven workloads" `Quick test_stress ] );
    ]
