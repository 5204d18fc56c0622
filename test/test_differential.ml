(* Differential oracle: on random trees, random fragmentations, random
   placements and random class-X queries, PaX2 (NA/XA), PaX3 (NA/XA)
   and the ParBoX-composed Boolean evaluation all agree with the
   centralized answer — both on a well-behaved network and under a
   randomly seeded fault plan, where each engine must either return the
   identical answer-id set or fail with the typed
   [Cluster.Site_unreachable]; a wrong answer is a bug either way.
   The emitted trace is checked too: logical visits within the paper's
   bound, and no tree data beyond answer elements ever shipped.

   The default counts keep `dune runtest` fast; `dune build @slow`
   reruns the suite with PAX_QCHECK_COUNT=2000 (see test/dune). *)

module Tree = Pax_xml.Tree
module Ast = Pax_xpath.Ast
module Query = Pax_xpath.Query
module Semantics = Pax_xpath.Semantics
module Cluster = Pax_dist.Cluster
module Fault = Pax_dist.Fault
module Trace = Pax_dist.Trace
module Run_result = Pax_core.Run_result
module H = Test_helpers
module G = QCheck.Gen

let count n =
  match Sys.getenv_opt "PAX_QCHECK_COUNT" with
  | Some s -> (try int_of_string s with _ -> n)
  | None -> n

(* A scenario plus a fault-plan seed. *)
let arbitrary_faulty =
  QCheck.make
    ~print:(fun (s, seed) ->
      Printf.sprintf "fault seed %d\n%s" seed (H.Gen.print_scenario s))
    G.(pair H.Gen.scenario (int_bound 1_000_000))

let engines =
  [
    ("PaX2-NA", (fun cl q -> Pax_core.Pax2.run cl q), 2);
    ("PaX2-XA", (fun cl q -> Pax_core.Pax2.run ~annotations:true cl q), 2);
    ("PaX3-NA", (fun cl q -> Pax_core.Pax3.run cl q), 3);
    ("PaX3-XA", (fun cl q -> Pax_core.Pax3.run ~annotations:true cl q), 3);
  ]

(* The engine result must match the centralized ids exactly; under a
   fault plan the typed failure is also legal, anything else is not.
   When a service delay is installed it must show up in the timing
   accounting — at least [delay] per logical visit — without touching
   the answer. *)
let check_engine ~fault ~delay ~expected name run bound cl q =
  match (run cl q : Run_result.t) with
  | r ->
      let report = r.Run_result.report in
      let visits = Array.fold_left ( + ) 0 report.Cluster.visits in
      if report.Cluster.total_seconds < delay *. float_of_int visits then
        QCheck.Test.fail_reportf
          "%s: service delay unaccounted: %d visits x %.3fs but total %.6fs"
          name visits delay report.Cluster.total_seconds
      else if r.Run_result.answer_ids <> expected then
        QCheck.Test.fail_reportf "%s: expected [%s], got [%s]" name
          (String.concat ";" (List.map string_of_int expected))
          (String.concat ";"
             (List.map string_of_int r.Run_result.answer_ids))
      else begin
        let tr = Run_result.trace_exn r in
        if Trace.max_logical_visits tr > bound then
          QCheck.Test.fail_reportf "%s: %d logical visits > %d" name
            (Trace.max_logical_visits tr)
            bound
        else if Trace.logical_bytes tr ~kind:Trace.Tree_data <> 0 then
          QCheck.Test.fail_reportf "%s: shipped non-answer tree data" name
        else true
      end
  | exception Cluster.Site_unreachable _ ->
      if fault then true
      else QCheck.Test.fail_reportf "%s: unreachable without faults" name

(* ParBoX composition: the query's path as a Boolean query at the root,
   checked against the set semantics of the same composed AST. *)
let check_parbox ~fault (s : H.Gen.scenario) =
  let qual = Ast.QPath s.H.Gen.s_query.Ast.path in
  let composed =
    { Ast.absolute = false; path = Ast.Qualified (Ast.Empty, qual) }
  in
  let expected = Semantics.eval_ids composed s.H.Gen.s_doc.Tree.root <> [] in
  match Pax_core.Parbox.eval s.H.Gen.s_cluster qual with
  | b, _report ->
      b = expected
      || QCheck.Test.fail_reportf "ParBoX: expected %b, got %b" expected b
  | exception Cluster.Site_unreachable _ ->
      fault
      || QCheck.Test.fail_reportf "ParBoX: unreachable without faults"

let differential ~fault (s, seed) =
  let cl = s.H.Gen.s_cluster in
  Cluster.set_fault cl
    (if fault then
       Fault.seeded ~drop:0.12 ~dup:0.08 ~delay:0.05 ~lose:0.1 ~crash:0.15
         ~seed ()
     else Fault.none);
  (* Half the faulted schedules also charge a per-visit service delay:
     the axes must compose (the delay changes timing accounting only,
     never answers or visit counts). *)
  let delay = if fault && seed mod 2 = 0 then 0.001 else 0. in
  Cluster.set_service_delay cl delay;
  let q = Query.of_ast s.H.Gen.s_query in
  let expected = Pax_core.Centralized.eval_ids q s.H.Gen.s_doc.Tree.root in
  List.for_all
    (fun (name, run, bound) ->
      check_engine ~fault ~delay ~expected name run bound cl q)
    engines
  && check_parbox ~fault s

let make_test name ~count:n ~fault =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:(count n) arbitrary_faulty
       (differential ~fault))

(* ------------------------------------------------------------------ *)
(* Sockets x domains                                                  *)
(* ------------------------------------------------------------------ *)

(* With a socket transport installed, a domain pool parallelizes the
   parsing of visit replies (Cluster.run_round).  That must be
   invisible: a run with domains > 1 is bit-identical to the
   sequential run in every deterministic observable — answers,
   per-site visits, rounds, trace events, logical messages, ops and
   accounted bytes.  Forked servers over loopback Unix sockets, under
   an alarm so a hang kills the test, not the suite. *)

module Fragment = Pax_frag.Fragment
module Sockio = Pax_net.Sockio
module Server = Pax_net.Server
module Client = Pax_net.Client

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

let net_queries =
  [
    "//person[profile/education]";
    "//regions/*/item/name";
    "/site/open_auctions/open_auction[bidder]";
  ]

let with_net_cluster ~domains f =
  let doc = Pax_xmark.Xmark.doc ~seed:4 ~total_nodes:2500 ~n_sites:4 in
  let ft =
    Fragment.fragmentize doc ~cuts:(Fragment.cuts_by_tag doc ~tag:"site")
  in
  let n_sites = 4 in
  let cl = Pax_dist.Placement.cluster_round_robin ft ~n_sites in
  Cluster.set_domains cl domains;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pax_diff_net_%d_%d" (Unix.getpid ())
         (Random.int 100000))
  in
  Sys.mkdir dir 0o755;
  let addrs =
    Array.init n_sites (fun site ->
        Sockio.Unix_path (Filename.concat dir (Printf.sprintf "s%d.sock" site)))
  in
  let site_frags site =
    List.map
      (fun fid -> (fid, (Fragment.fragment ft fid).Fragment.root))
      (Cluster.fragments_on cl site)
  in
  let pids =
    Array.to_list
      (Array.mapi
         (fun site addr -> Server.spawn ~addr ~frags:(site_frags site) ())
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
    (fun () -> f cl)

(* Everything deterministic a run exposes; seconds excluded (and
   measured socket bytes only asserted present — run ids baked into
   frames vary across runs, so byte streams need not repeat). *)
let net_obs cl (r : Run_result.t) =
  let report = r.Run_result.report in
  if report.Cluster.measured_bytes = None then
    Alcotest.fail "run did not go over the socket transport";
  ( r.Run_result.answer_ids,
    Array.to_list report.Cluster.visits,
    report.Cluster.rounds,
    report.Cluster.total_ops,
    report.Cluster.control_bytes + report.Cluster.answer_bytes
    + report.Cluster.tree_bytes,
    Option.map Trace.events r.Run_result.trace,
    Cluster.messages cl )

let test_socket_domains () =
  with_timeout 120 (fun () ->
      let collect ~domains =
        with_net_cluster ~domains (fun cl ->
            List.concat_map
              (fun qs ->
                let q = Query.of_string qs in
                List.map
                  (fun (name, run, _) ->
                    ((name, qs), net_obs cl (run cl q)))
                  engines)
              net_queries)
      in
      let seq = collect ~domains:1 in
      let par = collect ~domains:4 in
      List.iter2
        (fun ((name, qs), o_seq) ((_, _), o_par) ->
          if o_seq <> o_par then
            Alcotest.failf "%s on %s: domains=4 diverges from sequential" name
              qs)
        seq par)

(* Backend parity under fault plans: socket rounds walk the same
   per-site fates as in-process rounds, so on the same placement and
   plan a socket run and an in-process run agree on answers, visits,
   retries, trace events and the message log — or both fail with the
   same [Site_unreachable] after the same trace.  The answer nodes
   themselves match too: both backends build them from the site's
   image, so an inner element such as a [person] comes back in the
   same shape from either. *)
let parity_seeds = [ 1; 2; 3; 5; 8; 13; 21; 34 ]

let test_socket_fault_parity () =
  with_timeout 120 (fun () ->
      with_net_cluster ~domains:1 (fun cl_net ->
          let cl_mem =
            Cluster.create ~domains:1 ~ftree:(Cluster.ftree cl_net)
              ~n_sites:(Cluster.n_sites cl_net)
              ~assign:(Cluster.site_of cl_net) ()
          in
          let outcome run cl q =
            match (run cl q : Run_result.t) with
            | r ->
                let report = r.Run_result.report in
                Ok
                  ( (r.Run_result.answer_ids, r.Run_result.answers),
                    Array.to_list report.Cluster.visits,
                    report.Cluster.retries,
                    Trace.events (Cluster.trace cl),
                    Cluster.messages cl )
            | exception Cluster.Site_unreachable { site; stage; attempts } ->
                Error ((site, stage, attempts), Trace.events (Cluster.trace cl))
          in
          List.iter
            (fun seed ->
              let plan =
                Fault.seeded ~drop:0.12 ~dup:0.08 ~delay:0.05 ~lose:0.1
                  ~crash:0.15 ~seed ()
              in
              Cluster.set_fault cl_net plan;
              Cluster.set_fault cl_mem plan;
              List.iter
                (fun qs ->
                  let q = Query.of_string qs in
                  List.iter
                    (fun (name, run, _) ->
                      let what =
                        Printf.sprintf "%s on %s, seed %d" name qs seed
                      in
                      match (outcome run cl_net q, outcome run cl_mem q) with
                      | ( Ok ((a, ns), v, r, ev, m),
                          Ok ((a', ns'), v', r', ev', m') ) ->
                          Alcotest.(check (list int)) (what ^ ": answers") a' a;
                          Alcotest.(check bool)
                            (what ^ ": answer nodes")
                            true
                            (List.equal Tree.equal_structure ns ns');
                          Alcotest.(check (list int)) (what ^ ": visits") v' v;
                          Alcotest.(check int) (what ^ ": retries") r' r;
                          Alcotest.(check bool)
                            (what ^ ": trace") true (ev = ev');
                          Alcotest.(check bool)
                            (what ^ ": messages") true (m = m')
                      | Error e, Error e' ->
                          Alcotest.(check bool) (what ^ ": same failure") true
                            (e = e')
                      | Ok _, Error _ | Error _, Ok _ ->
                          Alcotest.failf "%s: only one backend failed" what)
                    engines)
                net_queries)
            parity_seeds))

(* ------------------------------------------------------------------ *)
(* Mid-run migration axis                                             *)
(* ------------------------------------------------------------------ *)

(* A concurrent 16-query workload over forked socket servers, run as
   two 8-query waves with one fragment live-migrated between them
   (docs/SHARDING.md).  Against a no-migration control run on fresh
   identical servers:
   - the pre-move wave is bit-identical in every observable;
   - the post-move wave keeps answers and audit verdicts bit-identical
     — migration must never change what a query returns or whether the
     guarantee auditor passes;
   - the post-move wave's visit vectors match an in-process control
     run under the post-move placement: placement legitimately
     redistributes visits, the migration machinery itself must not. *)

module Coordinator = Pax_serve.Coordinator
module Engines = Pax_core.Engines
module Pe = Pax_engine.Pe
module Ptable = Pax_shard.Ptable
module Migrate = Pax_shard.Migrate

let migration_queries =
  [
    "//person[profile/education]";
    "//person/profile/age";
    "//regions/*/item/name";
    "//person[profile/interest/@category]/name";
    "/site/open_auctions/open_auction[bidder]";
    "//person/name";
    "//open_auction/bidder";
    "//person[profile/age]/name";
  ]

(* Half pax2, half pax3: both engine families cross the migration. *)
let migration_eqs =
  List.concat_map
    (fun q -> [ ("pax2", q); ("pax3", q) ])
    migration_queries

let mig_obs (o : Pe.outcome) =
  ( Array.to_list o.Pe.answer_keys,
    Array.to_list o.Pe.report.Cluster.visits,
    o.Pe.audit.Pax_obs.Audit.pass )

(* Submit a whole wave, then collect — the waves are concurrent. *)
let mig_wave coord eqs =
  let tickets =
    List.mapi
      (fun i (engine, q) ->
        let source = Printf.sprintf "client-%d" (i mod 4) in
        match Coordinator.submit ~engine ~source coord q with
        | Ok tk -> (q, tk)
        | Error e ->
            Alcotest.failf "%s rejected: %s" q (Coordinator.error_message e))
      eqs
  in
  List.map
    (fun (q, tk) ->
      match Coordinator.await tk with
      | Ok o -> mig_obs o
      | Error e -> Alcotest.failf "%s raised: %s" q (Printexc.to_string e))
    tickets

let mig_ft () =
  let doc = Pax_xmark.Xmark.doc ~seed:4 ~total_nodes:2500 ~n_sites:4 in
  Fragment.fragmentize doc ~cuts:(Fragment.cuts_by_tag doc ~tag:"site")

let mig_n_sites = 4

let with_mig_servers ft ~assign f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pax_mig_net_%d_%d" (Unix.getpid ())
         (Random.int 100000))
  in
  Sys.mkdir dir 0o755;
  let addrs =
    Array.init mig_n_sites (fun site ->
        Sockio.Unix_path (Filename.concat dir (Printf.sprintf "s%d.sock" site)))
  in
  let site_frags site =
    List.filter_map
      (fun fid ->
        if assign fid = site then
          Some (fid, (Fragment.fragment ft fid).Fragment.root)
        else None)
      (List.init (Fragment.n_fragments ft) Fun.id)
  in
  let pids =
    Array.to_list
      (Array.mapi
         (fun site addr -> Server.spawn ~addr ~frags:(site_frags site) ())
         addrs)
  in
  let mux = Client.create ~timeout:20. ~addrs () in
  Fun.protect
    ~finally:(fun () ->
      Client.shutdown_sites mux;
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
    (fun () -> f mux)

let mig_mounts ft table =
  [
    Coordinator.mount ~table
      (Engines.pax2 ft ~n_sites:mig_n_sites ~assign:(Ptable.assign table));
    Coordinator.mount ~table
      (Engines.pax3 ft ~n_sites:mig_n_sites ~assign:(Ptable.assign table));
  ]

(* Two waves over fresh servers; [migrate] moves one fragment between
   them.  Returns both waves and the post-workload placement. *)
let mig_workload ~migrate =
  let ft = mig_ft () in
  let n_frags = Fragment.n_fragments ft in
  let table =
    Ptable.create ~n_frags ~n_sites:mig_n_sites
      ~assign:(fun fid -> fid mod mig_n_sites)
      ()
  in
  with_mig_servers ft ~assign:(Ptable.assign table) (fun mux ->
      let coord =
        Coordinator.create ~max_inflight:8 (Coordinator.Sockets mux)
          (mig_mounts ft table)
      in
      let w1 = mig_wave coord migration_eqs in
      if migrate then begin
        let fid = n_frags / 2 in
        let dst = (Ptable.site_of table fid + 1) mod mig_n_sites in
        match Migrate.move ~mux ~ft ~table ~fid ~dst () with
        | Ok o ->
            Alcotest.(check int) "move bumped the epoch" 1 o.Migrate.mv_epoch
        | Error e -> Alcotest.failf "migration failed: %s" e
      end;
      let w2 = mig_wave coord migration_eqs in
      Coordinator.close coord;
      (w1, w2, Array.init n_frags (Ptable.site_of table)))

let test_migration_axis () =
  with_timeout 300 (fun () ->
      let c1, c2, _ = mig_workload ~migrate:false in
      let m1, m2, post = mig_workload ~migrate:true in
      List.iteri
        (fun i ((a_ans, a_vis, a_pass), (b_ans, b_vis, b_pass)) ->
          let _, q = List.nth migration_eqs i in
          Alcotest.(check (list int))
            (Printf.sprintf "pre-move %s: answers" q)
            a_ans b_ans;
          Alcotest.(check (list int))
            (Printf.sprintf "pre-move %s: visits" q)
            a_vis b_vis;
          Alcotest.(check bool)
            (Printf.sprintf "pre-move %s: audit" q)
            a_pass b_pass)
        (List.combine c1 m1);
      List.iteri
        (fun i ((a_ans, _, a_pass), (b_ans, _, b_pass)) ->
          let _, q = List.nth migration_eqs i in
          Alcotest.(check (list int))
            (Printf.sprintf "post-move %s: answers" q)
            a_ans b_ans;
          Alcotest.(check bool)
            (Printf.sprintf "post-move %s: audit" q)
            a_pass b_pass;
          Alcotest.(check bool)
            (Printf.sprintf "post-move %s: auditor passes" q)
            true b_pass)
        (List.combine c2 m2);
      (* The post-move visit vectors are exactly what the post-move
         placement dictates: an in-process run under that placement is
         bit-identical in every observable (transport invariance). *)
      let ft = mig_ft () in
      let table =
        Ptable.create ~n_frags:(Array.length post) ~n_sites:mig_n_sites
          ~assign:(fun fid -> post.(fid))
          ()
      in
      let ctrl =
        Coordinator.create ~max_inflight:1 Coordinator.In_process
          (mig_mounts ft table)
      in
      List.iteri
        (fun i (engine, q) ->
          match Coordinator.run ~engine ctrl q with
          | Ok o ->
              let c_ans, c_vis, c_pass = mig_obs o in
              let m_ans, m_vis, m_pass = List.nth m2 i in
              Alcotest.(check (list int))
                (Printf.sprintf "control %s: answers" q)
                c_ans m_ans;
              Alcotest.(check (list int))
                (Printf.sprintf "control %s: visits" q)
                c_vis m_vis;
              Alcotest.(check bool)
                (Printf.sprintf "control %s: audit" q)
                c_pass m_pass
          | Error e ->
              Alcotest.failf "control %s rejected: %s" q
                (Coordinator.error_message e))
        migration_eqs;
      Coordinator.close ctrl)

let () =
  Alcotest.run "differential"
    [
      ( "oracle",
        [
          make_test "all engines = centralized (clean network)" ~count:150
            ~fault:false;
          make_test "all engines = centralized or typed failure (faults)"
            ~count:250 ~fault:true;
          (* Forks servers, so it must precede the domains=4 case:
             OCaml 5 forbids Unix.fork once domains have been created. *)
          Alcotest.test_case
            "sockets: live migration between waves is invisible" `Quick
            test_migration_axis;
          Alcotest.test_case "sockets: fault plans = in-process, bit for bit"
            `Quick test_socket_fault_parity;
          Alcotest.test_case "sockets: domains=4 = sequential, bit for bit"
            `Quick test_socket_domains;
        ] );
    ]
