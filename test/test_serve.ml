(* The serving layer, end to end:
   - Sched: typed Overloaded rejection, per-source round-robin
     fairness, exception transparency, drain-on-close;
   - Cache: generation-stamped entries, invalidation by Update.apply;
   - site servers: the per-run reply-memo table stays bounded (LRU cap)
     and Run_done evicts eagerly;
   - the tentpole differential: N queries submitted concurrently — over
     real sockets (clean) and over in-process clusters under qcheck'd
     fault plans — return bit-identical answers, visit counts and audit
     verdicts to the same queries run sequentially, cache on or off;
   - the mixed-workload differential: XPath and graph-reachability runs
     interleaved through the same scheduler and socket mux, both
     families bit-identical to sequential and passing their audits. *)

module Fragment = Pax_frag.Fragment
module Update = Pax_frag.Update
module Cluster = Pax_dist.Cluster
module Wire = Pax_wire.Wire
module Sockio = Pax_net.Sockio
module Server = Pax_net.Server
module Client = Pax_net.Client
module Sched = Pax_serve.Sched
module Cache = Pax_serve.Cache
module Feed = Pax_serve.Feed
module Coordinator = Pax_serve.Coordinator
module Pe = Pax_engine.Pe
module Engines = Pax_core.Engines
module Gfrag = Pax_graph.Gfrag
module H = Test_helpers

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

let qcount n =
  match Sys.getenv_opt "PAX_QCHECK_COUNT" with
  | Some s -> ( try int_of_string s with _ -> n)
  | None -> n

(* ------------------------------------------------------------------ *)
(* Sched                                                              *)
(* ------------------------------------------------------------------ *)

(* A gate the test holds closed while it arranges queue contents. *)
type gate = { g_lock : Mutex.t; g_cond : Condition.t; mutable g_open : bool }

let gate () = { g_lock = Mutex.create (); g_cond = Condition.create (); g_open = false }

let wait_gate g =
  Mutex.lock g.g_lock;
  while not g.g_open do
    Condition.wait g.g_cond g.g_lock
  done;
  Mutex.unlock g.g_lock

let open_gate g =
  Mutex.lock g.g_lock;
  g.g_open <- true;
  Condition.broadcast g.g_cond;
  Mutex.unlock g.g_lock

let spin_until ?(tries = 2000) pred =
  let rec go n =
    if pred () then ()
    else if n = 0 then Alcotest.fail "condition never became true"
    else begin
      Thread.yield ();
      Unix.sleepf 0.001;
      go (n - 1)
    end
  in
  go tries

let submit_exn sched ~source f =
  match Sched.submit sched ~source f with
  | Ok tk -> tk
  | Error r -> Alcotest.failf "unexpected rejection: %a" Sched.pp_rejection r

let counter_value sink name =
  match
    List.find_opt
      (fun (series, _) -> series = name)
      (Pax_obs.Metrics.pairs sink.Pax_obs.Sink.metrics)
  with
  | Some (_, v) -> v
  | None -> 0.

let test_sched_overloaded () =
  with_timeout 60 (fun () ->
      let sched = Sched.create ~max_inflight:1 ~max_queue:2 () in
      let g = gate () in
      let blocker = submit_exn sched ~source:"a" (fun () -> wait_gate g; 0) in
      (* Wait until the single worker has the blocker in flight, so the
         next two submissions sit in the queue. *)
      spin_until (fun () -> Sched.inflight sched = 1);
      let q1 = submit_exn sched ~source:"a" (fun () -> 1) in
      let q2 = submit_exn sched ~source:"a" (fun () -> 2) in
      (* Queue full: typed rejection, immediately — never a hang. *)
      (match Sched.submit sched ~source:"a" (fun () -> 3) with
      | Error (Sched.Overloaded { queued = 2; max_queue = 2; _ }) -> ()
      | Error r -> Alcotest.failf "wrong rejection: %a" Sched.pp_rejection r
      | Ok _ -> Alcotest.fail "over-queue submission must be rejected");
      open_gate g;
      Alcotest.(check int) "blocker" 0 (Result.get_ok (Sched.await blocker));
      Alcotest.(check int) "q1" 1 (Result.get_ok (Sched.await q1));
      Alcotest.(check int) "q2" 2 (Result.get_ok (Sched.await q2));
      Sched.close sched;
      match Sched.submit sched ~source:"a" (fun () -> 4) with
      | Error Sched.Closed -> ()
      | _ -> Alcotest.fail "submit after close must be Closed")

let test_sched_fairness () =
  with_timeout 60 (fun () ->
      let sched = Sched.create ~max_inflight:1 ~max_queue:16 () in
      let g = gate () in
      let order = ref [] in
      let olock = Mutex.create () in
      let job tag () =
        Mutex.lock olock;
        order := tag :: !order;
        Mutex.unlock olock
      in
      let blocker = submit_exn sched ~source:"z" (fun () -> wait_gate g) in
      spin_until (fun () -> Sched.inflight sched = 1);
      (* Source a floods first; b's jobs arrive after.  Round-robin must
         interleave them rather than drain a's FIFO first. *)
      let tks =
        List.map
          (fun (src, tag) -> submit_exn sched ~source:src (job tag))
          [ ("a", "a1"); ("a", "a2"); ("a", "a3");
            ("b", "b1"); ("b", "b2"); ("b", "b3") ]
      in
      open_gate g;
      ignore (Sched.await blocker);
      List.iter (fun tk -> ignore (Sched.await tk)) tks;
      Alcotest.(check (list string))
        "round-robin across sources"
        [ "a1"; "b1"; "a2"; "b2"; "a3"; "b3" ]
        (List.rev !order);
      Sched.close sched)

let test_sched_exception () =
  with_timeout 60 (fun () ->
      let sched = Sched.create ~max_inflight:2 () in
      let tk = submit_exn sched ~source:"a" (fun () -> failwith "boom") in
      (match Sched.await tk with
      | Error (Failure m) when m = "boom" -> ()
      | Error e -> Alcotest.failf "wrong exn: %s" (Printexc.to_string e)
      | Ok () -> Alcotest.fail "job must fail");
      (* The worker survives a raising job. *)
      let tk2 = submit_exn sched ~source:"a" (fun () -> 7) in
      Alcotest.(check int) "next job runs" 7 (Result.get_ok (Sched.await tk2));
      Sched.close sched)

let test_sched_close_drains () =
  with_timeout 60 (fun () ->
      let sched = Sched.create ~max_inflight:2 ~max_queue:64 () in
      let done_count = ref 0 in
      let dlock = Mutex.create () in
      let tks =
        List.init 20 (fun i ->
            submit_exn sched ~source:(Printf.sprintf "s%d" (i mod 3))
              (fun () ->
                Mutex.lock dlock;
                incr done_count;
                Mutex.unlock dlock))
      in
      Sched.close sched;
      Alcotest.(check int) "all admitted jobs ran" 20 !done_count;
      List.iter
        (fun tk ->
          match Sched.await tk with
          | Ok () -> ()
          | Error e -> Alcotest.failf "job failed: %s" (Printexc.to_string e))
        tks)

(* Deadline shedding: the admission estimate is queued cost over the
   worker pool plus the job's own predicted cost; an unmeetable
   deadline is a typed Deadline_infeasible with that estimate. *)
let test_sched_deadline () =
  with_timeout 60 (fun () ->
      let sink = Pax_obs.Sink.create () in
      let sched = Sched.create ~max_inflight:1 ~max_queue:4 ~sink () in
      let g = gate () in
      let blocker = submit_exn sched ~source:"a" (fun () -> wait_gate g; 0) in
      spin_until (fun () -> Sched.inflight sched = 1);
      (* One queued job with a known cost makes the estimate exact. *)
      let q1 =
        match Sched.submit sched ~source:"a" ~cost:10. (fun () -> 1) with
        | Ok tk -> tk
        | Error r -> Alcotest.failf "unexpected: %a" Sched.pp_rejection r
      in
      Alcotest.(check bool) "est_wait sees the pending cost" true
        (Sched.est_wait sched >= 10.);
      let now = Pax_obs.Clock.now () in
      (* 10s of queued cost cannot fit a 100ms deadline. *)
      (match
         Sched.submit sched ~source:"a" ~deadline:(now +. 0.1) (fun () -> 2)
       with
      | Error (Sched.Deadline_infeasible { deadline; est_latency }) ->
          Alcotest.(check bool) "echoes the deadline" true
            (deadline = now +. 0.1);
          Alcotest.(check bool) "estimate covers the queue" true
            (est_latency >= 10.)
      | Error r -> Alcotest.failf "wrong rejection: %a" Sched.pp_rejection r
      | Ok _ -> Alcotest.fail "infeasible deadline must shed");
      (* A generous deadline admits past the same queue. *)
      let q2 =
        match
          Sched.submit sched ~source:"a" ~deadline:(now +. 3600.) (fun () -> 2)
        with
        | Ok tk -> tk
        | Error r -> Alcotest.failf "unexpected: %a" Sched.pp_rejection r
      in
      open_gate g;
      Alcotest.(check int) "blocker" 0 (Result.get_ok (Sched.await blocker));
      Alcotest.(check int) "q1" 1 (Result.get_ok (Sched.await q1));
      Alcotest.(check int) "q2" 2 (Result.get_ok (Sched.await q2));
      Alcotest.(check (float 0.0)) "shed counter (deadline)" 1.
        (counter_value sink "pax_sched_shed_total{reason=\"deadline\"}");
      Sched.close sched)

(* A submission that is both over-queue and past-deadline gets the
   deadline verdict: retrying cannot help, so infeasibility is the
   actionable signal. *)
let test_sched_deadline_precedence () =
  with_timeout 60 (fun () ->
      let sched = Sched.create ~max_inflight:1 ~max_queue:1 () in
      let g = gate () in
      let blocker = submit_exn sched ~source:"a" (fun () -> wait_gate g) in
      spin_until (fun () -> Sched.inflight sched = 1);
      let q1 = submit_exn sched ~source:"a" (fun () -> ()) in
      (match
         Sched.submit sched ~source:"a"
           ~deadline:(Pax_obs.Clock.now () -. 1.)
           (fun () -> ())
       with
      | Error (Sched.Deadline_infeasible _) -> ()
      | Error r -> Alcotest.failf "wrong rejection: %a" Sched.pp_rejection r
      | Ok _ -> Alcotest.fail "past deadline must shed");
      (* The same submission without a deadline is Overloaded — with
         the measured queue-inclusive latency estimate attached. *)
      (match Sched.submit sched ~source:"a" (fun () -> ()) with
      | Error (Sched.Overloaded { queued = 1; max_queue = 1; est_latency }) ->
          Alcotest.(check bool) "estimate is non-negative" true
            (est_latency >= 0.)
      | Error r -> Alcotest.failf "wrong rejection: %a" Sched.pp_rejection r
      | Ok _ -> Alcotest.fail "full queue must reject");
      open_gate g;
      ignore (Sched.await blocker);
      ignore (Sched.await q1);
      Sched.close sched)

(* QoS shares: strict priority between classes, weighted rotation
   within one.  gold (weight 2, priority 1) drains before the default
   class; within priority 0, a (weight 2) takes two dispatches per
   rotation turn against b (weight 1). *)
let test_sched_qos () =
  with_timeout 60 (fun () ->
      let sched = Sched.create ~max_inflight:1 ~max_queue:16 () in
      Sched.configure_source sched ~source:"gold" ~weight:2 ~priority:1 ();
      Sched.configure_source sched ~source:"a" ~weight:2 ();
      let g = gate () in
      let order = ref [] in
      let olock = Mutex.create () in
      let job tag () =
        Mutex.lock olock;
        order := tag :: !order;
        Mutex.unlock olock
      in
      let blocker = submit_exn sched ~source:"z" (fun () -> wait_gate g) in
      spin_until (fun () -> Sched.inflight sched = 1);
      let tks =
        List.map
          (fun (src, tag) -> submit_exn sched ~source:src (job tag))
          [ ("a", "a1"); ("a", "a2"); ("a", "a3");
            ("b", "b1"); ("b", "b2");
            ("gold", "g1"); ("gold", "g2"); ("gold", "g3") ]
      in
      open_gate g;
      ignore (Sched.await blocker);
      List.iter (fun tk -> ignore (Sched.await tk)) tks;
      Alcotest.(check (list string))
        "priority first, then weighted rotation"
        [ "g1"; "g2"; "g3"; "a1"; "a2"; "b1"; "a3"; "b2" ]
        (List.rev !order);
      Sched.close sched)

(* ------------------------------------------------------------------ *)
(* Cache                                                              *)
(* ------------------------------------------------------------------ *)

let dummy_result fid =
  {
    Wire.fr_fid = fid;
    fr_vec = Some [| Pax_bool.Formula.true_ |];
    fr_ctxs = [];
    fr_answers = [];
    fr_cands = 0;
    fr_ops = 5;
  }

let test_cache_generation () =
  let c = H.Data.clientele () in
  let ft = H.Data.clientele_ftree c in
  let cache = Cache.create ft in
  Alcotest.(check (option reject)) "empty miss" None
    (Cache.lookup cache ~qkey:"q" ~fid:1);
  Cache.store cache ~qkey:"q" ~fid:1 (dummy_result 1);
  (match Cache.lookup cache ~qkey:"q" ~fid:1 with
  | Some fr -> Alcotest.(check int) "hit" 1 fr.Wire.fr_fid
  | None -> Alcotest.fail "fresh entry must hit");
  Alcotest.(check (option reject)) "other qkey misses" None
    (Cache.lookup cache ~qkey:"q2" ~fid:1);
  (* Bumping the generation (what Update.apply does) invalidates
     exactly that fragment's entries. *)
  Cache.store cache ~qkey:"q" ~fid:2 (dummy_result 2);
  Fragment.bump_generation ft 1;
  Alcotest.(check (option reject)) "stale entry swept" None
    (Cache.lookup cache ~qkey:"q" ~fid:1);
  (match Cache.lookup cache ~qkey:"q" ~fid:2 with
  | Some _ -> ()
  | None -> Alcotest.fail "untouched fragment must still hit");
  Alcotest.(check int) "sweep removed the stale entry" 1 (Cache.size cache);
  Cache.clear cache;
  Alcotest.(check int) "clear" 0 (Cache.size cache)

let test_cache_update_invalidates () =
  let c = H.Data.clientele () in
  let ft = H.Data.clientele_ftree c in
  let cache = Cache.create ft in
  (* Locate the fragment holding E*trade's name, warm an entry for it
     and one for another fragment. *)
  let fid, _ =
    match Update.locate ft c.H.Data.etrade_name with
    | Some x -> x
    | None -> Alcotest.fail "node not found"
  in
  let other = if fid = 0 then 1 else 0 in
  Cache.store cache ~qkey:"k" ~fid (dummy_result fid);
  Cache.store cache ~qkey:"k" ~fid:other (dummy_result other);
  (match Update.apply ft (Update.Set_text (c.H.Data.etrade_name, "Etrade")) with
  | Ok touched -> Alcotest.(check int) "update touched the fragment" fid touched
  | Error e -> Alcotest.fail (Update.error_to_string e));
  Alcotest.(check (option reject)) "edited fragment invalidated" None
    (Cache.lookup cache ~qkey:"k" ~fid);
  match Cache.lookup cache ~qkey:"k" ~fid:other with
  | Some _ -> ()
  | None -> Alcotest.fail "unedited fragment must survive the update"

(* ------------------------------------------------------------------ *)
(* Site-server memo table stays bounded                               *)
(* ------------------------------------------------------------------ *)

let test_server_memo_bound () =
  with_timeout 60 (fun () ->
      let c = H.Data.clientele () in
      let ft = H.Data.clientele_ftree c in
      let frags =
        List.init (Fragment.n_fragments ft) (fun fid ->
            (fid, (Fragment.fragment ft fid).Fragment.root))
      in
      let srv = Server.create ~max_runs:4 ~frags () in
      let dir = Filename.get_temp_dir_name () in
      let path =
        Filename.concat dir (Printf.sprintf "pax_serve_memo_%d.sock" (Unix.getpid ()))
      in
      let addr = Sockio.Unix_path path in
      let lfd = Sockio.listen addr in
      let server_thread = Thread.create (fun () -> Server.serve srv lfd) () in
      let fd = Sockio.connect addr in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.close fd with _ -> ());
          (try Unix.close lfd with _ -> ());
          (try Sys.remove path with _ -> ()))
        (fun () ->
          let rpc msg =
            Sockio.write_frame fd (Wire.encode_payload msg);
            match Sockio.read_frame ~timeout:10. fd with
            | Some payload -> Result.get_ok (Wire.decode_payload payload)
            | None -> Alcotest.fail "server closed the connection"
          in
          let visit run =
            let call =
              Wire.Pax2_stage1
                {
                  query = "//client/name";
                  frags =
                    [ { Wire.fe_fid = 1; fe_is_root = false; fe_init = None } ];
                }
            in
            match
              rpc
                (Wire.Visit_request
                   {
                     run;
                     round = 0;
                     site = 0;
                     epoch = 0;
                     label = "s1";
                     parent = None;
                     call;
                   })
            with
            | Wire.Visit_reply { reply = Ok _; _ } -> ()
            | _ -> Alcotest.fail "unexpected reply to a visit request"
          in
          (* 10 distinct runs through a cap of 4: the state table must
             never exceed the cap (each reply is processed before the
             next request is sent, so reading the size is race-free). *)
          for run = 1 to 10 do
            visit run;
            if Server.n_run_states srv > 4 then
              Alcotest.failf "run table grew to %d (cap 4)"
                (Server.n_run_states srv)
          done;
          Alcotest.(check int) "table at the LRU cap" 4
            (Server.n_run_states srv);
          (* Run_done evicts eagerly; Ping/Pong fences the check. *)
          Sockio.write_frame fd (Wire.encode_payload (Wire.Run_done { run = 10 }));
          (match rpc Wire.Ping with
          | Wire.Pong -> ()
          | _ -> Alcotest.fail "expected Pong");
          Alcotest.(check int) "Run_done evicted one run" 3
            (Server.n_run_states srv);
          (* A replayed request for an evicted run recomputes (fresh
             state), it does not fail. *)
          visit 2;
          Alcotest.(check int) "evicted run recomputed" 4
            (Server.n_run_states srv);
          Sockio.write_frame fd (Wire.encode_payload Wire.Shutdown);
          Thread.join server_thread))

(* ------------------------------------------------------------------ *)
(* The differential: concurrent = sequential                          *)
(* ------------------------------------------------------------------ *)

let queries16 =
  [
    "//person[profile/education]";
    "//person/profile/age";
    "//regions/*/item/name";
    "//person[profile/interest/@category]/name";
    "/site/open_auctions/open_auction[bidder]";
    "//item[location/text() = \"United States\"]";
    "//person/name";
    "//item/name";
    "//open_auction/bidder";
    "//person[profile]";
    "//person/emailaddress";
    "//closed_auctions/closed_auction";
    "//open_auction[initial]";
    "//regions/*/item";
    "//item/location";
    "//person[profile/age]/name";
  ]

let make_setup () =
  let doc = Pax_xmark.Xmark.doc ~seed:11 ~total_nodes:1600 ~n_sites:4 in
  Fragment.fragmentize doc ~cuts:(Fragment.cuts_by_tag doc ~tag:"site")

(* What "bit-identical" means here: answers, per-site visit counts and
   the guarantee auditor's verdict — in engine-neutral Pe terms, so the
   same check covers XPath and reachability runs. *)
type obs = {
  o_answers : int list;
  o_visits : int array;
  o_audit_pass : bool;
}

let observe (o : Pe.outcome) =
  {
    o_answers = Array.to_list o.Pe.answer_keys;
    o_visits = o.Pe.report.Cluster.visits;
    o_audit_pass = o.Pe.audit.Pax_obs.Audit.pass;
  }

let check_obs name a b =
  Alcotest.(check (list int)) (name ^ ": answers") a.o_answers b.o_answers;
  Alcotest.(check (array int)) (name ^ ": visits") a.o_visits b.o_visits;
  Alcotest.(check bool) (name ^ ": audit verdict") a.o_audit_pass b.o_audit_pass;
  Alcotest.(check bool) (name ^ ": auditor passes") true b.o_audit_pass

(* [gsite_frags site] adds graph fragments for the reachability engine
   to each site server (the mixed-workload suite); default none. *)
let with_servers ?(gsite_frags = fun _ -> []) ft ~n_sites f =
  let cl = Pax_dist.Placement.cluster_round_robin ft ~n_sites in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pax_serve_test_%d_%d" (Unix.getpid ())
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
         (fun site addr ->
           Server.spawn ~addr ~frags:(site_frags site)
             ~gfrags:(gsite_frags site) ())
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
    (fun () -> f ~mux ~proto:cl ~addrs ())

(* The standard XPath mounts over a placement prototype. *)
let xpath_mounts ft proto =
  let n_sites = Cluster.n_sites proto in
  let assign fid = Cluster.site_of proto fid in
  [
    Coordinator.mount (Engines.pax2 ft ~n_sites ~assign);
    Coordinator.mount (Engines.pax3 ft ~n_sites ~assign);
  ]

(* Queries as (engine, text) pairs: the engine-blind coordinator routes
   by mount name.  Sequential baseline awaits each run before
   submitting the next. *)
let run_sequential coord eqs =
  List.map
    (fun (engine, q) ->
      match Coordinator.run ~engine coord q with
      | Ok o -> o
      | Error e ->
          Alcotest.failf "sequential %s rejected: %s" q
            (Coordinator.error_message e))
    eqs

(* Concurrent: submit everything, then collect.  Sources rotate so the
   fair scheduler actually interleaves. *)
let run_concurrent coord eqs =
  let tickets =
    List.mapi
      (fun i (engine, q) ->
        let source = Printf.sprintf "client-%d" (i mod 4) in
        match Coordinator.submit ~engine ~source coord q with
        | Ok tk -> (q, tk)
        | Error e ->
            Alcotest.failf "concurrent %s rejected: %s" q
              (Coordinator.error_message e))
      eqs
  in
  List.map
    (fun (q, tk) ->
      match Coordinator.await tk with
      | Ok o -> o
      | Error e -> Alcotest.failf "concurrent %s raised: %s" q (Printexc.to_string e))
    tickets

let with_engine engine qs = List.map (fun q -> (engine, q)) qs

let test_sockets_differential () =
  with_timeout 300 (fun () ->
      let ft = make_setup () in
      with_servers ft ~n_sites:3 (fun ~mux ~proto ~addrs:_ () ->
          let mk_coord ~max_inflight () =
            Coordinator.create ~max_inflight (Coordinator.Sockets mux)
              (xpath_mounts ft proto)
          in
          let seq = mk_coord ~max_inflight:1 () in
          let conc = mk_coord ~max_inflight:8 () in
          List.iter
            (fun ename ->
              let eqs = with_engine ename queries16 in
              let rs = run_sequential seq eqs in
              let rc = run_concurrent conc eqs in
              List.iter2
                (fun (q, a) b ->
                  check_obs
                    (Printf.sprintf "%s %s" ename q)
                    (observe a) (observe b))
                (List.combine queries16 rs)
                rc)
            [ "pax2"; "pax3" ];
          Coordinator.close seq;
          Coordinator.close conc))

let test_sockets_differential_cached () =
  with_timeout 300 (fun () ->
      let ft = make_setup () in
      with_servers ft ~n_sites:3 (fun ~mux ~proto ~addrs:_ () ->
          let sink_s = Pax_obs.Sink.create () in
          let sink_c = Pax_obs.Sink.create () in
          let mk_coord ~cache ~max_inflight () =
            Coordinator.create ~max_inflight ~cache (Coordinator.Sockets mux)
              (xpath_mounts ft proto)
          in
          let seq = mk_coord ~cache:(Cache.create ~sink:sink_s ft) ~max_inflight:1 () in
          let conc = mk_coord ~cache:(Cache.create ~sink:sink_c ft) ~max_inflight:8 () in
          let eqs = with_engine "pax2" queries16 in
          (* Pass 1 warms each coordinator's own cache (16 distinct
             queries: entries never cross queries, so concurrent
             warm-up is race-free); pass 2 runs hot. *)
          let s1 = run_sequential seq eqs in
          let s2 = run_sequential seq eqs in
          let c1 = run_concurrent conc eqs in
          let c2 = run_concurrent conc eqs in
          List.iter2
            (fun (q, (a, a')) (b, b') ->
              check_obs ("cached cold " ^ q) (observe a) (observe b);
              check_obs ("cached hot " ^ q) (observe a') (observe b');
              (* The cache changes visits, never answers. *)
              Alcotest.(check (array int))
                ("hot answers = cold answers " ^ q)
                a.Pe.answer_keys a'.Pe.answer_keys)
            (List.combine queries16 (List.combine s1 s2))
            (List.combine c1 c2);
          List.iter
            (fun (mode, sink) ->
              Alcotest.(check bool)
                (mode ^ ": cache was exercised")
                true
                (counter_value sink "pax_cache_hits_total" > 0.))
            [ ("sequential", sink_s); ("concurrent", sink_c) ];
          Coordinator.close seq;
          Coordinator.close conc))

(* Round-robin placement over [n_sites], as the proto-cluster helpers
   build it, but usable for in-process mounts without a prototype. *)
let rr_mounts ft ~n_sites ?tune () =
  let proto = Pax_dist.Placement.cluster_round_robin ft ~n_sites in
  let assign fid = Cluster.site_of proto fid in
  [
    Coordinator.mount ?tune (Engines.pax2 ft ~n_sites ~assign);
    Coordinator.mount ?tune (Engines.pax3 ft ~n_sites ~assign);
  ]

(* Coordinator-level admission control: typed rejection under a full
   queue, all admitted runs complete. *)
let test_coordinator_overloaded () =
  with_timeout 60 (fun () ->
      let ft = make_setup () in
      let g = gate () in
      (* Stall inside per-run cluster tuning so the worker stays busy
         while the test floods the queue. *)
      let tune _ = wait_gate g in
      let coord =
        Coordinator.create ~max_inflight:1 ~max_queue:1
          Coordinator.In_process
          (rr_mounts ft ~n_sites:3 ~tune ())
      in
      let q = "//person/name" in
      let t1 = Result.get_ok (Coordinator.submit coord q) in
      spin_until (fun () -> Coordinator.inflight coord = 1);
      let t2 = Result.get_ok (Coordinator.submit coord q) in
      (match Coordinator.submit coord q with
      | Error
          (Coordinator.Rejected
             (Sched.Overloaded { queued = 1; max_queue = 1; _ })) -> ()
      | Error e -> Alcotest.failf "wrong rejection: %s" (Coordinator.error_message e)
      | Ok _ -> Alcotest.fail "full queue must reject");
      (* Deadline shedding surfaces through the coordinator's typed
         error — and outranks the full queue (retrying cannot help). *)
      (match
         Coordinator.submit ~deadline:(Pax_obs.Clock.now () -. 1.) coord q
       with
      | Error (Coordinator.Rejected (Sched.Deadline_infeasible _)) -> ()
      | Error e ->
          Alcotest.failf "past deadline: wrong error: %s"
            (Coordinator.error_message e)
      | Ok _ -> Alcotest.fail "past deadline must shed");
      (* Malformed queries are rejected before scheduling — even with a
         stalled worker and a full queue this answers immediately, and
         with a typed error, not an Overloaded. *)
      (match Coordinator.submit coord "//person[" with
      | Error (Coordinator.Bad_query _) -> ()
      | Error e ->
          Alcotest.failf "malformed query: wrong error: %s"
            (Coordinator.error_message e)
      | Ok _ -> Alcotest.fail "malformed query must be rejected");
      (match Coordinator.submit ~engine:"no-such-engine" coord q with
      | Error (Coordinator.Unknown_engine _) -> ()
      | Error e ->
          Alcotest.failf "unknown engine: wrong error: %s"
            (Coordinator.error_message e)
      | Ok _ -> Alcotest.fail "unknown engine must be rejected");
      open_gate g;
      List.iter
        (fun tk ->
          match Coordinator.await tk with
          | Ok (o : Pe.outcome) ->
              Alcotest.(check bool) "admitted run answered" true
                (o.Pe.answer_keys <> [||])
          | Error e -> Alcotest.failf "admitted run failed: %s" (Printexc.to_string e))
        [ t1; t2 ];
      Coordinator.close coord)

(* ------------------------------------------------------------------ *)
(* Cache coherence across coordinators (docs/SERVING.md)              *)
(* ------------------------------------------------------------------ *)

(* Two coordinators share the same site servers, each with its own
   replica tree, mux and warm stage cache.  An update goes through
   coordinator A: applied to A's replica, the fragment's new image
   pushed to its site, the new generation published.  The servers fan
   the event to coordinator B's mux, B's feed merges it, and B's next
   queries must be bit-identical to a cold-cache coordinator whose
   replica saw the same update — B must never serve pre-update answers
   from its warm cache.  [fault] runs the same flow under a seeded
   plan that loses visit requests and replies: the client re-sends,
   and a lost reply's resend is answered from the server's memo. *)
let test_gen_coherence ~fault () =
  let tune cl =
    if fault then
      Cluster.set_fault cl (Pax_dist.Fault.seeded ~lose:0.2 ~seed:7 ())
  in
  with_timeout 120 (fun () ->
      let cA = H.Data.clientele () in
      let ftA = H.Data.clientele_ftree cA in
      let ftB = H.Data.clientele_ftree (H.Data.clientele ()) in
      let cC = H.Data.clientele () in
      let ftC = H.Data.clientele_ftree cC in
      let n_sites = 3 in
      with_servers ftA ~n_sites (fun ~mux:muxA ~proto ~addrs () ->
          let mounts ft =
            let assign fid = Cluster.site_of proto fid in
            [ Coordinator.mount ~tune (Engines.pax2 ft ~n_sites ~assign) ]
          in
          let muxB = Client.create ~timeout:20. ~addrs () in
          let muxC = Client.create ~timeout:20. ~addrs () in
          let feedA = Feed.attach ~mux:muxA ftA in
          let sinkB = Pax_obs.Sink.create () in
          let _feedB = Feed.attach ~sink:sinkB ~mux:muxB ftB in
          let cache_sink = Pax_obs.Sink.create () in
          let coordB =
            Coordinator.create ~max_inflight:2
              ~cache:(Cache.create ~sink:cache_sink ftB)
              (Coordinator.Sockets muxB) (mounts ftB)
          in
          let qa = "//broker[name/text() = \"E*trade\"]" in
          let qb = "//client/name" in
          let run coord who q =
            match Coordinator.run coord q with
            | Ok o -> o
            | Error e ->
                Alcotest.failf "%s rejected %s: %s" who q
                  (Coordinator.error_message e)
          in
          let runB = run coordB "B" in
          (* Warm B's cache: each query twice, hot = cold. *)
          let a_pre = runB qa in
          ignore (runB qb);
          let a_pre2 = runB qa in
          let b_pre = runB qb in
          Alcotest.(check (array int)) "warm hit is identical"
            a_pre.Pe.answer_keys a_pre2.Pe.answer_keys;
          Alcotest.(check int) "E*trade found pre-update" 1
            (Array.length a_pre.Pe.answer_keys);
          (* The update goes through A. *)
          let fid =
            match
              Update.apply ftA
                (Update.Set_text (cA.H.Data.etrade_name, "Etrade"))
            with
            | Ok fid -> fid
            | Error e -> Alcotest.fail (Update.error_to_string e)
          in
          (match
             Feed.push_fragment feedA
               ~site:(Cluster.site_of proto fid)
               ~fid ~epoch:0
           with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "push_fragment: %s" e);
          Feed.publish feedA ~fids:[ fid ];
          (* B's replica hears about it through the servers' relay. *)
          spin_until (fun () ->
              Fragment.generation ftB fid = Fragment.generation ftA fid);
          Alcotest.(check bool) "B counted the event" true
            (counter_value sinkB "pax_feed_events_total" > 0.);
          Alcotest.(check bool) "B counted the invalidation" true
            (counter_value sinkB "pax_feed_invalidations_total" > 0.);
          (* B re-runs with a warm-but-invalidated cache; the reference
             is a cold-cache coordinator whose replica saw the same
             update.  (Visits may differ — B still hits for untouched
             fragments — so the check is answers + audit, not visits.) *)
          let a_post = runB qa in
          let b_post = runB qb in
          (match
             Update.apply ftC
               (Update.Set_text (cC.H.Data.etrade_name, "Etrade"))
           with
          | Ok _ -> ()
          | Error e -> Alcotest.fail (Update.error_to_string e));
          let coordC =
            Coordinator.create ~max_inflight:1 (Coordinator.Sockets muxC)
              (mounts ftC)
          in
          let runC = run coordC "C" in
          let a_ref = runC qa in
          let b_ref = runC qb in
          Alcotest.(check (array int)) "post-update B = cold reference (qa)"
            a_ref.Pe.answer_keys a_post.Pe.answer_keys;
          Alcotest.(check (array int)) "post-update B = cold reference (qb)"
            b_ref.Pe.answer_keys b_post.Pe.answer_keys;
          Alcotest.(check int) "update removed the E*trade match" 0
            (Array.length a_post.Pe.answer_keys);
          Alcotest.(check (array int)) "unaffected query unchanged"
            b_pre.Pe.answer_keys b_post.Pe.answer_keys;
          Alcotest.(check bool) "B's audit still passes" true
            a_post.Pe.audit.Pax_obs.Audit.pass;
          Alcotest.(check bool) "stale entries were swept" true
            (counter_value cache_sink "pax_cache_invalidated_total" > 0.);
          Alcotest.(check bool) "retries iff a plan is installed" fault
            (List.exists
               (fun (o : Pe.outcome) -> o.Pe.report.Cluster.retries > 0)
               [ a_pre; b_pre; a_post; b_post; a_ref; b_ref ]);
          Coordinator.close coordB;
          Coordinator.close coordC))

(* ------------------------------------------------------------------ *)
(* qcheck: concurrent = sequential under fault plans (in-process)     *)
(* ------------------------------------------------------------------ *)

(* Per-run outcome under faults: success (with its observables) or the
   typed unreachability error.  Anything else fails the property. *)
let faulty_outcome tk =
  match Coordinator.await tk with
  | Ok o ->
      let o = observe o in
      `Ok (o.o_answers, Array.to_list o.o_visits, o.o_audit_pass)
  | Error (Cluster.Site_unreachable { site; stage; attempts }) ->
      `Unreachable (site, stage, attempts)
  | Error e -> raise e

let faulted_differential seed =
  let ft = make_setup () in
  let tune cl =
    Cluster.set_fault cl
      (Pax_dist.Fault.seeded ~drop:0.12 ~dup:0.05 ~lose:0.05 ~crash:0.01
         ~seed ());
    Cluster.set_retry cl
      { Pax_dist.Retry.max_attempts = 4; base_delay = 0.; multiplier = 1.;
        max_delay = 0. }
  in
  let outcomes coord qs =
    (* Submit everything up front, then collect. *)
    let tks =
      List.map
        (fun q ->
          match Coordinator.submit coord q with
          | Ok tk -> tk
          | Error e ->
              QCheck.Test.fail_reportf "rejected: %s"
                (Coordinator.error_message e))
        qs
    in
    List.map faulty_outcome tks
  in
  let seq =
    Coordinator.create ~max_inflight:1 Coordinator.In_process
      (rr_mounts ft ~n_sites:3 ~tune ())
  in
  let conc =
    Coordinator.create ~max_inflight:8 Coordinator.In_process
      (rr_mounts ft ~n_sites:3 ~tune ())
  in
  let os = outcomes seq queries16 in
  let oc = outcomes conc queries16 in
  Coordinator.close seq;
  Coordinator.close conc;
  List.for_all2
    (fun a b ->
      a = b
      || QCheck.Test.fail_reportf
           "seed %d: concurrent and sequential outcomes diverge" seed)
    os oc

let qcheck_faulted =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"concurrent = sequential under fault plans"
       ~count:(qcount 5)
       QCheck.(int_bound 1_000_000)
       (fun seed -> with_timeout 120 (fun () -> faulted_differential seed)))

(* ------------------------------------------------------------------ *)
(* Mixed workload: XPath and reachability through one scheduler/mux   *)
(* ------------------------------------------------------------------ *)

(* A deterministic 48-node graph in 4 fragments. *)
let mixed_graph () =
  let n = 48 in
  let st = Random.State.make [| 0x5eed; 6 |] in
  let edges =
    List.init 140 (fun _ -> (Random.State.int st n, Random.State.int st n))
  in
  let owner = Array.init n (fun v -> v mod 4) in
  (n, edges, Gfrag.partition ~n ~edges ~owner)

let test_mixed_workload () =
  with_timeout 300 (fun () ->
      let ft = make_setup () in
      let n, edges, g = mixed_graph () in
      let n_sites = 3 in
      let gassign fid = fid mod n_sites in
      let gsite_frags site =
        List.filter_map
          (fun fid ->
            if gassign fid = site then Some (fid, Gfrag.fragment g fid)
            else None)
          (List.init (Gfrag.n_fragments g) Fun.id)
      in
      (* The same servers hold tree AND graph fragments; the same mux
         and scheduler carry both query families. *)
      with_servers ~gsite_frags ft ~n_sites (fun ~mux ~proto ~addrs:_ () ->
          let mounts =
            xpath_mounts ft proto
            @ [
                Coordinator.mount
                  (Pax_graph.Reach.engine g ~n_sites ~assign:gassign);
              ]
          in
          let mk ~max_inflight =
            Coordinator.create ~max_inflight (Coordinator.Sockets mux) mounts
          in
          let seq = mk ~max_inflight:1 in
          let conc = mk ~max_inflight:8 in
          (* 16 interleaved runs: XPath and reachability alternate so
             both families share workers, mux and scheduler slots. *)
          let reach_qs =
            List.map
              (fun (s, d) -> Gfrag.query_string ~src:s ~dst:d)
              [ (0, 47); (1, 2); (5, 5); (7, 30);
                (12, 3); (46, 0); (9, 44); (23, 23) ]
          in
          let xpath_qs = List.filteri (fun i _ -> i < 8) queries16 in
          let eqs =
            List.concat
              (List.map2
                 (fun x r -> [ ("pax2", x); ("reach", r) ])
                 xpath_qs reach_qs)
          in
          let rs = run_sequential seq eqs in
          let rc = run_concurrent conc eqs in
          List.iter2
            (fun (ename, q) (a, b) ->
              check_obs
                (Printf.sprintf "mixed %s %s" ename q)
                (observe a) (observe b);
              (* Reachability answers against the centralized BFS. *)
              if ename = "reach" then
                match Gfrag.parse_query q with
                | Some (src, dst) ->
                    let expect = Pax_graph.Bfs.reach ~n ~edges ~src ~dst in
                    Alcotest.(check (array int))
                      (Printf.sprintf "mixed %s = BFS" q)
                      (if expect then [| 1 |] else [||])
                      a.Pe.answer_keys
                | None -> Alcotest.fail "unparseable reach query")
            eqs
            (List.combine rs rc);
          Coordinator.close seq;
          Coordinator.close conc))

let () =
  Random.self_init ();
  Alcotest.run "serve"
    [
      ( "sched",
        [
          Alcotest.test_case "overloaded is typed" `Quick test_sched_overloaded;
          Alcotest.test_case "round-robin fairness" `Quick test_sched_fairness;
          Alcotest.test_case "exceptions surface" `Quick test_sched_exception;
          Alcotest.test_case "close drains" `Quick test_sched_close_drains;
          Alcotest.test_case "deadline shedding is typed" `Quick
            test_sched_deadline;
          Alcotest.test_case "deadline outranks overload" `Quick
            test_sched_deadline_precedence;
          Alcotest.test_case "QoS weights and priorities" `Quick
            test_sched_qos;
        ] );
      ( "cache",
        [
          Alcotest.test_case "generation keys" `Quick test_cache_generation;
          Alcotest.test_case "Update.apply invalidates" `Quick
            test_cache_update_invalidates;
        ] );
      ( "server",
        [
          Alcotest.test_case "run memo table is bounded" `Quick
            test_server_memo_bound;
        ] );
      ( "differential",
        [
          Alcotest.test_case "16 concurrent queries over sockets" `Quick
            test_sockets_differential;
          Alcotest.test_case "cache on: concurrent = sequential" `Quick
            test_sockets_differential_cached;
          Alcotest.test_case "coordinator overload is typed" `Quick
            test_coordinator_overloaded;
          qcheck_faulted;
          Alcotest.test_case "mixed XPath + reachability workload" `Quick
            test_mixed_workload;
        ] );
      ( "coherence",
        [
          Alcotest.test_case "two coordinators, one update (clean)" `Quick
            (test_gen_coherence ~fault:false);
          Alcotest.test_case "two coordinators, one update (flaky)" `Quick
            (test_gen_coherence ~fault:true);
        ] );
    ]
