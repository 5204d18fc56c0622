(* The elastic-sharding subsystem (docs/SHARDING.md):
   - Ptable: placement metadata, epochs, visit counters, load signal;
   - snapshots: atomic save, total load, epoch monotonicity across the
     save/load boundary, corrupt files rejected with Error;
   - the graph-fragment wire codec: round-trip and totality;
   - live migration over forked socket servers: answers identical
     before and after a move, strictly increasing snapshot epochs,
     replay after a simulated coordinator restart;
   - the retirement fence: a run routed by a stale placement and
     stamped with the new epoch burns its retry budget and fails with
     the typed [Cluster.Site_unreachable], while a run stamped with an
     older epoch keeps being served from retained data (drain-free);
   - writes around a move: a pushed edit applies at the site that
     holds its base, and after the move the new holder refuses it with
     the typed stale-base error and receives the whole image;
   - the rebalancer: greedy move-or-split planning and its cooldown. *)

module Wire = Pax_wire.Wire
module Fragment = Pax_frag.Fragment
module Cluster = Pax_dist.Cluster
module Sockio = Pax_net.Sockio
module Server = Pax_net.Server
module Client = Pax_net.Client
module Gfrag = Pax_graph.Gfrag
module Ptable = Pax_shard.Ptable
module Migrate = Pax_shard.Migrate
module Rebalance = Pax_serve.Rebalance
module Coordinator = Pax_serve.Coordinator
module Engines = Pax_core.Engines
module Pe = Pax_engine.Pe
module Query = Pax_xpath.Query
module Update = Pax_frag.Update
module Feed = Pax_serve.Feed
module Tree = Pax_xml.Tree

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
(* Ptable                                                             *)
(* ------------------------------------------------------------------ *)

let test_ptable_basics () =
  let t = Ptable.create ~n_frags:6 ~n_sites:3 ~assign:(fun fid -> fid mod 3) () in
  Alcotest.(check int) "epoch starts at 0" 0 (Ptable.epoch t);
  Alcotest.(check int) "n_frags" 6 (Ptable.n_frags t);
  Alcotest.(check int) "n_sites" 3 (Ptable.n_sites t);
  Alcotest.(check bool) "tree by default" true (Ptable.kind t = Wire.Tree_frag);
  for fid = 0 to 5 do
    Alcotest.(check int) "initial placement" (fid mod 3) (Ptable.site_of t fid)
  done;
  let e1 = Ptable.move t ~fid:4 ~site:0 in
  Alcotest.(check int) "first move is epoch 1" 1 e1;
  Alcotest.(check int) "fragment moved" 0 (Ptable.site_of t 4);
  Alcotest.(check int) "global epoch follows" 1 (Ptable.epoch t);
  let site, fepoch, visits = Ptable.entry t 4 in
  Alcotest.(check (list int)) "entry" [ 0; 1; 0 ] [ site; fepoch; visits ];
  (* A skipped epoch (failed install) leaves a gap but stays monotonic. *)
  let skipped = Ptable.reserve_epoch t in
  Alcotest.(check int) "reserved" 2 skipped;
  let e2 = Ptable.move t ~fid:5 ~site:1 in
  Alcotest.(check int) "next move skips the burned epoch" 3 e2;
  (* commit_move with an epoch from the future (replay) drags the
     global epoch up. *)
  Ptable.commit_move t ~fid:0 ~site:2 ~epoch:9;
  Alcotest.(check int) "replay raises the global epoch" 9 (Ptable.epoch t);
  (* Out-of-range anything is a typed refusal at construction. *)
  (try
     ignore (Ptable.create ~n_frags:2 ~n_sites:2 ~assign:(fun _ -> 7) ());
     Alcotest.fail "out-of-range assign must raise"
   with Invalid_argument _ -> ());
  try
    ignore (Ptable.site_of t 99);
    Alcotest.fail "out-of-range fid must raise"
  with Invalid_argument _ -> ()

let test_ptable_visits () =
  let t = Ptable.create ~n_frags:4 ~n_sites:2 ~assign:(fun fid -> fid mod 2) () in
  Ptable.record_touches t [| 3; 1; 0; 5 |];
  Ptable.record_touches t [| 1; 0; 0; 0 |];
  Alcotest.(check int) "visits accumulate" 4 (Ptable.visits t 0);
  Alcotest.(check (array int))
    "site loads sum placed fragments" [| 4; 6 |] (Ptable.site_loads t);
  (* Loads follow the fragment when it moves. *)
  ignore (Ptable.move t ~fid:3 ~site:0);
  Alcotest.(check (array int)) "loads follow moves" [| 9; 1 |]
    (Ptable.site_loads t);
  (try
     Ptable.record_touches t [| 1; 2 |];
     Alcotest.fail "wrong-length touches must raise"
   with Invalid_argument _ -> ());
  Ptable.reset_visits t;
  Alcotest.(check (array int)) "reset" [| 0; 0 |] (Ptable.site_loads t)

(* ------------------------------------------------------------------ *)
(* Snapshots                                                          *)
(* ------------------------------------------------------------------ *)

let temp_path () = Filename.temp_file "pax_shard" ".placement"

let test_snapshot_roundtrip () =
  let t =
    Ptable.create ~kind:Wire.Graph_frag ~n_frags:5 ~n_sites:3
      ~assign:(fun fid -> fid mod 3)
      ()
  in
  ignore (Ptable.move t ~fid:2 ~site:0);
  ignore (Ptable.move t ~fid:4 ~site:0);
  Ptable.record_touches t [| 7; 0; 2; 0; 1 |];
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with _ -> ())
    (fun () ->
      Ptable.save t path;
      match Ptable.load path with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok t' ->
          Alcotest.(check bool) "kind survives" true
            (Ptable.kind t' = Wire.Graph_frag);
          Alcotest.(check int) "epoch survives" (Ptable.epoch t)
            (Ptable.epoch t');
          Alcotest.(check (list (list int)))
            "entries survive"
            (List.map (fun (a, b, c, d) -> [ a; b; c; d ]) (Ptable.to_list t))
            (List.map (fun (a, b, c, d) -> [ a; b; c; d ]) (Ptable.to_list t'));
          (* Epochs keep moving forward after the reload — the
             monotonicity replay relies on. *)
          let before = Ptable.epoch t' in
          let e = Ptable.move t' ~fid:0 ~site:1 in
          Alcotest.(check bool) "post-load epochs stay monotonic" true
            (e > before))

let test_snapshot_corrupt () =
  let reject name content =
    let path = temp_path () in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with _ -> ())
      (fun () ->
        let oc = open_out path in
        output_string oc content;
        close_out oc;
        match Ptable.load path with
        | Error _ -> ()
        | Ok _ -> Alcotest.failf "%s: corrupt snapshot must be rejected" name)
  in
  reject "garbage" "not a placement\n";
  reject "empty" "";
  reject "bad dims" "pax-placement 1 tree\nfrags x sites 2 epoch 0\n";
  reject "missing fragment" "pax-placement 1 tree\nfrags 2 sites 2 epoch 0\n0 0 0 0\n";
  reject "duplicate fragment"
    "pax-placement 1 tree\nfrags 2 sites 2 epoch 0\n0 0 0 0\n0 1 0 0\n";
  reject "site out of range"
    "pax-placement 1 tree\nfrags 1 sites 2 epoch 0\n0 5 0 0\n";
  reject "entry epoch ahead of global"
    "pax-placement 1 tree\nfrags 1 sites 2 epoch 1\n0 0 5 0\n";
  match Ptable.load "/nonexistent/pax.placement" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file must be Error"

(* ------------------------------------------------------------------ *)
(* Graph-fragment wire codec                                          *)
(* ------------------------------------------------------------------ *)

let sample_partition () =
  let n = 48 in
  let st = Random.State.make [| 0x5eed; 8 |] in
  let edges =
    List.init 140 (fun _ -> (Random.State.int st n, Random.State.int st n))
  in
  let owner = Array.init n (fun v -> v mod 4) in
  Gfrag.partition ~n ~edges ~owner

let test_gfrag_roundtrip () =
  let g = sample_partition () in
  for fid = 0 to Gfrag.n_fragments g - 1 do
    let frag = Gfrag.fragment g fid in
    match Gfrag.decode (Gfrag.encode frag) with
    | None -> Alcotest.failf "fragment %d: decode of own encoding failed" fid
    | Some frag' ->
        Alcotest.(check bool)
          (Printf.sprintf "fragment %d round-trips" fid)
          true (frag = frag')
  done

let test_gfrag_total () =
  let g = sample_partition () in
  let s = Gfrag.encode (Gfrag.fragment g 1) in
  Alcotest.(check (option reject)) "empty image" None (Gfrag.decode "");
  Alcotest.(check (option reject)) "bad magic" None
    (Gfrag.decode ("x" ^ String.sub s 1 (String.length s - 1)));
  Alcotest.(check (option reject)) "truncated image" None
    (Gfrag.decode (String.sub s 0 (String.length s - 1)));
  (* A node count whose varint runs to a ninth byte: read with a 63-bit
     shift it would turn negative and reach [Array.init]. *)
  Alcotest.(check (option reject)) "overlong count varint" None
    (Gfrag.decode ("pgf1\x00" ^ String.make 8 '\x80' ^ "\x40"));
  (* Totality: flipping any single byte must never raise; if the
     mutant still decodes, the codec's invariants vetted it. *)
  for i = 0 to String.length s - 1 do
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
    ignore (Gfrag.decode (Bytes.to_string b))
  done

(* ------------------------------------------------------------------ *)
(* Rebalancer planning                                                *)
(* ------------------------------------------------------------------ *)

let test_rebalance_plan () =
  let t = Ptable.create ~n_frags:4 ~n_sites:2 ~assign:(fun _ -> 0) () in
  Ptable.record_touches t [| 10; 5; 1; 0 |];
  let rb = Rebalance.create t in
  (match Rebalance.plan_one rb ~now:0. with
  | Some { Rebalance.rb_fid = 0; rb_from = 0; rb_to = 1 } -> ()
  | Some m ->
      Alcotest.failf "planned fragment %d %d->%d, wanted the hottest (0 0->1)"
        m.Rebalance.rb_fid m.Rebalance.rb_from m.Rebalance.rb_to
  | None -> Alcotest.fail "imbalanced table must yield a plan");
  (* Execute: one move rebalances 16/0 into 6/10; the moved fragment
     is then cooling down, and every further move would just relocate
     the hotspot, so the run stops itself. *)
  (match Rebalance.run rb ~now:0. with
  | Ok [ { Migrate.mv_fid = 0; mv_from = 0; mv_to = 1; mv_epoch = 1 } ] -> ()
  | Ok ms -> Alcotest.failf "expected exactly one move, got %d" (List.length ms)
  | Error e -> Alcotest.failf "rebalance failed: %s" e);
  Alcotest.(check int) "fragment landed" 1 (Ptable.site_of t 0);
  Alcotest.(check (array int)) "loads after" [| 6; 10 |] (Ptable.site_loads t)

let test_rebalance_skips_too_hot () =
  (* Fragment 0 carries so much load that moving it onto the cold site
     would merely relocate the hotspot (150 > 104): the "needs a
     split" case.  The policy must fall through to the site's
     next-hottest fragment instead. *)
  let t =
    Ptable.create ~n_frags:3 ~n_sites:2
      ~assign:(fun fid -> if fid = 2 then 1 else 0)
      ()
  in
  Ptable.record_touches t [| 100; 4; 50 |];
  let rb = Rebalance.create t in
  match Rebalance.plan_one rb ~now:0. with
  | Some { Rebalance.rb_fid = 1; rb_from = 0; rb_to = 1 } -> ()
  | Some m -> Alcotest.failf "planned fragment %d, wanted 1" m.Rebalance.rb_fid
  | None -> Alcotest.fail "must plan the next-hottest fragment"

let test_rebalance_cooldown () =
  let t =
    Ptable.create ~n_frags:3 ~n_sites:2
      ~assign:(fun fid -> if fid = 2 then 1 else 0)
      ()
  in
  Ptable.record_touches t [| 10; 4; 0 |];
  let rb = Rebalance.create t in
  (match Rebalance.step rb ~now:0. with
  | Ok (Some o) -> Alcotest.(check int) "hottest moves first" 0 o.Migrate.mv_fid
  | Ok None -> Alcotest.fail "first step must move"
  | Error e -> Alcotest.failf "step failed: %s" e);
  (* New load shape: the just-moved fragment is again the hottest on
     the (new) hot site, but it is cooling down — the planner must
     pick the site's next-hottest instead... *)
  Ptable.reset_visits t;
  Ptable.record_touches t [| 9; 0; 6 |];
  (match Rebalance.plan_one rb ~now:10. with
  | Some { Rebalance.rb_fid = 2; rb_from = 1; rb_to = 0 } -> ()
  | Some m ->
      Alcotest.failf "fragment %d planned during fragment 0's cooldown"
        m.Rebalance.rb_fid
  | None -> Alcotest.fail "the cooled next-hottest fragment must be movable");
  (* ...and once the cooldown lapses the hottest wins again. *)
  match Rebalance.plan_one rb ~now:100. with
  | Some { Rebalance.rb_fid = 0; rb_from = 1; rb_to = 0 } -> ()
  | Some m -> Alcotest.failf "planned fragment %d, wanted 0" m.Rebalance.rb_fid
  | None -> Alcotest.fail "cooled-down fragment must be movable"

(* ------------------------------------------------------------------ *)
(* Live migration over forked socket servers                          *)
(* ------------------------------------------------------------------ *)

let n_sites = 3

let make_ft () =
  let doc = Pax_xmark.Xmark.doc ~seed:11 ~total_nodes:1600 ~n_sites:4 in
  Fragment.fragmentize doc ~cuts:(Fragment.cuts_by_tag doc ~tag:"site")

(* Fork one server per site under [assign], hand the mux to [f]. *)
let with_servers ft ~assign f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pax_shard_test_%d_%d" (Unix.getpid ())
         (Random.int 100000))
  in
  Sys.mkdir dir 0o755;
  let addrs =
    Array.init n_sites (fun site ->
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

let query = "//person[profile/education]"

let run_coord coord q =
  match Coordinator.run coord q with
  | Ok (o : Pe.outcome) ->
      Alcotest.(check bool) "audit passes" true o.Pe.audit.Pax_obs.Audit.pass;
      Array.to_list o.Pe.answer_keys
  | Error e -> Alcotest.failf "run rejected: %s" (Coordinator.error_message e)

let test_socket_migrate () =
  with_timeout 120 (fun () ->
      let ft = make_ft () in
      let n_frags = Fragment.n_fragments ft in
      let table =
        Ptable.create ~n_frags ~n_sites ~assign:(fun fid -> fid mod n_sites) ()
      in
      with_servers ft ~assign:(Ptable.assign table) (fun mux ->
          let mk_coord () =
            Coordinator.create ~max_inflight:2 (Coordinator.Sockets mux)
              [
                Coordinator.mount ~table
                  (Engines.pax2 ft ~n_sites ~assign:(Ptable.assign table));
              ]
          in
          let coord = mk_coord () in
          let baseline = run_coord coord query in
          Alcotest.(check bool) "query answers" true (baseline <> []);
          (* Snapshots straddling the move carry strictly increasing
             epochs. *)
          let path = temp_path () in
          Fun.protect
            ~finally:(fun () -> try Sys.remove path with _ -> ())
            (fun () ->
              Ptable.save table path;
              let epoch_before = Ptable.epoch table in
              let fid = n_frags / 2 in
              let src = Ptable.site_of table fid in
              let dst = (src + 1) mod n_sites in
              (match Migrate.move ~mux ~ft ~table ~fid ~dst () with
              | Ok o ->
                  Alcotest.(check int) "moved from" src o.Migrate.mv_from;
                  Alcotest.(check int) "moved to" dst o.Migrate.mv_to;
                  Alcotest.(check bool) "epoch bumped" true
                    (o.Migrate.mv_epoch > epoch_before)
              | Error e -> Alcotest.failf "migration failed: %s" e);
              Alcotest.(check int) "table routes to the target" dst
                (Ptable.site_of table fid);
              Ptable.save table path;
              (match Ptable.load path with
              | Ok t' ->
                  Alcotest.(check bool) "snapshot epoch is post-move" true
                    (Ptable.epoch t' > epoch_before)
              | Error e -> Alcotest.failf "snapshot load: %s" e);
              (* Same answers through the new placement. *)
              Alcotest.(check (list int)) "answers survive the move" baseline
                (run_coord coord query);
              Coordinator.close coord;
              (* Simulated coordinator restart: reload the snapshot,
                 replay it against the still-running servers, serve
                 again.  Replaying completed installs is idempotent. *)
              match Ptable.load path with
              | Error e -> Alcotest.failf "reload: %s" e
              | Ok table' -> (
                  match Migrate.replay ~mux ~table:table' () with
                  | Error e -> Alcotest.failf "replay: %s" e
                  | Ok () ->
                      let coord' =
                        Coordinator.create ~max_inflight:2
                          (Coordinator.Sockets mux)
                          [
                            Coordinator.mount ~table:table'
                              (Engines.pax2 ft ~n_sites
                                 ~assign:(Ptable.assign table'));
                          ]
                      in
                      Alcotest.(check (list int))
                        "answers survive the restart" baseline
                        (run_coord coord' query);
                      Coordinator.close coord'))))

(* The retirement fence, both directions: a post-move epoch routed to
   the retired source is refused until the retry budget burns out
   (typed [Site_unreachable]); a pre-move epoch keeps being served
   from the data the source retained. *)
let test_stale_epoch_fence () =
  with_timeout 120 (fun () ->
      let ft = make_ft () in
      let n_frags = Fragment.n_fragments ft in
      let table =
        Ptable.create ~n_frags ~n_sites ~assign:(fun fid -> fid mod n_sites) ()
      in
      with_servers ft ~assign:(Ptable.assign table) (fun mux ->
          let q = Query.of_string query in
          let old_assign = Array.init n_frags (Ptable.assign table) in
          let run_at_epoch epoch =
            let handle = Client.handle mux in
            Client.set_epoch handle epoch;
            let tr = Client.handle_transport handle in
            Fun.protect
              ~finally:(fun () -> tr.Pax_dist.Transport.close ())
              (fun () ->
                let cl =
                  Pax_dist.Placement.cluster_round_robin ft ~n_sites
                in
                Cluster.set_transport cl (Some tr);
                Cluster.set_retry cl
                  {
                    Pax_dist.Retry.max_attempts = 3;
                    base_delay = 0.01;
                    multiplier = 1.;
                    max_delay = 0.01;
                  };
                (Pax_core.Pax2.run cl q).Pax_core.Run_result.answer_ids)
          in
          let baseline = run_at_epoch 0 in
          (* Move a fragment away; round-robin is now stale routing. *)
          let fid = n_frags / 2 in
          let dst = (Ptable.site_of table fid + 1) mod n_sites in
          (match Migrate.move ~mux ~ft ~table ~fid ~dst () with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "migration failed: %s" e);
          Alcotest.(check int) "round-robin was the old placement"
            old_assign.(fid)
            (fid mod n_sites);
          (* New-epoch run, old routing: the fence refuses every
             attempt, the retry budget burns, the failure is typed. *)
          (match run_at_epoch (Ptable.epoch table) with
          | _ -> Alcotest.fail "stale routing at the new epoch must fail"
          | exception Cluster.Site_unreachable { attempts; _ } ->
              Alcotest.(check int) "full retry budget burned" 3 attempts);
          (* Old-epoch run, old routing: retained data still serves it
             — the drain-free half of the fence. *)
          Alcotest.(check (list int)) "pre-move epochs keep being served"
            baseline (run_at_epoch 0)))

(* A site server's counter, summed over its series with this name and
   labels. *)
let site_counter mux site series =
  List.fold_left
    (fun acc (k, v) -> if k = series then acc +. v else acc)
    0. (Client.fetch_stats mux site)

let updates change = Printf.sprintf "pax_srv_frag_updates_total{change=%S}" change

(* A write before a move travels as an edit.  After the move, the
   fragment's new holder got it by [Frag_install], which carries no
   version, so the next write's edit is refused there with the typed
   stale-base error and the whole image follows; the stale edit is
   never applied.  Answers through the moved placement equal a cold
   in-process coordinator over a replica that saw the same writes. *)
let test_write_after_move () =
  with_timeout 120 (fun () ->
      let ft = make_ft () and ft_ref = make_ft () in
      let n_frags = Fragment.n_fragments ft in
      let table =
        Ptable.create ~n_frags ~n_sites ~assign:(fun fid -> fid mod n_sites) ()
      in
      (* A fragment with two education nodes, and their ids. *)
      let educations fid =
        Tree.fold
          (fun acc n -> if n.Tree.tag = "education" then n.Tree.id :: acc else acc)
          [] (Fragment.fragment ft fid).Fragment.root
      in
      let fid, e1, e2 =
        match
          List.find_map
            (fun fid ->
              match educations fid with
              | a :: b :: _ when fid > 0 -> Some (fid, a, b)
              | _ -> None)
            (List.init n_frags Fun.id)
        with
        | Some x -> x
        | None -> Alcotest.fail "no fragment with two education nodes"
      in
      with_servers ft ~assign:(Ptable.assign table) (fun mux ->
          let feed = Feed.attach ~mux ft in
          let write node =
            List.iter
              (fun ft ->
                match Update.apply ft (Update.Delete node) with
                | Ok f -> Alcotest.(check int) "the chosen fragment" fid f
                | Error e -> Alcotest.fail (Update.error_to_string e))
              [ ft; ft_ref ];
            (match
               Feed.push_fragment feed ~site:(Ptable.site_of table fid) ~fid
                 ~epoch:(Ptable.epoch table)
             with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "push: %s" e);
            Feed.publish feed ~fids:[ fid ]
          in
          let src = Ptable.site_of table fid in
          let dst = (src + 1) mod n_sites in
          write e1;
          Alcotest.(check (float 0.)) "the first write is an edit" 1.
            (site_counter mux src (updates "edit"));
          (match Migrate.move ~mux ~ft ~table ~fid ~dst () with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "migration failed: %s" e);
          write e2;
          Alcotest.(check (list (float 0.)))
            "after the move: edit refused, whole image installed" [ 0.; 1.; 1. ]
            (List.map
               (fun c -> site_counter mux dst (updates c))
               [ "edit"; "stale_base"; "image" ]);
          let coord =
            Coordinator.create ~max_inflight:2 (Coordinator.Sockets mux)
              [
                Coordinator.mount ~table
                  (Engines.pax2 ft ~n_sites ~assign:(Ptable.assign table));
              ]
          in
          let cold =
            Coordinator.create ~max_inflight:1 Coordinator.In_process
              [
                Coordinator.mount
                  (Engines.pax2 ft_ref ~n_sites ~assign:(fun f -> f mod n_sites));
              ]
          in
          List.iter
            (fun q ->
              Alcotest.(check (list int)) (q ^ " = cold reference")
                (run_coord cold q) (run_coord coord q))
            [ query; "//person/profile/education"; "//person/name" ];
          Coordinator.close coord;
          Coordinator.close cold))

let () =
  Random.self_init ();
  Alcotest.run "shard"
    [
      ( "ptable",
        [
          Alcotest.test_case "placement and epochs" `Quick test_ptable_basics;
          Alcotest.test_case "visit counters and loads" `Quick
            test_ptable_visits;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "round-trip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "corrupt files rejected" `Quick
            test_snapshot_corrupt;
        ] );
      ( "gfrag-codec",
        [
          Alcotest.test_case "round-trip" `Quick test_gfrag_roundtrip;
          Alcotest.test_case "decoder is total" `Quick test_gfrag_total;
        ] );
      ( "rebalance",
        [
          Alcotest.test_case "greedy plan" `Quick test_rebalance_plan;
          Alcotest.test_case "too-hot fragment skipped" `Quick
            test_rebalance_skips_too_hot;
          Alcotest.test_case "cooldown" `Quick test_rebalance_cooldown;
        ] );
      ( "migration",
        [
          Alcotest.test_case "live move + snapshot + replay" `Quick
            test_socket_migrate;
          Alcotest.test_case "stale-epoch fence is typed" `Quick
            test_stale_epoch_fence;
          Alcotest.test_case "a write after a move ships the image" `Quick
            test_write_after_move;
        ] );
    ]
