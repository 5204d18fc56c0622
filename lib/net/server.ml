module Wire = Pax_wire.Wire
module Flat = Pax_xml.Flat
module Site = Pax_core.Site
module Int_tbl = Site.Int_tbl

(* One fid-keyed table per fragment kind. *)
type 'a per_kind = { tree : 'a Int_tbl.t; graph : 'a Int_tbl.t }

let per_kind () = { tree = Int_tbl.create 8; graph = Int_tbl.create 8 }
let of_kind p = function Wire.Tree_frag -> p.tree | Wire.Graph_frag -> p.graph

(* Per-run visit state: the site handler's state for the run (stage-1
   results for the later stages, and the reply memo that answers a
   retransmitted request identically without re-execution), plus a
   recency stamp for LRU eviction. *)
type run_state = { rs_site : Site.t; mutable rs_touch : int }

(* A live accepted connection: its socket, the write lock that
   serializes reply frames with unsolicited [Gen_event] pushes sharing
   the same socket, and the buffer a reply is encoded into, under that
   lock, and written from. *)
type conn_entry = {
  c_id : int;
  c_fd : Unix.file_descr;
  c_wlock : Mutex.t;
  c_w : Pax_bool.Codec.writer;
}

type t = {
  (* One site-wide intern table and one flat image per held fragment
     (docs/FLATTREE.md), built at server creation or decoded on
     install.  Images are immutable: an install swaps in a new one.
     A site holds columns only: answers ship straight from an image's
     slots ([Wire.answer_of_slot]). *)
  intern : Pax_xml.Intern.t;
  flat_imgs : Flat.t Int_tbl.t;
  (* The version of each held tree image ({!Wire.version}): (0, 0) for
     the images built here at creation, the pushed version after a
     [Frag_update], none after a [Frag_install].  A pushed edit applies
     only to the version it names (docs/SERVING.md). *)
  versions : Wire.version Int_tbl.t;
  (* Graph fragments for the reachability engine (docs/ENGINES.md).  A
     site may hold tree fragments, graph fragments or both — the
     mixed-workload serving tests run XPath and reachability through
     the same servers. *)
  gfrags : Pax_graph.Gfrag.fragment Int_tbl.t;
  (* Elastic sharding (docs/SHARDING.md): a migrated-away fragment is
     fenced, not deleted — [fid → epoch], per kind, records the placement
     epoch at which it was retired.  Visits stamped with that epoch or
     later are refused with the typed stale-epoch error; older
     in-flight runs keep being served from the retained data, which is
     immutable, so the migration window is drain-free.  [Frag_install]
     clears the fence. *)
  retired : int per_kind;
  (* Many runs interleave on one multiplexed connection, so state is a
     table keyed by run id, not a single slot.  Its size is bounded two
     ways: the coordinator announces finished runs ([Run_done] →
     eviction), and — since that frame is best-effort — an LRU cap of
     [max_runs] sheds the stalest run when a new one arrives.  Evicting
     a live run is safe for correctness (its next request rebuilds
     stage-1 state lazily only for stage-1 calls; later-stage calls on
     evicted state fail as typed [Error] replies and the client run
     fails over its retry budget) but [max_runs] should comfortably
     exceed the coordinator's max in-flight runs. *)
  states : run_state Int_tbl.t;
  max_runs : int;
  (* Simulated per-visit service latency.  Loopback sockets have no
     network delay, so a bench or test that wants the paper's setting —
     one machine per site, a WAN between them — asks each site to
     sleep this long before computing a visit reply.  Sleeps at
     different sites (and queued requests behind them) overlap in wall
     clock without consuming CPU, which is exactly what distinguishes
     them from compute. *)
  service_delay : float;
  mutable clock : int;
  (* Always-on counters: a server exists to be queried, so its sink is
     enabled from the start and its counters are served on
     [Stats_request].  Only visit traffic is counted (not stats or ping
     frames), mirroring the client's counters — see
     [Client.fetch_stats].  Spans go to the same sink but only for
     traced frames ([spans_for]), so an untraced server's ring stays
     empty. *)
  obs : Pax_obs.Sink.t;
  (* N coordinators hold their multiplexed connections open
     concurrently, so [serve] runs one thread per accepted connection.
     [lock] guards every piece of shared state above (fragments, run
     states, fences, the sink — its collectors are single-writer) plus
     the tables below; the [service_delay] sleep and all socket IO
     happen outside it. *)
  lock : Mutex.t;
  conns : conn_entry Int_tbl.t;
  mutable conn_seq : int;
  (* Fragment generation counters, max-merged from [Gen_publish]
     frames and fanned back out as [Gen_event] — the relay that makes
     one coordinator's update invalidate every coordinator's stage
     cache (docs/SERVING.md). *)
  gens : int per_kind;
  mutable stopping : bool;
}

let default_max_runs = 64

let create ?(max_runs = default_max_runs) ?(service_delay = 0.) ?(gfrags = [])
    ~frags () =
  if max_runs < 1 then invalid_arg "Server.create: need max_runs >= 1";
  if service_delay < 0. then
    invalid_arg "Server.create: negative service_delay";
  let gtbl = Int_tbl.create 8 in
  List.iter (fun (fid, frag) -> Int_tbl.replace gtbl fid frag) gfrags;
  let intern = Pax_xml.Intern.create () in
  let flat_imgs = Int_tbl.create 8 and versions = Int_tbl.create 8 in
  List.iter
    (fun (fid, root) ->
      Int_tbl.replace flat_imgs fid (Flat.of_tree ~intern root);
      Int_tbl.replace versions fid (0, 0))
    frags;
  {
    intern;
    flat_imgs;
    versions;
    gfrags = gtbl;
    retired = per_kind ();
    states = Int_tbl.create 16;
    max_runs;
    service_delay;
    clock = 0;
    obs = Pax_obs.Sink.create ();
    lock = Mutex.create ();
    conns = Int_tbl.create 8;
    conn_seq = 0;
    gens = per_kind ();
    stopping = false;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let n_run_states t = Int_tbl.length t.states
let evict_run t run = Int_tbl.remove t.states run

let evict_lru t =
  let victim = ref None in
  Int_tbl.iter
    (fun run st ->
      match !victim with
      | Some (_, touch) when touch <= st.rs_touch -> ()
      | _ -> victim := Some (run, st.rs_touch))
    t.states;
  match !victim with
  | Some (run, _) ->
      evict_run t run;
      Pax_obs.Sink.count t.obs "pax_srv_runs_evicted_total"
  | None -> ()

let frag_flat t fid =
  match Int_tbl.find_opt t.flat_imgs fid with
  | Some fl -> fl
  | None -> failwith (Printf.sprintf "site server holds no fragment %d" fid)

let gfrag_of t fid =
  match Int_tbl.find_opt t.gfrags fid with
  | Some frag -> frag
  | None ->
      failwith (Printf.sprintf "site server holds no graph fragment %d" fid)

let state_for t run =
  t.clock <- t.clock + 1;
  let st =
    match Int_tbl.find_opt t.states run with
    | Some st -> st
    | None ->
        if Int_tbl.length t.states >= t.max_runs then evict_lru t;
        let st =
          { rs_site = Site.create t.intern ~image:(frag_flat t); rs_touch = 0 }
        in
        Int_tbl.replace t.states run st;
        st
  in
  st.rs_touch <- t.clock;
  st

(* The fragments a call touches, with the store they live in — what the
   retirement fence is keyed on and what the per-fragment hotness
   counters count. *)
let rec call_frags = function
  | Wire.Pax2_stage1 { frags; _ } ->
      List.map (fun (fe : Wire.frag_eval) -> (Wire.Tree_frag, fe.Wire.fe_fid)) frags
  | Wire.Pax2_stage2 { frags } ->
      List.map (fun (fid, _, _) -> (Wire.Tree_frag, fid)) frags
  | Wire.Pax3_stage1 { fids; _ } ->
      List.map (fun fid -> (Wire.Tree_frag, fid)) fids
  | Wire.Pax3_stage2 { frags; _ } ->
      List.map
        (fun ((fe : Wire.frag_eval), _) -> (Wire.Tree_frag, fe.Wire.fe_fid))
        frags
  | Wire.Pax3_stage3 { frags } ->
      List.map (fun (fid, _) -> (Wire.Tree_frag, fid)) frags
  | Wire.Reach_stage1 { fids; _ } ->
      List.map (fun fid -> (Wire.Graph_frag, fid)) fids
  | Wire.Calls calls -> List.concat_map call_frags calls
  | Wire.Count call -> call_frags call
  | Wire.Ship { fids } -> List.map (fun fid -> (Wire.Tree_frag, fid)) fids

let stale_frag t ~epoch call =
  List.find_map
    (fun (kind, fid) ->
      match Int_tbl.find_opt (of_kind t.retired kind) fid with
      | Some retired when epoch >= retired -> Some (fid, retired)
      | _ -> None)
    (call_frags call)

(* Spans are recorded for traced frames only — those that carry the
   sender's span id as [parent].  Untraced traffic would only fill the
   ring: nobody drains it.  Counters stay on either way. *)
let spans_for t parent =
  match parent with Some _ -> t.obs | None -> Pax_obs.Sink.noop

let handle_request t ~run ~round ~epoch ?parent call =
  let site = (state_for t run).rs_site in
  let spans = spans_for t parent in
  match Site.replay site ~round with
  | Some reply ->
      (* Memo hits are worth seeing in a trace: a resent request that
         cost no kernel time renders as a sliver under its visit. *)
      Pax_obs.Sink.span spans ~cat:"memo" ?parent "memo hit" (fun () -> ());
      Ok reply
  | None -> (
      (* The fence check sits behind the memo: a reply computed before
         retirement stays replayable (the data is retained), while new
         work routed here under stale placement is refused with a typed
         error — never memoized, so the retried request re-checks. *)
      match stale_frag t ~epoch call with
      | Some (fid, retired) ->
          Pax_obs.Sink.count t.obs "pax_srv_stale_epoch_total";
          Error (Wire.stale_epoch_error ~fid ~retired ~epoch)
      | None -> (
          match
            Pax_obs.Sink.span spans ~cat:"stage" ?parent "stage kernel"
              (fun () ->
                match call with
                | Wire.Reach_stage1 { query; fids } ->
                    Pax_graph.Reach.stage1_reply (gfrag_of t) ~query fids
                | _ -> Site.handle site call)
          with
          | reply ->
              Site.record site ~round reply;
              List.iter
                (fun (_, fid) ->
                  Pax_obs.Sink.count t.obs
                    ~labels:[ ("fid", string_of_int fid) ]
                    "pax_site_fragment_visits_total")
                (call_frags call);
              Ok reply
          | exception e -> Error (Printexc.to_string e)))

(* ------------------------------------------------------------------ *)
(* Migration (docs/SHARDING.md)                                       *)
(* ------------------------------------------------------------------ *)

let fetch_image t ~fid ~kind =
  match kind with
  | Wire.Tree_frag -> (
      match Int_tbl.find_opt t.flat_imgs fid with
      | None -> Error (Printf.sprintf "site server holds no fragment %d" fid)
      | Some fl ->
          Ok { Wire.fi_kind = kind; fi_bytes = Flat.encode fl })
  | Wire.Graph_frag -> (
      match Int_tbl.find_opt t.gfrags fid with
      | None ->
          Error (Printf.sprintf "site server holds no graph fragment %d" fid)
      | Some frag ->
          Ok { Wire.fi_kind = kind; fi_bytes = Pax_graph.Gfrag.encode frag })

(* Install validates the image against the receiving server's own
   intern table (tree) or the codec's invariants (graph) before
   swapping it in; a corrupt image is refused without touching held
   state.  Replaying an install is idempotent: same image, same
   effect. *)
let install_image t ~fid ~epoch (image : Wire.frag_image) =
  match image.Wire.fi_kind with
  | Wire.Tree_frag -> (
      match Flat.decode ~intern:t.intern image.Wire.fi_bytes with
      | None -> Error (Printf.sprintf "corrupt flat image for fragment %d" fid)
      | Some fl ->
          Int_tbl.replace t.flat_imgs fid fl;
          Int_tbl.remove t.versions fid;
          Int_tbl.remove t.retired.tree fid;
          Ok (Printf.sprintf "installed fragment %d at epoch %d" fid epoch))
  | Wire.Graph_frag -> (
      match Pax_graph.Gfrag.decode image.Wire.fi_bytes with
      | None -> Error (Printf.sprintf "corrupt graph image for fragment %d" fid)
      | Some frag ->
          Int_tbl.replace t.gfrags fid frag;
          Int_tbl.remove t.retired.graph fid;
          Ok
            (Printf.sprintf "installed graph fragment %d at epoch %d" fid epoch))

(* A pushed update swaps in a new image like an install does, and
   records its version.  An edit patches the held image copy-on-write
   ([Flat.edit]), so in-flight runs keep the image they started on; it
   applies only when the held image is at the edit's base version, and
   otherwise is refused with the typed stale-base error, never
   applied to other content. *)
let update_frag t ~fid ~epoch ~version change =
  let count form =
    Pax_obs.Sink.count t.obs
      ~labels:[ ("change", form) ]
      "pax_srv_frag_updates_total"
  in
  let swap form fl =
    count form;
    Int_tbl.replace t.flat_imgs fid fl;
    Int_tbl.replace t.versions fid version;
    Int_tbl.remove t.retired.tree fid;
    Ok
      (Printf.sprintf "%s fragment %d at version (%d, %d), epoch %d" form fid
         (fst version) (snd version) epoch)
  in
  match change with
  | Wire.Image bytes -> (
      match Flat.decode ~intern:t.intern bytes with
      | Some fl -> swap "image" fl
      | None -> Error (Printf.sprintf "corrupt flat image for fragment %d" fid))
  | Wire.Edit { base; edit } -> (
      let held = Int_tbl.find_opt t.versions fid in
      let patched =
        match (held, Int_tbl.find_opt t.flat_imgs fid) with
        | Some v, Some fl when v = base -> Flat.edit fl edit
        | _ -> None
      in
      match patched with
      | Some fl -> swap "edit" fl
      | None ->
          count "stale_base";
          Error (Wire.stale_base_error ~fid ~held ~base))

let retire_frag t ~fid ~epoch ~kind =
  let fences = of_kind t.retired kind in
  (match Int_tbl.find_opt fences fid with
  | Some e when e > epoch -> ()  (* keep the newer fence *)
  | _ -> Int_tbl.replace fences fid epoch);
  Ok (Printf.sprintf "retired fragment %d at epoch %d" fid epoch)

let count_visit_frame t ~dir ~frame_len =
  let labels = [ ("dir", dir) ] in
  Pax_obs.Sink.count t.obs ~labels "pax_net_visit_frames_total";
  Pax_obs.Sink.count t.obs ~labels ~by:(float_of_int frame_len)
    "pax_net_visit_bytes_total"

(* Migration traffic is excluded from per-query accounting
   ([Wire.tally] returns the empty tally), so its byte volume is
   surfaced here instead — the "byte-accounted like every other
   message" ledger for the control plane. *)
let count_admin_frame t ~dir ~frame_len =
  let labels = [ ("dir", dir) ] in
  Pax_obs.Sink.count t.obs ~labels "pax_net_admin_frames_total";
  Pax_obs.Sink.count t.obs ~labels ~by:(float_of_int frame_len)
    "pax_net_admin_bytes_total"

(* ------------------------------------------------------------------ *)
(* Generation coherence (docs/SERVING.md)                             *)
(* ------------------------------------------------------------------ *)

(* Caller holds [t.lock].  Max-merge makes replayed or reordered
   publishes harmless: generations only move forward. *)
let merge_gen_locked t kind fid gen =
  let gens = of_kind t.gens kind in
  let cur = Option.value (Int_tbl.find_opt gens fid) ~default:0 in
  if gen > cur then begin
    Int_tbl.replace gens fid gen;
    Pax_obs.Sink.count t.obs "pax_srv_gen_merges_total"
  end

let gens_locked t kind =
  Int_tbl.fold (fun fid gen acc -> (fid, gen) :: acc) (of_kind t.gens kind) []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let with_wlock (c : conn_entry) f =
  Mutex.lock c.c_wlock;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.c_wlock) f

let write_conn c payload =
  with_wlock c (fun () -> Sockio.write_frame c.c_fd payload)

(* Encode [msg] into [c]'s buffer and write it from there: the frame's
   length, and the clock readings around the encoding and the write. *)
let send_timed (c : conn_entry) ~corr msg =
  with_wlock c (fun () ->
      let te0 = Pax_obs.Clock.now () in
      Pax_bool.Codec.clear c.c_w;
      ignore (Wire.encode_frame c.c_w ~corr msg : Wire.tally);
      let len = Pax_bool.Codec.length c.c_w in
      let te1 = Pax_obs.Clock.now () in
      Sockio.write_bytes c.c_fd (Pax_bool.Codec.buffer c.c_w) len;
      (len, te0, te1, Pax_obs.Clock.now ()))

let send_conn c ~corr msg =
  let len, _, _, _ = send_timed c ~corr msg in
  len

(* Best-effort fan-out of a generation event to every live connection,
   the publisher included (its own merge is a no-op).  Correlation id
   0: nobody awaits these — clients route them by tag. *)
let broadcast_gens t kind gens =
  let out = Wire.encode_payload ~corr:0 (Wire.Gen_event { kind; gens }) in
  let targets =
    locked t (fun () -> Int_tbl.fold (fun _ c acc -> c :: acc) t.conns [])
  in
  List.iter
    (fun c ->
      match write_conn c out with
      | () ->
          locked t (fun () ->
              count_admin_frame t ~dir:"sent"
                ~frame_len:(4 + String.length out))
      | exception _ -> () (* a dying connection misses the event;
                             its owner resyncs with [Gen_fetch] *))
    targets

(* Replies echo the request's correlation id, so a demultiplexing
   client can route them to the right in-flight run without inspecting
   bodies.

   One thread per accepted connection: shared state is touched only
   under [t.lock] (compute is serialized by the OCaml runtime lock
   anyway), while [service_delay] sleeps and socket writes stay
   outside it so latency overlaps across connections.  Writes go
   through the per-connection write lock — [Gen_event] pushes share
   the socket with replies. *)
let serve t fd =
  (* One control-plane exchange: count the admin frame received, build
     the reply under [t.lock] inside an [admin] span, encode and write
     it, count the frame sent. *)
  let admin c ~frame_len ~corr ?parent ?args name reply =
    let out =
      locked t (fun () ->
          count_admin_frame t ~dir:"recv" ~frame_len;
          Pax_obs.Sink.span (spans_for t parent) ~cat:"admin" ?parent ?args
            name reply)
    in
    let frame_len = send_conn c ~corr out in
    locked t (fun () -> count_admin_frame t ~dir:"sent" ~frame_len)
  in
  let fid_arg fid () = [ ("fid", string_of_int fid) ] in
  (* Each frame is decoded where it lies in the reader's buffer. *)
  let decode b off len =
    let td0 = Pax_obs.Clock.now () in
    let decoded = Wire.decode_slice b off len in
    (4 + len, td0, Pax_obs.Clock.now (), decoded)
  in
  let rec conn_loop (c : conn_entry) rd =
    match Sockio.read_frame_with rd decode with
    | None -> `Eof
    | Some (frame_len, td0, td1, decoded) -> (
        match decoded with
        | Ok
            ( corr,
              Wire.Visit_request
                { run; round; site = _; epoch; label; call; parent },
              _ ) ->
            locked t (fun () -> count_visit_frame t ~dir:"recv" ~frame_len);
            if t.service_delay > 0. then Thread.delay t.service_delay;
            (* The visit span carries the coordinator's rpc-span id as
               its parent (the cross-process flow arrow); decode, memo,
               kernel and reply-encode spans nest under the visit.  An
               untraced frame records none of them. *)
            let spans = spans_for t parent in
            let vid = Pax_obs.Sink.alloc spans in
            let reply =
              locked t (fun () ->
                  Pax_obs.Sink.record spans ~cat:"wire" ?parent:vid
                    "decode request" ~t0:td0 ~t1:td1;
                  Pax_obs.Sink.span spans ~cat:"visit" ?id:vid ?parent
                    ~args:(fun () ->
                      [
                        ("run", string_of_int run); ("round", string_of_int round);
                      ])
                    label
                    (fun () ->
                      handle_request t ~run ~round ~epoch ?parent:vid call))
            in
            let frame_len, te0, te1, ts1 =
              send_timed c ~corr (Wire.Visit_reply { run; round; reply })
            in
            locked t (fun () ->
                Pax_obs.Sink.record spans ~cat:"wire" ?parent:vid
                  "encode reply" ~t0:te0 ~t1:te1;
                Pax_obs.Sink.record spans ~cat:"wire" ?parent:vid "send frame"
                  ~t0:te1 ~t1:ts1;
                count_visit_frame t ~dir:"sent" ~frame_len);
            conn_loop c rd
        | Ok (corr, Wire.Ping, _) ->
            ignore (send_conn c ~corr Wire.Pong);
            conn_loop c rd
        | Ok (corr, Wire.Stats_request, _) ->
            let out =
              locked t (fun () ->
                  Wire.Stats_reply
                    (Pax_obs.Metrics.pairs t.obs.Pax_obs.Sink.metrics))
            in
            ignore (send_conn c ~corr out);
            conn_loop c rd
        | Ok (corr, Wire.Spans_fetch, _) ->
            (* Drain the ring (atomically — concurrent visits keep
               recording) and stamp our clock while building the
               reply: the coordinator pairs the stamp with its own
               readings around this exchange to estimate this site's
               clock offset.  Telemetry like stats: no counters. *)
            let out =
              locked t (fun () ->
                  let spans = Pax_obs.Span.drain t.obs.Pax_obs.Sink.spans in
                  Wire.Spans_reply { server_now = Pax_obs.Clock.now (); spans })
            in
            ignore (send_conn c ~corr out);
            conn_loop c rd
        | Ok (_, Wire.Run_done { run }, _) ->
            (* The coordinator is done with this run: shed its stage
               state and reply memos (the bounded-memory contract of
               docs/SERVING.md).  No reply. *)
            locked t (fun () -> evict_run t run);
            conn_loop c rd
        | Ok (corr, Wire.Frag_fetch { fid; kind; parent }, _) ->
            admin c ~frame_len ~corr ?parent ~args:(fid_arg fid) "frag fetch"
              (fun () ->
                Wire.Frag_image { fid; image = fetch_image t ~fid ~kind });
            conn_loop c rd
        | Ok (corr, Wire.Frag_install { fid; epoch; image; parent }, _) ->
            admin c ~frame_len ~corr ?parent ~args:(fid_arg fid) "frag install"
              (fun () ->
                Wire.Admin_reply { reply = install_image t ~fid ~epoch image });
            conn_loop c rd
        | Ok (corr, Wire.Frag_update { fid; epoch; version; change; parent }, _)
          ->
            admin c ~frame_len ~corr ?parent ~args:(fid_arg fid) "frag update"
              (fun () ->
                Wire.Admin_reply
                  { reply = update_frag t ~fid ~epoch ~version change });
            conn_loop c rd
        | Ok (corr, Wire.Frag_retire { fid; epoch; kind; parent }, _) ->
            admin c ~frame_len ~corr ?parent ~args:(fid_arg fid) "frag retire"
              (fun () ->
                Wire.Admin_reply { reply = retire_frag t ~fid ~epoch ~kind });
            conn_loop c rd
        | Ok (corr, Wire.Gen_publish { kind; gens; parent }, _) ->
            let n = List.length gens in
            admin c ~frame_len ~corr ?parent
              ~args:(fun () -> [ ("n", string_of_int n) ])
              "gen publish"
              (fun () ->
                List.iter
                  (fun (fid, gen) -> merge_gen_locked t kind fid gen)
                  gens;
                Wire.Admin_reply
                  { reply = Ok (Printf.sprintf "merged %d generation(s)" n) });
            broadcast_gens t kind gens;
            conn_loop c rd
        | Ok (corr, Wire.Gen_fetch { kind; parent }, _) ->
            admin c ~frame_len ~corr ?parent "gen fetch" (fun () ->
                Wire.Gen_reply { kind; gens = gens_locked t kind });
            conn_loop c rd
        | Ok (_, Wire.Shutdown, _) -> `Shutdown
        | Ok
            ( _,
              ( Wire.Visit_reply _ | Wire.Pong | Wire.Stats_reply _
              | Wire.Frag_image _ | Wire.Admin_reply _ | Wire.Spans_reply _
              | Wire.Gen_event _ | Wire.Gen_reply _ ),
              _ ) ->
            (* Not ours to receive; ignore. *)
            conn_loop c rd
        | Error err ->
            Format.eprintf "site server: bad frame: %a@." Wire.pp_error err;
            `Eof)
  in
  (* Accept loop: poll (so a Shutdown seen by any connection thread can
     stop us without closing the listening socket — that stays the
     caller's), accept, hand off to a connection thread.  Connection
     threads still running when [serve] returns die with their sockets
     (spawned servers exit; in-process callers close the client side). *)
  let conn_thread c =
    let outcome = try conn_loop c (Sockio.reader c.c_fd) with _ -> `Eof in
    locked t (fun () ->
        Int_tbl.remove t.conns c.c_id;
        if outcome = `Shutdown then t.stopping <- true);
    try Unix.close c.c_fd with _ -> ()
  in
  let rec accept_loop () =
    if locked t (fun () -> t.stopping) then ()
    else if not (Sockio.poll_readable fd 0.05) then accept_loop ()
    else
      match Unix.accept fd with
      | conn, _ ->
          let c =
            locked t (fun () ->
                t.conn_seq <- t.conn_seq + 1;
                let c =
                  {
                    c_id = t.conn_seq;
                    c_fd = conn;
                    c_wlock = Mutex.create ();
                    c_w = Pax_bool.Codec.writer ();
                  }
                in
                Int_tbl.replace t.conns c.c_id c;
                c)
          in
          ignore (Thread.create conn_thread c);
          accept_loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
  in
  accept_loop ()

(* A site server's live data is a few fragment images, a few MB, but
   every visit leaves short-lived garbage (decoded frames, kernel
   scratch, replies memoized until the run is done), and at the
   runtime's default space overhead the major heap grows to three or
   four times the live data over a busy run.  A lower overhead keeps it
   near twice. *)
let tune_gc () = Gc.set { (Gc.get ()) with Gc.space_overhead = 40 }

let spawn ?max_runs ?service_delay ?gfrags ~addr ~frags () =
  (* Bind before forking so the parent can connect without racing the
     child's startup. *)
  let fd = Sockio.listen addr in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      tune_gc ();
      (try
         serve (create ?max_runs ?service_delay ?gfrags ~frags ()) fd
       with _ -> ());
      (try Unix.close fd with _ -> ());
      Unix._exit 0
  | pid ->
      (try Unix.close fd with _ -> ());
      pid
