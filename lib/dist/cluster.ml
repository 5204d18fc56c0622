type endpoint = Trace.endpoint = Coordinator | Site of int

type msg_kind = Trace.msg_kind =
  | Query
  | Vectors
  | Resolution
  | Answers
  | Tree_data

type message = {
  src : endpoint;
  dst : endpoint;
  kind : msg_kind;
  bytes : int;
  label : string;
}

exception Site_unreachable of { site : int; stage : string; attempts : int }

type round = { r_label : string; seconds : float array; ops : int array }

type t = {
  (* [None] for abstract clusters ([create_abstract]): engines over
     non-tree datasets (e.g. graph fragment stores) reuse the visit /
     message / retry machinery; only the XPath engines need the
     fragment tree itself. *)
  ft : Pax_frag.Fragment.t option;
  n_frags : int;
  n_sites : int;
  frag_site : int array;
  site_frags : int list array;
  visits : int array;
  (* Per-fragment hotness: how many round-participations listed each
     fragment (counted in [sites_holding], the single chokepoint every
     engine routes fragment→site lookups through).  The serving layer
     harvests this into its placement table after each run; the
     rebalancer's move policy is driven by it (docs/SHARDING.md). *)
  frag_touches : int array;
  (* Placement epoch of the table this cluster's [assign] was
     snapshotted from (0 = no placement table).  Reporting only — the
     transport handle carries the epoch that servers check. *)
  mutable epoch : int;
  mutable rounds_rev : round list;
  mutable current : round option;
  mutable coord_seconds : float;
  mutable coord_ops : int;
  trace : Trace.t;
  mutable fault : Fault.t;
  mutable retry : Retry.t;
  mutable round_no : int;
  mutable retries : int;
  mutable backoff_seconds : float;
  mutable domains : int;
  mutable transport : Transport.t option;
  mutable stage_cache : Stage_cache.t;
  mutable net_base : Transport.stats;
  mutable sink : Pax_obs.Sink.t;
  (* Simulated per-visit service latency (seconds), the in-process
     mirror of [Pax_net.Server]'s [service_delay]: charged into the
     visited site's round seconds once per *physical* visit execution
     (replays under a fault plan pay again), never slept.  Affects only
     the simulated-time fields of the report — answers, visit counts,
     traces and accounted traffic are bit-identical. *)
  mutable service_delay : float;
  (* The current run's site procedure for in-process rounds, set by
     [reset]. *)
  mutable handler : Transport.handler;
}

let no_handler _ ~round:_ _ =
  invalid_arg "Cluster.run_round: no site handler (see Cluster.reset)"

let site_track site = Printf.sprintf "site %d" site
let enabled t = t.sink.Pax_obs.Sink.enabled

let default_domains () =
  match Sys.getenv_opt "PAX_DOMAINS" with
  | Some s -> (
      match int_of_string_opt s with Some n when n >= 1 -> n | _ -> 1)
  | None -> 1

let create_gen ?domains ?transport ~ft ~n_frags ~n_sites ~assign () =
  let domains =
    match domains with Some d -> d | None -> default_domains ()
  in
  if domains < 1 then invalid_arg "Cluster.create: need domains >= 1";
  if n_sites < 1 then invalid_arg "Cluster.create: need at least one site";
  let n_frag = n_frags in
  let frag_site = Array.init n_frag assign in
  Array.iter
    (fun s ->
      if s < 0 || s >= n_sites then invalid_arg "Cluster.create: bad site index")
    frag_site;
  let site_frags = Array.make n_sites [] in
  for fid = n_frag - 1 downto 0 do
    site_frags.(frag_site.(fid)) <- fid :: site_frags.(frag_site.(fid))
  done;
  {
    ft;
    n_frags;
    n_sites;
    frag_site;
    site_frags;
    visits = Array.make n_sites 0;
    frag_touches = Array.make n_frag 0;
    epoch = 0;
    rounds_rev = [];
    current = None;
    coord_seconds = 0.;
    coord_ops = 0;
    trace = Trace.create ();
    fault = Fault.none;
    retry = Retry.default;
    round_no = 0;
    retries = 0;
    backoff_seconds = 0.;
    domains;
    transport;
    stage_cache = Stage_cache.noop;
    net_base = Transport.zero_stats;
    sink = Pax_obs.Sink.noop;
    service_delay = 0.;
    handler = no_handler;
  }

let create ?domains ?transport ~ftree ~n_sites ~assign () =
  create_gen ?domains ?transport ~ft:(Some ftree)
    ~n_frags:(Pax_frag.Fragment.n_fragments ftree)
    ~n_sites ~assign ()

let create_abstract ?domains ?transport ~n_frags ~n_sites ~assign () =
  if n_frags < 1 then
    invalid_arg "Cluster.create_abstract: need at least one fragment";
  create_gen ?domains ?transport ~ft:None ~n_frags ~n_sites ~assign ()

let one_site_per_fragment ?domains ftree =
  let n = Pax_frag.Fragment.n_fragments ftree in
  create ?domains ~ftree ~n_sites:n ~assign:Fun.id ()

let ftree t =
  match t.ft with
  | Some ft -> ft
  | None ->
      invalid_arg "Cluster.ftree: abstract cluster holds no fragment tree"

let n_frags t = t.n_frags
let n_sites t = t.n_sites
let domains t = t.domains

let set_domains t d =
  if d < 1 then invalid_arg "Cluster.set_domains: need domains >= 1";
  t.domains <- d
let site_of t fid = t.frag_site.(fid)
let fragments_on t site = t.site_frags.(site)

let sites_holding t fids =
  List.iter
    (fun fid ->
      t.frag_touches.(fid) <- t.frag_touches.(fid) + 1;
      if enabled t then
        Pax_obs.Sink.count t.sink
          ~labels:[ ("fid", string_of_int fid) ]
          "pax_site_fragment_visits_total")
    fids;
  List.sort_uniq Int.compare (List.map (fun fid -> t.frag_site.(fid)) fids)

let frag_touches t = Array.copy t.frag_touches
let epoch t = t.epoch
let set_epoch t e = t.epoch <- e

let trace t = t.trace
let sink t = t.sink
let set_sink t s = t.sink <- s
let set_fault t plan = t.fault <- plan
let set_retry t policy = t.retry <- policy
let set_transport t tr = t.transport <- tr
let transport_active t = Option.is_some t.transport
let set_stage_cache t c = t.stage_cache <- c
let stage_cache t = t.stage_cache

let set_service_delay t d =
  if d < 0. then invalid_arg "Cluster.set_service_delay: negative delay";
  t.service_delay <- d

let service_delay t = t.service_delay
let cur_net_stats t = Option.map (fun tr -> tr.Transport.stats ()) t.transport

let net_stats t =
  Option.map (fun cur -> Transport.diff_stats cur t.net_base) (cur_net_stats t)

(* Back off before the next attempt (simulated time only) and record the
   retry, or raise once the policy's budget is exhausted. *)
let retry_or_give_up t ~site ~round ~stage ~attempt ~reason =
  if Retry.should_retry t.retry ~attempt then begin
    t.retries <- t.retries + 1;
    t.backoff_seconds <-
      t.backoff_seconds +. Retry.delay_before t.retry ~attempt:(attempt + 1);
    Pax_obs.Sink.count t.sink "pax_retries_total";
    Trace.add t.trace (Trace.Retry { site; round; attempt; reason })
  end
  else begin
    Trace.add t.trace (Trace.Gave_up { site; round; attempts = attempt });
    raise (Site_unreachable { site; stage; attempts = attempt })
  end

(* The fate walk of one (site, round) visit: deliver the request,
   execute, deliver the reply — any leg may fail under the fault plan
   and be retried.  Every [Visit] event is one physical execution.
   Returns the attempt whose reply gets through and the number of
   executions before it whose reply was lost. *)
let walk_fates t ~round ~label ~site =
  let emit ev = Trace.add t.trace ev in
  let retry ~attempt ~reason =
    retry_or_give_up t ~site ~round ~stage:label ~attempt ~reason
  in
  let rec go ~was_down ~replay attempt lost =
    let restart () =
      if was_down then emit (Trace.Site_restart { site; round; attempt })
    in
    match Fault.on_visit t.fault ~site ~round ~attempt with
    | Fault.Down ->
        emit (Trace.Site_down { site; round; attempt });
        retry ~attempt ~reason:"site down";
        go ~was_down:true ~replay (attempt + 1) lost
    | Fault.Lost_request ->
        restart ();
        retry ~attempt ~reason:"visit request dropped";
        go ~was_down:false ~replay (attempt + 1) lost
    | (Fault.Visit_ok | Fault.Lost_reply) as fate ->
        restart ();
        emit (Trace.Visit { site; round; attempt; replay });
        if fate = Fault.Visit_ok then (attempt, lost)
        else begin
          retry ~attempt ~reason:"visit reply dropped";
          go ~was_down:false ~replay:true (attempt + 1) (lost + 1)
        end
  in
  go ~was_down:false ~replay:false 1 0

let send t ~src ~dst ~kind ~bytes ~label =
  if enabled t then begin
    (* One logical message per send, whatever the fault plan does to its
       delivery; the metrics mirror Trace's logical accounting. *)
    let labels = [ ("kind", Trace.kind_name kind) ] in
    Pax_obs.Sink.count t.sink ~labels "pax_messages_total";
    Pax_obs.Sink.count t.sink ~labels ~by:(float_of_int bytes)
      "pax_message_bytes_total"
  end;
  (* Sends belong to the round in flight, or else the one just run (0
     before any). *)
  let round = max 0 (t.round_no - 1) in
  let site = match (dst, src) with Site s, _ | _, Site s -> s | _ -> -1 in
  let rec go attempt =
    let ctx =
      {
        Fault.m_src = src;
        m_dst = dst;
        m_kind = kind;
        m_label = label;
        m_round = round;
        m_attempt = attempt;
      }
    in
    let status =
      match Fault.on_message t.fault ctx with
      | Fault.Deliver -> Trace.Delivered
      | Fault.Drop -> Trace.Dropped
      | Fault.Duplicate -> Trace.Duplicated
      | Fault.Delay s -> Trace.Delayed s
    in
    Trace.add t.trace
      (Trace.Message { src; dst; kind; bytes; label; attempt; status });
    match status with
    | Trace.Delivered | Trace.Duplicated -> ()
    | Trace.Delayed s -> t.backoff_seconds <- t.backoff_seconds +. s
    | Trace.Dropped ->
        retry_or_give_up t ~site ~round ~stage:label ~attempt
          ~reason:("message dropped: " ^ label);
        go (attempt + 1)
  in
  go 1

(* What accounting charges for a section: its kind, or [None] for the
   two kinds that travel uncharged — a call's [Vectors] (the
   annotation-pruned initial vectors, docs/NETWORK.md) and a
   [Frag_flat] image (Naive charges its fragments as [Tree_data] of
   their printed size itself). *)
let charged ~down : Pax_wire.Wire.section -> msg_kind option = function
  | Query _ -> Some Query
  | Vectors _ -> if down then None else Some Vectors
  | Resolution _ -> Some Resolution
  | Answers _ -> Some Answers
  | Tree_data _ -> Some Tree_data
  | Frag_flat _ -> None

(* A round's traffic, derived from the wire: one logical message per
   charged section of the site's call (coordinator to site), then of
   its reply (site to coordinator). *)
let account t ~site ~call ~reply =
  let section ~src ~dst ~down label sec =
    match charged ~down sec with
    | Some kind ->
        send t ~src ~dst ~kind ~bytes:(Pax_wire.Wire.section_bytes sec) ~label
    | None -> ()
  in
  Pax_wire.Wire.call_sections
    (section ~src:Coordinator ~dst:(Site site) ~down:true)
    call;
  Pax_wire.Wire.reply_sections
    (section ~src:(Site site) ~dst:Coordinator ~down:false)
    reply

type 'a remote = {
  build : int -> Pax_wire.Wire.call;
  parse : int -> Pax_wire.Wire.reply -> 'a;
}

(* The round, on either backend.  First each site walks its fates, in
   input order: [Down] and [Lost_request] deliver nothing and charge the
   retry budget.  Every execution whose reply the plan loses is
   delivered alone, ahead of the round, and its reply discarded — the
   site's per-round reply memo answers the later deliveries.  Then the
   transport delivers every request (pipelined across sites on
   sockets, over the domain pool in process), and replies are parsed
   over the pool when one is configured — parse callbacks only touch
   their own site's state (per-fragment view cells, per-site op
   counters, mutexed caches), so the only synchronization needed is the
   input-site-order merge of seconds and spans afterwards.  Real
   delivery failures come back through [retry], numbered after the
   site's simulated attempts so both share one budget — here the
   backoff is physically slept, since a restarting server needs the
   wall-clock time.  Each site's call is built once and reused for
   every delivery.  Returns the parsed results and, in input site
   order, each site's call and reply, from which [run_round] accounts
   the round's traffic. *)
let deliver t r ~round ~label ~sites (rm : 'a remote) =
  let tr =
    match t.transport with
    | Some tr -> tr
    | None ->
        (* The inline degree-1 pool has no queue to wait in: not
           instrumented. *)
        let obs = if t.domains > 1 then t.sink else Pax_obs.Sink.noop in
        Transport.local ~obs ~domains:t.domains ~service_delay:t.service_delay
          t.handler
  in
  let next_attempt = Array.make t.n_sites 1 in
  let lost =
    List.concat_map
      (fun site ->
        t.visits.(site) <- t.visits.(site) + 1;
        let attempt, lost = walk_fates t ~round ~label ~site in
        next_attempt.(site) <- attempt;
        List.init lost (fun _ -> site))
      sites
  in
  let retry ~site ~attempt:_ ~reason =
    let attempt = next_attempt.(site) in
    next_attempt.(site) <- attempt + 1;
    retry_or_give_up t ~site ~round ~stage:label ~attempt ~reason;
    Unix.sleepf (Retry.delay_before t.retry ~attempt:(attempt + 1))
  in
  let calls = List.map (fun site -> (site, rm.build site)) sites in
  let visit calls = tr.Transport.visit_round ~round ~label ~retry calls in
  List.iter
    (fun (site, _, secs) -> r.seconds.(site) <- r.seconds.(site) +. secs)
    (List.concat_map
       (fun site -> visit [ (site, List.assoc site calls) ])
       lost);
  let replies = Array.of_list (visit calls) in
  let parsed =
    (* [Pool.map] re-raises the smallest failing index's exception
       after the barrier, so a decode failure is observed at the same
       reply as on the sequential path. *)
    if t.domains > 1 && Array.length replies > 1 then
      Pool.map
        (Pool.shared ~domains:t.domains)
        (fun (site, reply, _) -> rm.parse site reply)
        replies
    else Array.map (fun (site, reply, _) -> rm.parse site reply) replies
  in
  let results =
    List.mapi
      (fun i (site, _, secs) ->
        r.seconds.(site) <- r.seconds.(site) +. secs;
        (* Spans are synthesized at merge time from the site-side
           duration: the interval ends "now" and lasted [secs]. *)
        if enabled t then begin
          let t1 = Pax_obs.Clock.now () in
          Pax_obs.Sink.record t.sink ~cat:"visit" ~track:(site_track site)
            ~args:
              [
                ("round", string_of_int round);
                ("remote", string_of_bool (Option.is_some t.transport));
              ]
            label ~t0:(t1 -. secs) ~t1
        end;
        (site, parsed.(i)))
      (Array.to_list replies)
  in
  let traffic =
    List.mapi
      (fun i (site, call) ->
        let _, reply, _ = replies.(i) in
        (site, call, reply))
      calls
  in
  (results, traffic)

let run_round t ~label ~sites rm =
  let round = t.round_no in
  t.round_no <- round + 1;
  Trace.add t.trace (Trace.Round_start { round; label });
  let r =
    {
      r_label = label;
      seconds = Array.make t.n_sites 0.;
      ops = Array.make t.n_sites 0;
    }
  in
  t.current <- Some r;
  (* One visit per (site, round), even if a caller lists a site twice;
     results come back in this deduplicated input order. *)
  let seen = Hashtbl.create 8 in
  let sites =
    List.filter
      (fun s ->
        if Hashtbl.mem seen s then false
        else begin
          Hashtbl.add seen s ();
          true
        end)
      sites
  in
  let dispatch () = deliver t r ~round ~label ~sites rm in
  let results, traffic =
    if not (enabled t) then dispatch ()
    else begin
      Pax_obs.Sink.count t.sink "pax_rounds_total";
      List.iter
        (fun site ->
          Pax_obs.Sink.count t.sink
            ~labels:[ ("site", string_of_int site) ]
            "pax_visits_total")
        sites;
      let t0 = Pax_obs.Clock.now () in
      let finish () =
        let t1 = Pax_obs.Clock.now () in
        Pax_obs.Sink.record t.sink ~cat:"round"
          ~args:
            [
              ("round", string_of_int round);
              ("sites", string_of_int (List.length sites));
            ]
          ("round " ^ label) ~t0 ~t1;
        Pax_obs.Sink.observe t.sink "pax_round_seconds" (t1 -. t0)
      in
      match dispatch () with
      | v ->
          finish ();
          v
      | exception e ->
          finish ();
          raise e
    end
  in
  t.current <- None;
  t.rounds_rev <- r :: t.rounds_rev;
  (* Accounted once the round is recorded, as the engines' own sends
     once were: a message given up on leaves the round in the report. *)
  List.iter (fun (site, call, reply) -> account t ~site ~call ~reply) traffic;
  results

let coord t ~label f =
  let t0 = Pax_obs.Clock.now () in
  let result = f () in
  let t1 = Pax_obs.Clock.now () in
  t.coord_seconds <- t.coord_seconds +. (t1 -. t0);
  if enabled t then Pax_obs.Sink.record t.sink ~cat:"stage" label ~t0 ~t1;
  result

let add_ops t ~site n =
  if site < 0 then t.coord_ops <- t.coord_ops + n
  else
    (* Parse callbacks may run on pool domains: each charges only its
       own site, so distinct sites write distinct cells. *)
    match t.current with
    | Some r -> r.ops.(site) <- r.ops.(site) + n
    | None -> ()

let reset ?(handler = no_handler) t =
  t.handler <- handler;
  Array.fill t.visits 0 t.n_sites 0;
  Array.fill t.frag_touches 0 t.n_frags 0;
  t.rounds_rev <- [];
  t.current <- None;
  t.coord_seconds <- 0.;
  t.coord_ops <- 0;
  Trace.clear t.trace;
  t.round_no <- 0;
  t.retries <- 0;
  t.backoff_seconds <- 0.;
  Pax_obs.Sink.clear t.sink;
  match t.transport with
  | Some tr ->
      tr.Transport.reset_run ();
      t.net_base <- tr.Transport.stats ()
  | None -> ()

(* The one traffic ledger is the trace: one message per copy that
   crossed the wire, as [Trace.physical_messages] counts them (a
   duplicated delivery put a spurious second copy on it). *)
let messages t =
  List.concat_map
    (function
      | Trace.Message { src; dst; kind; bytes; label; status; _ } ->
          let m = { src; dst; kind; bytes; label } in
          List.init (Trace.physical_of_status status) (fun _ -> m)
      | _ -> [])
    (Trace.events t.trace)

type report = {
  parallel_seconds : float;
  total_seconds : float;
  coord_seconds : float;
  parallel_ops : int;
  total_ops : int;
  visits : int array;
  max_visits : int;
  retries : int;
  rounds : string list;
  control_bytes : int;
  answer_bytes : int;
  tree_bytes : int;
  n_messages : int;
  net_seconds : float;
  measured_bytes : int option;
}

let report t =
  let rounds = List.rev t.rounds_rev in
  let fmax a = Array.fold_left max 0. a in
  let fsum a = Array.fold_left ( +. ) 0. a in
  let imax a = Array.fold_left max 0 a in
  let isum a = Array.fold_left ( + ) 0 a in
  let parallel_seconds =
    List.fold_left (fun acc r -> acc +. fmax r.seconds) t.coord_seconds rounds
  in
  let total_seconds =
    List.fold_left (fun acc r -> acc +. fsum r.seconds) t.coord_seconds rounds
  in
  let parallel_ops =
    List.fold_left (fun acc r -> acc + imax r.ops) t.coord_ops rounds
  in
  let total_ops =
    List.fold_left (fun acc r -> acc + isum r.ops) t.coord_ops rounds
  in
  let messages = messages t in
  let control_bytes, answer_bytes, tree_bytes =
    List.fold_left
      (fun (c, d, f) m ->
        match m.kind with
        | Answers -> (c, d + m.bytes, f)
        | Tree_data -> (c, d, f + m.bytes)
        | Query | Vectors | Resolution -> (c + m.bytes, d, f))
      (0, 0, 0) messages
  in
  (* LAN-like wire model: 0.1 ms per message plus 100 MB/s, plus any
     simulated retry backoff and injected delays. *)
  let net_seconds =
    List.fold_left
      (fun acc m -> acc +. 0.0001 +. (float_of_int m.bytes /. 100_000_000.))
      t.backoff_seconds messages
  in
  {
    parallel_seconds;
    total_seconds;
    coord_seconds = t.coord_seconds;
    parallel_ops;
    total_ops;
    visits = Array.copy t.visits;
    max_visits = imax t.visits;
    retries = t.retries;
    rounds = List.map (fun r -> r.r_label) rounds;
    control_bytes;
    answer_bytes;
    tree_bytes;
    n_messages = List.length messages;
    net_seconds;
    measured_bytes =
      Option.map
        (fun (s : Transport.stats) -> s.sent_bytes + s.received_bytes)
        (net_stats t);
  }

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>parallel: %.4fs (%d ops)@,total:    %.4fs (%d ops)@,\
     coordinator: %.4fs@,visits: [%s] (max %d)%s@,rounds: %s@,\
     traffic: %d control + %d answer + %d tree bytes in %d messages (net %.4fs)%s@]"
    r.parallel_seconds r.parallel_ops r.total_seconds r.total_ops
    r.coord_seconds
    (String.concat "; " (Array.to_list (Array.map string_of_int r.visits)))
    r.max_visits
    (if r.retries > 0 then Printf.sprintf " after %d retries" r.retries else "")
    (String.concat " -> " r.rounds)
    r.control_bytes r.answer_bytes r.tree_bytes r.n_messages r.net_seconds
    (match r.measured_bytes with
    | Some b -> Printf.sprintf "; measured on wire: %d bytes" b
    | None -> "")
