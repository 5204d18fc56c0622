(* pax — command-line front end.

   Subcommands:
     pax gen       generate an XMark-style document
     pax query     evaluate an XPath query over a (fragmented) document
     pax inspect   document statistics
     pax explain   parse/normalize/compile a query and show the pieces

   Examples:
     pax gen -n 50000 -s 10 -o sites.xml
     pax query sites.xml '/sites/site/people/person' --algo pax2 --annotations \
         --fragment-tag site --stats
     pax serve store/ --site 0 --listen unix:/tmp/s0.sock &
     pax query store/ '//person' --connect unix:/tmp/s0.sock,unix:/tmp/s1.sock
     pax explain 'a[b/text() = "x"]//c' *)

module Tree = Pax_xml.Tree
module Parser = Pax_xml.Parser
module Printer = Pax_xml.Printer
module Query = Pax_xpath.Query
module Fragment = Pax_frag.Fragment
module Cluster = Pax_dist.Cluster
module Xmark = Pax_xmark.Xmark
open Cmdliner

(* ------------------------------------------------------------------ *)
(* gen                                                                *)
(* ------------------------------------------------------------------ *)

let gen_cmd =
  let run nodes sites seed output =
    let doc = Xmark.doc ~seed ~total_nodes:nodes ~n_sites:sites in
    let xml = Printer.to_string ~indent:true doc.Tree.root in
    (match output with
    | Some path ->
        let oc = open_out path in
        output_string oc xml;
        close_out oc;
        Printf.printf "wrote %s: %d nodes, %d bytes\n" path doc.Tree.node_count
          (String.length xml)
    | None -> print_string xml);
    0
  in
  let nodes =
    Arg.(value & opt int 10_000 & info [ "n"; "nodes" ] ~doc:"Total node budget.")
  in
  let sites =
    Arg.(value & opt int 4 & info [ "s"; "sites" ] ~doc:"Number of XMark site subtrees.")
  in
  let seed = Arg.(value & opt int 2007 & info [ "seed" ] ~doc:"PRNG seed.") in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"Output file.")
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate an XMark-style document.")
    Term.(const run $ nodes $ sites $ seed $ output)

(* ------------------------------------------------------------------ *)
(* query                                                              *)
(* ------------------------------------------------------------------ *)

type algo = Pax2 | Pax3 | Naive | Centralized | Stream

let algo_conv =
  Arg.enum
    [ ("pax2", Pax2); ("pax3", Pax3); ("naive", Naive);
      ("centralized", Centralized); ("stream", Stream) ]

type placement = Per_fragment | Round_robin | Balanced

let placement_conv =
  Arg.enum
    [ ("per-fragment", Per_fragment); ("round-robin", Round_robin);
      ("balanced", Balanced) ]

let make_cuts doc ~fragment_tag ~fragment_budget =
  match (fragment_tag, fragment_budget) with
  | Some tag, _ -> Fragment.cuts_by_tag doc ~tag
  | None, Some budget -> Fragment.cuts_by_size doc ~budget
  | None, None -> []

(* FILE may be a plain document or a fragment-store directory. *)
let load_ftree file ~fragment_tag ~fragment_budget =
  if Pax_frag.Store.is_store file then Pax_frag.Store.load ~dir:file
  else
    let doc = Parser.parse_file file in
    Fragment.fragmentize doc ~cuts:(make_cuts doc ~fragment_tag ~fragment_budget)

let build_cluster ft ~n_sites ~placement =
  let n = Fragment.n_fragments ft in
  match (n_sites, placement) with
  | None, _ -> Cluster.one_site_per_fragment ft
  | Some k, placement -> (
      let k = max 1 (min k n) in
      match placement with
      | Per_fragment | Round_robin ->
          Pax_dist.Placement.cluster_round_robin ft ~n_sites:k
      | Balanced -> Pax_dist.Placement.cluster_balanced ft ~n_sites:k)

let parse_connect spec =
  Array.of_list
    (List.map
       (fun s ->
         match Pax_net.Sockio.addr_of_string (String.trim s) with
         | Ok a -> a
         | Error e -> invalid_arg e)
       (String.split_on_char ',' spec))

(* [--report-out]: one compact JSON document per run. *)
let write_json path doc =
  let oc = open_out path in
  output_string oc (Pax_obs.Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" path

let metrics_json pairs =
  Pax_obs.Json.Obj (List.map (fun (k, v) -> (k, Pax_obs.Json.Num v)) pairs)

let query_cmd =
  let run file query_text algo annotations fragment_tag fragment_budget n_sites
      placement simplify stats quiet fault_seed fault_drop fault_crash retries
      show_trace domains connect trace_out report_out =
    match
      let ft = load_ftree file ~fragment_tag ~fragment_budget in
      let q =
        if simplify then Pax_xpath.Simplify.query query_text
        else Query.of_string query_text
      in
      let connect_addrs = Option.map parse_connect connect in
      (* Telemetry is opt-in: with neither --stats nor --trace-out the
         noop sink is threaded through and the run is bit-identical to
         an uninstrumented one. *)
      let sink =
        if stats || trace_out <> None || report_out <> None then
          Pax_obs.Sink.create ()
        else Pax_obs.Sink.noop
      in
      let result =
        match algo with
        | Centralized ->
            let r = Pax_core.Centralized.run q (Fragment.reassemble ft) in
            `Centralized r
        | Stream ->
            let xml = Printer.to_string (Fragment.reassemble ft) in
            `Stream (Pax_core.Stream_eval.over_string q xml)
        | (Pax2 | Pax3 | Naive) as a ->
            (* With --connect, the default site count is the number of
               listed servers, not one per fragment. *)
            let n_sites =
              match (connect_addrs, n_sites) with
              | Some addrs, None -> Some (Array.length addrs)
              | _ -> n_sites
            in
            let cluster = build_cluster ft ~n_sites ~placement in
            Cluster.set_domains cluster (max 1 domains);
            Cluster.set_sink cluster sink;
            (match fault_seed with
            | Some seed ->
                Cluster.set_fault cluster
                  (Pax_dist.Fault.seeded ~drop:fault_drop ~dup:(fault_drop /. 2.)
                     ~lose:(fault_drop /. 2.) ~crash:fault_crash ~seed ())
            | None -> ());
            (match retries with
            | Some n ->
                Cluster.set_retry cluster
                  { Pax_dist.Retry.default with max_attempts = max 1 n }
            | None -> ());
            let client =
              match connect_addrs with
              | None -> None
              | Some addrs ->
                  if Array.length addrs <> Cluster.n_sites cluster then
                    invalid_arg
                      (Printf.sprintf
                         "--connect lists %d address(es) but the cluster has \
                          %d sites"
                         (Array.length addrs) (Cluster.n_sites cluster));
                  let c = Pax_net.Client.create ~addrs () in
                  Pax_net.Client.set_sink c sink;
                  Cluster.set_transport cluster
                    (Some (Pax_net.Client.transport c));
                  Some c
            in
            let engine =
              match a with
              | Pax2 -> "pax2"
              | Pax3 -> "pax3"
              | Naive | Centralized | Stream -> "naive"
            in
            let r, server_stats, server_spans =
              Fun.protect
                ~finally:(fun () -> Option.iter Pax_net.Client.close client)
                (fun () ->
                  let r =
                    match a with
                    | Pax2 -> Pax_core.Pax2.run ~annotations cluster q
                    | Pax3 -> Pax_core.Pax3.run ~annotations cluster q
                    | Naive | Centralized | Stream ->
                        Pax_core.Naive.run cluster q
                  in
                  (* Pull each site server's counters while the
                     connections are still open; the raw-IO fetch does
                     not disturb the counters it reads. *)
                  let server_stats =
                    match client with
                    | Some c when stats || report_out <> None ->
                        List.init (Cluster.n_sites cluster) (fun site ->
                            match Pax_net.Client.fetch_stats c site with
                            | pairs -> (site, pairs)
                            | exception _ -> (site, []))
                    | _ -> []
                  in
                  (* Harvest each site's span ring together with its
                     estimated clock offset, for the merged multi-
                     process Perfetto export (docs/OBSERVABILITY.md). *)
                  let server_spans =
                    match client with
                    | Some c when trace_out <> None ->
                        List.init (Cluster.n_sites cluster) (fun site ->
                            match Pax_net.Client.fetch_spans c site with
                            | offset, spans -> (site, offset, spans)
                            | exception _ -> (site, 0., []))
                    | _ -> []
                  in
                  (r, server_stats, server_spans))
            in
            `Distributed (r, engine, server_stats, server_spans)
      in
      (match result with
      | `Stream r ->
          Printf.printf "%d answer(s) at pre-order indices: %s\n"
            (List.length r.Pax_core.Stream_eval.matches)
            (String.concat ", "
               (List.map string_of_int r.Pax_core.Stream_eval.matches));
          if stats then
            Printf.printf
              "elements: %d | max depth: %d | peak pending: %d\n"
              r.Pax_core.Stream_eval.elements r.Pax_core.Stream_eval.max_depth
              r.Pax_core.Stream_eval.peak_pending;
          Option.iter
            (fun path ->
              let module J = Pax_obs.Json in
              write_json path
                (J.Obj
                   [
                     ("query", J.Str query_text);
                     ("engine", J.Str "stream");
                     ( "answers",
                       J.int (List.length r.Pax_core.Stream_eval.matches) );
                   ]))
            report_out
      | `Centralized r ->
          Printf.printf "%d answer(s)\n" (List.length r.Pax_core.Centralized.answers);
          if not quiet then
            List.iter
              (fun n -> print_string (Printer.to_string n))
              r.Pax_core.Centralized.answers;
          Option.iter
            (fun path ->
              let module J = Pax_obs.Json in
              write_json path
                (J.Obj
                   [
                     ("query", J.Str query_text);
                     ("engine", J.Str "centralized");
                     ( "answers",
                       J.int (List.length r.Pax_core.Centralized.answers) );
                   ]))
            report_out
      | `Distributed (r, engine, server_stats, _) ->
          Printf.printf "%d answer(s)\n" (List.length r.Pax_core.Run_result.answers);
          if not quiet then
            List.iter
              (fun n -> print_string (Printer.to_string n))
              r.Pax_core.Run_result.answers;
          (* Audit once, then ledger the predicted-vs-actual ratios
             into the sink *before* any metrics dump, so the printed
             telemetry and the JSON report both carry the
             pax_cost_* series for this run. *)
          let audit = Pax_core.Guarantee.audit ~engine ~ftree:ft r in
          Pax_obs.Audit.ledger sink ~engine audit;
          if stats then begin
            Format.printf "%a@."
              Cluster.pp_report r.Pax_core.Run_result.report;
            if sink.Pax_obs.Sink.enabled then begin
              print_string "# coordinator telemetry\n";
              print_string
                (Pax_obs.Metrics.dump sink.Pax_obs.Sink.metrics)
            end;
            List.iter
              (fun (site, pairs) ->
                Printf.printf "# site S%d telemetry\n" site;
                List.iter
                  (fun (name, v) -> Printf.printf "%s %g\n" name v)
                  (Pax_obs.Metrics.of_pairs pairs))
              server_stats;
            Format.printf "%a@." Pax_obs.Audit.pp audit
          end;
          (match report_out with
          | Some path ->
              let module J = Pax_obs.Json in
              let report = r.Pax_core.Run_result.report in
              write_json path
                (J.Obj
                   [
                     ("query", J.Str query_text);
                     ("engine", J.Str engine);
                     ( "answers",
                       J.int (List.length r.Pax_core.Run_result.answers) );
                     ( "report",
                       J.Obj
                         [
                           ( "rounds",
                             J.List
                               (List.map
                                  (fun l -> J.Str l)
                                  report.Cluster.rounds) );
                           ( "visits",
                             J.List
                               (Array.to_list
                                  (Array.map J.int report.Cluster.visits)) );
                           ("max_visits", J.int report.Cluster.max_visits);
                           ("total_ops", J.int report.Cluster.total_ops);
                           ("parallel_ops", J.int report.Cluster.parallel_ops);
                           ("retries", J.int report.Cluster.retries);
                           ("control_bytes", J.int report.Cluster.control_bytes);
                           ("answer_bytes", J.int report.Cluster.answer_bytes);
                           ("tree_bytes", J.int report.Cluster.tree_bytes);
                           ("n_messages", J.int report.Cluster.n_messages);
                           ("total_seconds", J.Num report.Cluster.total_seconds);
                           ( "parallel_seconds",
                             J.Num report.Cluster.parallel_seconds );
                           ("net_seconds", J.Num report.Cluster.net_seconds);
                           ( "measured_bytes",
                             match report.Cluster.measured_bytes with
                             | Some b -> J.int b
                             | None -> J.Null );
                         ] );
                     ( "metrics",
                       metrics_json
                         (Pax_obs.Metrics.pairs sink.Pax_obs.Sink.metrics) );
                     ( "server_metrics",
                       J.List
                         (List.map
                            (fun (site, pairs) ->
                              J.Obj
                                [
                                  ("site", J.int site);
                                  ("metrics", metrics_json pairs);
                                ])
                            server_stats) );
                     ("audit", Pax_obs.Audit.to_json audit);
                     (* The cost ledger: the auditor's predicted bound
                        next to the actual it governs, per bound, plus
                        the run's wall-clock latency. *)
                     ( "cost",
                       J.Obj
                         [
                           ( "latency_seconds",
                             J.Num report.Cluster.total_seconds );
                           ( "bounds",
                             J.List
                               (List.map
                                  (fun (b : Pax_obs.Audit.bound) ->
                                    J.Obj
                                      [
                                        ("name", J.Str b.b_name);
                                        ("formula", J.Str b.b_formula);
                                        ("predicted_limit", J.Num b.b_limit);
                                        ("actual", J.Num b.b_actual);
                                        ( "ratio",
                                          if b.b_limit > 0. then
                                            J.Num (b.b_actual /. b.b_limit)
                                          else J.Null );
                                        ("margin", J.Num b.b_margin);
                                        ("pass", J.Bool b.b_pass);
                                      ])
                                  audit.Pax_obs.Audit.bounds) );
                         ] );
                   ])
          | None -> ());
          if show_trace then
            match r.Pax_core.Run_result.trace with
            | Some tr ->
                (* Header: the execution mode the trace was produced
                   under. *)
                let mode =
                  if connect <> None then "remote sites over sockets"
                  else if domains > 1 then
                    Printf.sprintf "parallel, pool of %d domains" domains
                  else "sequential"
                in
                let mode =
                  if fault_seed <> None then mode ^ " (fault plan active)"
                  else mode
                in
                Format.printf "# trace: %s@.%a@." mode Pax_dist.Trace.pp tr
            | None -> ());
      match trace_out with
      | Some path -> (
          let spans = Pax_obs.Span.spans sink.Pax_obs.Sink.spans in
          match result with
          | `Distributed (_, _, _, ((_ :: _) as server_spans)) ->
              (* Distributed run over sockets: one Perfetto file with
                 the coordinator track plus every site server's,
                 aligned onto the coordinator's clock via the offsets
                 estimated at harvest (docs/OBSERVABILITY.md). *)
              let procs =
                {
                  Pax_obs.Chrome.pr_name = "coordinator";
                  pr_offset = 0.;
                  pr_spans = spans;
                }
                :: List.map
                     (fun (site, offset, sp) ->
                       {
                         Pax_obs.Chrome.pr_name =
                           Printf.sprintf "site S%d" site;
                         pr_offset = offset;
                         pr_spans = sp;
                       })
                     server_spans
              in
              Pax_obs.Chrome.write_file_processes path procs;
              Printf.printf "wrote %s: %d span(s) across %d process(es)\n"
                path
                (List.fold_left
                   (fun n p -> n + List.length p.Pax_obs.Chrome.pr_spans)
                   0 procs)
                (List.length procs)
          | _ ->
              Pax_obs.Chrome.write_file path spans;
              Printf.printf "wrote %s: %d span(s)\n" path (List.length spans))
      | None -> ()
    with
    | () -> 0
    | exception Cluster.Site_unreachable { site; stage; attempts } ->
        Printf.eprintf
          "site S%d unreachable during %s after %d attempts (retry budget \
           exhausted)\n"
          site stage attempts;
        2
    | exception Pax_dist.Transport.Remote_failure { site; message } ->
        Printf.eprintf "site S%d failed: %s\n" site message;
        2
    | exception Unix.Unix_error (err, fn, arg) ->
        Printf.eprintf "network error: %s %s: %s\n" fn arg
          (Unix.error_message err);
        2
    | exception Parser.Parse_error { pos; msg } ->
        Printf.eprintf "XML error at byte %d: %s\n" pos msg;
        1
    | exception Pax_xpath.Parse.Syntax_error { pos; msg } ->
        Printf.eprintf "query error at character %d: %s\n" pos msg;
        1
    | exception Invalid_argument e ->
        Printf.eprintf "%s\n" e;
        1
    | exception Sys_error e ->
        Printf.eprintf "%s\n" e;
        1
  in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let query_text =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY")
  in
  let algo =
    Arg.(value & opt algo_conv Pax2 & info [ "algo" ] ~doc:"pax2, pax3, naive or centralized.")
  in
  let annotations =
    Arg.(value & flag & info [ "annotations"; "xa" ] ~doc:"Use XPath-annotations.")
  in
  let fragment_tag =
    Arg.(value & opt (some string) None & info [ "fragment-tag" ] ~doc:"Cut at every node with this tag.")
  in
  let fragment_budget =
    Arg.(value & opt (some int) None & info [ "fragment-budget" ] ~doc:"Cut into fragments of at most this many nodes.")
  in
  let n_sites =
    Arg.(value & opt (some int) None & info [ "machines" ] ~doc:"Number of simulated sites (default: one per fragment).")
  in
  let stats =
    Arg.(value & flag
         & info [ "stats" ]
             ~doc:"Print the cost report, telemetry counters \
                   (Prometheus text format; with $(b,--connect) also \
                   each site server's) and the guarantee-auditor \
                   verdicts for the paper's visit/communication/\
                   computation bounds.")
  in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Do not print answer elements.") in
  let placement =
    Arg.(value & opt placement_conv Round_robin
         & info [ "placement" ] ~doc:"per-fragment, round-robin or balanced (with --machines).")
  in
  let simplify =
    Arg.(value & flag & info [ "simplify" ] ~doc:"Algebraically simplify the query first.")
  in
  let fault_seed =
    Arg.(value & opt (some int) None
         & info [ "fault-seed" ] ~doc:"Inject a deterministic random fault schedule with this seed.")
  in
  let fault_drop =
    Arg.(value & opt float 0.1
         & info [ "fault-drop" ] ~doc:"Per-transmission drop probability under --fault-seed.")
  in
  let fault_crash =
    Arg.(value & opt float 0.05
         & info [ "fault-crash" ] ~doc:"Per-(site, round) transient-crash probability under --fault-seed.")
  in
  let retries =
    Arg.(value & opt (some int) None
         & info [ "retries" ] ~doc:"Max delivery attempts per visit/message (default 8).")
  in
  let show_trace =
    Arg.(value & flag
         & info [ "trace" ] ~doc:"Print the structured event trace (visits, messages, retries, crashes).")
  in
  let domains =
    Arg.(value & opt int (Cluster.default_domains ())
         & info [ "domains" ]
             ~doc:"Execute each round's per-site visits on a pool of this \
                   many OCaml domains (real cores). Default 1, or \
                   $(b,PAX_DOMAINS).")
  in
  let connect =
    Arg.(value & opt (some string) None
         & info [ "connect" ] ~docv:"ADDR,ADDR,..."
             ~doc:"Run the visits against live site servers (one address \
                   per site, comma-separated: $(b,unix:PATH) or \
                   $(b,HOST:PORT), matching $(b,pax serve)).  The report \
                   then includes measured socket bytes alongside the \
                   accounted traffic.")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Write a Chrome trace-event JSON timeline of the run \
                   (rounds, site visits, wire frames) to $(docv), \
                   loadable in Perfetto (ui.perfetto.dev) or \
                   chrome://tracing.")
  in
  let report_out =
    Arg.(value & opt (some string) None
         & info [ "report-out" ] ~docv:"FILE"
             ~doc:"Write a structured JSON run report to $(docv): the \
                   cost report, the telemetry counters (coordinator and, \
                   with $(b,--connect), per site), and the guarantee \
                   audit with margins.")
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Evaluate an XPath query over a fragmented document.")
    Term.(
      const run $ file $ query_text $ algo $ annotations $ fragment_tag
      $ fragment_budget $ n_sites $ placement $ simplify $ stats $ quiet
      $ fault_seed $ fault_drop $ fault_crash $ retries $ show_trace
      $ domains $ connect $ trace_out $ report_out)

(* ------------------------------------------------------------------ *)
(* serve                                                              *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let run file site listen fragment_tag fragment_budget n_sites placement =
    match
      let ft = load_ftree file ~fragment_tag ~fragment_budget in
      let cluster = build_cluster ft ~n_sites ~placement in
      if site < 0 || site >= Cluster.n_sites cluster then
        invalid_arg
          (Printf.sprintf "--site %d out of range (cluster has %d sites)" site
             (Cluster.n_sites cluster));
      let addr =
        match Pax_net.Sockio.addr_of_string listen with
        | Ok a -> a
        | Error e -> invalid_arg e
      in
      let frags =
        List.map
          (fun fid -> (fid, (Fragment.fragment ft fid).Fragment.root))
          (Cluster.fragments_on cluster site)
      in
      let fd = Pax_net.Sockio.listen addr in
      Printf.printf "site S%d: %d fragment(s), listening on %s\n%!" site
        (List.length frags)
        (Pax_net.Sockio.addr_to_string addr);
      Pax_net.Server.serve (Pax_net.Server.create ~frags ()) fd;
      Unix.close fd
    with
    | () -> 0
    | exception Parser.Parse_error { pos; msg } ->
        Printf.eprintf "XML error at byte %d: %s\n" pos msg;
        1
    | exception Unix.Unix_error (err, fn, arg) ->
        Printf.eprintf "network error: %s %s: %s\n" fn arg
          (Unix.error_message err);
        2
    | exception Invalid_argument e ->
        Printf.eprintf "%s\n" e;
        1
    | exception Sys_error e ->
        Printf.eprintf "%s\n" e;
        1
  in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let site =
    Arg.(required & opt (some int) None
         & info [ "site" ] ~doc:"Which site of the placement to serve.")
  in
  let listen =
    Arg.(required & opt (some string) None
         & info [ "listen" ] ~docv:"ADDR"
             ~doc:"Listen address: $(b,unix:PATH) or $(b,HOST:PORT).")
  in
  let fragment_tag =
    Arg.(value & opt (some string) None
         & info [ "fragment-tag" ] ~doc:"Cut at every node with this tag.")
  in
  let fragment_budget =
    Arg.(value & opt (some int) None
         & info [ "fragment-budget" ]
             ~doc:"Cut into fragments of at most this many nodes.")
  in
  let n_sites =
    Arg.(value & opt (some int) None
         & info [ "machines" ]
             ~doc:"Number of sites in the placement (default: one per \
                   fragment).  Must match the querying coordinator.")
  in
  let placement =
    Arg.(value & opt placement_conv Round_robin
         & info [ "placement" ]
             ~doc:"per-fragment, round-robin or balanced — must match the \
                   querying coordinator.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve one site's fragments to a remote coordinator ($(b,pax \
             query --connect)).  Runs until a Shutdown frame arrives.")
    Term.(
      const run $ file $ site $ listen $ fragment_tag $ fragment_budget
      $ n_sites $ placement)

(* ------------------------------------------------------------------ *)
(* coordinator                                                        *)
(* ------------------------------------------------------------------ *)

(* --qos SRC:WEIGHT:PRIO[,SRC:WEIGHT:PRIO...] — per-source scheduling
   shares (docs/SERVING.md): WEIGHT consecutive dispatches per rotation
   turn within a priority class, strict priority between classes. *)
let parse_qos spec =
  List.map
    (fun entry ->
      match String.split_on_char ':' entry with
      | [ src; w; p ] -> (
          match (int_of_string_opt w, int_of_string_opt p) with
          | Some weight, Some priority when src <> "" && weight >= 1 ->
              (src, weight, priority)
          | _ ->
              invalid_arg
                (Printf.sprintf
                   "--qos %s: expected SRC:WEIGHT:PRIO with WEIGHT >= 1" entry))
      | _ ->
          invalid_arg
            (Printf.sprintf "--qos %s: expected SRC:WEIGHT:PRIO" entry))
    (List.filter (fun s -> s <> "") (String.split_on_char ',' spec))

(* Optional bracketed options between the id and the query:
   "ID [deadline_ms=50,source=gold] QUERY".  deadline_ms becomes an
   absolute deadline at parse time — admission sheds the query (BUSY)
   when predicted cost plus the queue estimate says it cannot finish
   in time; source overrides the connection's fair-scheduling source. *)
let parse_line_opts text =
  if String.length text = 0 || text.[0] <> '[' then Ok (text, None, None)
  else
    match String.index_opt text ']' with
    | None -> Error "unterminated [options]"
    | Some close ->
        let body = String.sub text 1 (close - 1) in
        let rest =
          String.trim
            (String.sub text (close + 1) (String.length text - close - 1))
        in
        let opts =
          List.filter
            (fun s -> s <> "")
            (List.map String.trim (String.split_on_char ',' body))
        in
        List.fold_left
          (fun acc opt ->
            match acc with
            | Error _ -> acc
            | Ok (rest, deadline, source) -> (
                match String.index_opt opt '=' with
                | None -> Error (Printf.sprintf "bad option %S" opt)
                | Some eq -> (
                    let k = String.sub opt 0 eq in
                    let v =
                      String.sub opt (eq + 1) (String.length opt - eq - 1)
                    in
                    match k with
                    | "deadline_ms" -> (
                        match float_of_string_opt v with
                        | Some ms when ms >= 0. ->
                            Ok
                              ( rest,
                                Some (Pax_obs.Clock.now () +. (ms /. 1000.)),
                                source )
                        | _ -> Error (Printf.sprintf "bad deadline_ms %S" v))
                    | "source" ->
                        if v = "" then Error "empty source"
                        else Ok (rest, deadline, Some v)
                    | _ -> Error (Printf.sprintf "unknown option %S" k))))
          (Ok (rest, None, None))
          opts

(* A line-oriented front door over Pax_serve.Coordinator: clients
   connect, send "ID QUERY" lines — optionally
   "ID [deadline_ms=...,source=...] QUERY" — and read
   "ID OK|ERR|BUSY ..." lines back as each run finishes (out of order
   across in-flight ids; see docs/SERVING.md).  Each connection is one
   fair-scheduling source unless the line overrides it. *)
let coordinator_cmd =
  let run file listen connect annotations fragment_tag fragment_budget n_sites
      placement max_inflight max_queue no_cache stats qos placement_in
      placement_out =
    match
      let ft = load_ftree file ~fragment_tag ~fragment_budget in
      let sink = if stats then Pax_obs.Sink.create () else Pax_obs.Sink.noop in
      let connect_addrs = Option.map parse_connect connect in
      let n_sites =
        match (connect_addrs, n_sites) with
        | Some addrs, None -> Some (Array.length addrs)
        | _ -> n_sites
      in
      (* One prototype cluster fixes the *initial* placement; the live
         placement is the epoch-versioned table built from it (or
         loaded from a snapshot), which admin moves and the rebalancer
         mutate while runs are in flight (docs/SHARDING.md). *)
      let proto = build_cluster ft ~n_sites ~placement in
      let table =
        match placement_in with
        | None ->
            Pax_shard.Ptable.create
              ~n_frags:(Fragment.n_fragments ft)
              ~n_sites:(Cluster.n_sites proto)
              ~assign:(fun fid -> Cluster.site_of proto fid)
              ()
        | Some path -> (
            match Pax_shard.Ptable.load path with
            | Error e -> invalid_arg e
            | Ok t ->
                if
                  Pax_shard.Ptable.n_frags t <> Fragment.n_fragments ft
                  || Pax_shard.Ptable.n_sites t <> Cluster.n_sites proto
                then
                  invalid_arg
                    (Printf.sprintf
                       "placement snapshot %s: %d fragment(s) on %d site(s), \
                        but this document fragments into %d on %d"
                       path (Pax_shard.Ptable.n_frags t)
                       (Pax_shard.Ptable.n_sites t)
                       (Fragment.n_fragments ft) (Cluster.n_sites proto));
                t)
      in
      let save_table () =
        Option.iter (Pax_shard.Ptable.save table) placement_out
      in
      save_table ();
      let backend, mux =
        match connect_addrs with
        | None -> (Pax_serve.Coordinator.In_process, None)
        | Some addrs ->
            if Array.length addrs <> Cluster.n_sites proto then
              invalid_arg
                (Printf.sprintf
                   "--connect lists %d address(es) but the placement has %d \
                    sites"
                   (Array.length addrs) (Cluster.n_sites proto));
            let mux = Pax_net.Client.create ~addrs () in
            (Pax_serve.Coordinator.Sockets mux, Some mux)
      in
      (* A loaded snapshot replays its moves against the live servers:
         installs are idempotent, so a restarted coordinator converges
         the sites to its recorded placement before serving. *)
      (match (placement_in, mux) with
      | Some _, Some mux -> (
          match Pax_shard.Migrate.replay ~mux ~table () with
          | Ok () -> ()
          | Error e -> invalid_arg (Printf.sprintf "placement replay: %s" e))
      | _ -> ());
      (* Cache coherence (docs/SERVING.md): hook the servers'
         generation-vector relay into the local tree — other
         coordinators' updates then invalidate this cache — and pull
         the sites' current vectors so a coordinator joining after
         updates starts coherent instead of serving stale entries. *)
      let feed =
        Option.map
          (fun mux ->
            let feed = Pax_serve.Feed.attach ~sink ~mux ft in
            Pax_serve.Feed.sync feed;
            feed)
          mux
      in
      let cache =
        if no_cache then None else Some (Pax_serve.Cache.create ~sink ft)
      in
      (* Mount every XPath engine over the *live* table assignment;
         --annotations just picks which one answers by default (the
         first mount). *)
      let mounts =
        let assign = Pax_shard.Ptable.assign table in
        let order =
          if annotations then
            [ "pax2-xa"; "pax3-xa"; "pax2"; "pax3"; "parbox" ]
          else Pax_core.Engines.names
        in
        List.map
          (fun name ->
            match Pax_core.Engines.of_name name with
            | Some ctor ->
                Pax_serve.Coordinator.mount ~table
                  (ctor ft ~n_sites:(Cluster.n_sites proto) ~assign)
            | None -> assert false)
          order
      in
      let rebalancer = Pax_serve.Rebalance.create ~sink table in
      (* Admin operations (placement dump, manual move, rebalance) are
         serialized: one migration in flight at a time, snapshots
         written after each placement change. *)
      let admin_lock = Mutex.create () in
      let admin verb =
        Mutex.lock admin_lock;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock admin_lock)
          (fun () ->
            match verb with
            | [ "PLACEMENT" ] ->
                Ok
                  (String.concat ","
                     (List.map
                        (fun (fid, site, epoch, visits) ->
                          Printf.sprintf "%d:%d:%d:%d:%d" fid site epoch
                            (Fragment.generation ft fid)
                            visits)
                        (Pax_shard.Ptable.to_list table)))
            | [ "MOVE"; fid; site ] -> (
                match (int_of_string_opt fid, int_of_string_opt site) with
                | Some fid, Some site -> (
                    match
                      Pax_shard.Migrate.move ?mux ~ft ~table ~fid ~dst:site ()
                    with
                    | Ok o ->
                        save_table ();
                        Option.iter
                          (fun f ->
                            Pax_serve.Feed.publish f ~fids:[ o.mv_fid ])
                          feed;
                        Ok
                          (Printf.sprintf "moved %d %d->%d epoch %d" o.mv_fid
                             o.mv_from o.mv_to o.mv_epoch)
                    | Error e -> Error e)
                | _ -> Error "expected: ADMIN MOVE FID SITE")
            | [ "STATS" ] ->
                (* One reply line (the protocol is line-oriented):
                   space-separated series=value pairs, the coordinator
                   section first, then one per reachable site server
                   — empty without --stats, since the serving sink is
                   then the no-op one. *)
                let dump_pairs pairs =
                  String.concat " "
                    (List.map
                       (fun (k, v) -> Printf.sprintf "%s=%g" k v)
                       pairs)
                in
                let coord_section =
                  "coordinator "
                  ^ dump_pairs (Pax_obs.Metrics.pairs sink.Pax_obs.Sink.metrics)
                in
                let site_sections =
                  match mux with
                  | None -> []
                  | Some mux ->
                      List.init (Cluster.n_sites proto) (fun site ->
                          match Pax_net.Client.fetch_stats mux site with
                          | pairs ->
                              Printf.sprintf "site%d %s" site
                                (dump_pairs pairs)
                          | exception _ ->
                              Printf.sprintf "site%d unreachable" site)
                in
                Ok (String.concat " ; " (coord_section :: site_sections))
            | [ "REBALANCE" ] -> (
                match
                  Pax_serve.Rebalance.run ?mux ~ft rebalancer
                    ~now:(Unix.gettimeofday ())
                with
                | Ok moves ->
                    save_table ();
                    Option.iter Pax_serve.Feed.publish_all feed;
                    Ok
                      (Printf.sprintf "moves %d%s" (List.length moves)
                         (String.concat ""
                            (List.map
                               (fun (o : Pax_shard.Migrate.outcome) ->
                                 Printf.sprintf " %d:%d->%d" o.mv_fid o.mv_from
                                   o.mv_to)
                               moves)))
                | Error e -> Error e)
            | _ -> Error "unknown admin verb")
      in
      let coord =
        Pax_serve.Coordinator.create ?max_inflight ?max_queue ?cache ~sink
          backend mounts
      in
      Option.iter
        (fun spec ->
          List.iter
            (fun (source, weight, priority) ->
              Pax_serve.Coordinator.configure_source coord ~source ~weight
                ~priority ())
            (parse_qos spec))
        qos;
      let addr =
        match Pax_net.Sockio.addr_of_string listen with
        | Ok a -> a
        | Error e -> invalid_arg e
      in
      let fd = Pax_net.Sockio.listen addr in
      Printf.printf
        "coordinator: %d fragment(s) on %d site(s) (%s), listening on %s\n%!"
        (Fragment.n_fragments ft) (Cluster.n_sites proto)
        (match mux with Some _ -> "sockets" | None -> "in-process")
        (Pax_net.Sockio.addr_to_string addr);
      let n_clients = ref 0 in
      let handle_client cfd source =
        let inb = Unix.in_channel_of_descr cfd in
        let wlock = Mutex.create () in
        let reply line =
          Mutex.lock wlock;
          Fun.protect
            ~finally:(fun () -> Mutex.unlock wlock)
            (fun () ->
              try
                ignore
                  (Unix.write_substring cfd (line ^ "\n") 0
                     (String.length line + 1))
              with Unix.Unix_error _ -> ())
        in
        let rec loop () =
          match input_line inb with
          | exception End_of_file -> ()
          | line -> (
              let line = String.trim line in
              if line = "" then loop ()
              else
                match String.index_opt line ' ' with
                | None ->
                    reply (line ^ " ERR expected: ID QUERY");
                    loop ()
                | Some sp -> (
                    let id = String.sub line 0 sp in
                    let text =
                      String.trim
                        (String.sub line (sp + 1)
                           (String.length line - sp - 1))
                    in
                    match String.split_on_char ' ' text with
                    | "ADMIN" :: verb ->
                        (match admin (List.filter (fun s -> s <> "") verb) with
                        | Ok detail -> reply (id ^ " OK " ^ detail)
                        | Error e -> reply (id ^ " ERR " ^ e));
                        loop ()
                    | _ -> (
                    match parse_line_opts text with
                    | Error e ->
                        reply (id ^ " ERR " ^ e);
                        loop ()
                    | Ok (text, deadline, src_override) -> (
                    let source = Option.value ~default:source src_override in
                    match
                      Pax_serve.Coordinator.submit ~source ?deadline coord text
                    with
                    | Error (Pax_serve.Coordinator.Rejected r) ->
                        reply
                          (Format.asprintf "%s BUSY %a" id
                             Pax_serve.Sched.pp_rejection r);
                        loop ()
                    | Error e ->
                        reply
                          (Printf.sprintf "%s ERR %s" id
                             (Pax_serve.Coordinator.error_message e));
                        loop ()
                    | Ok tk ->
                        ignore
                          (Thread.create
                             (fun () ->
                               match Pax_serve.Coordinator.await tk with
                               | Ok (o : Pax_serve.Coordinator.Pe.outcome) ->
                                   reply
                                     (Printf.sprintf "%s OK %d %s" id
                                        (Array.length o.answer_keys)
                                        (String.concat ","
                                           (Array.to_list
                                              (Array.map string_of_int
                                                 o.answer_keys))))
                               | Error e ->
                                   reply
                                     (Printf.sprintf "%s ERR %s" id
                                        (Printexc.to_string e)))
                             ());
                        loop ()))))
        in
        loop ();
        (try Unix.close cfd with Unix.Unix_error _ -> ())
      in
      let rec accept_loop () =
        let cfd, _ = Unix.accept fd in
        incr n_clients;
        let source = Printf.sprintf "client-%d" !n_clients in
        ignore (Thread.create (fun () -> handle_client cfd source) ());
        accept_loop ()
      in
      accept_loop ()
    with
    | () -> 0
    | exception Parser.Parse_error { pos; msg } ->
        Printf.eprintf "XML error at byte %d: %s\n" pos msg;
        1
    | exception Unix.Unix_error (err, fn, arg) ->
        Printf.eprintf "network error: %s %s: %s\n" fn arg
          (Unix.error_message err);
        2
    | exception Invalid_argument e ->
        Printf.eprintf "%s\n" e;
        1
    | exception Sys_error e ->
        Printf.eprintf "%s\n" e;
        1
  in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let listen =
    Arg.(required & opt (some string) None
         & info [ "listen" ] ~docv:"ADDR"
             ~doc:"Accept query submissions on $(b,unix:PATH) or \
                   $(b,HOST:PORT).")
  in
  let connect =
    Arg.(value & opt (some string) None
         & info [ "connect" ] ~docv:"ADDR,ADDR,..."
             ~doc:"Run visits against live site servers (one address per \
                   site, matching $(b,pax serve)); without it each run \
                   executes in-process.")
  in
  let annotations =
    Arg.(value & flag & info [ "annotations"; "xa" ] ~doc:"Use XPath-annotations.")
  in
  let fragment_tag =
    Arg.(value & opt (some string) None
         & info [ "fragment-tag" ] ~doc:"Cut at every node with this tag.")
  in
  let fragment_budget =
    Arg.(value & opt (some int) None
         & info [ "fragment-budget" ]
             ~doc:"Cut into fragments of at most this many nodes.")
  in
  let n_sites =
    Arg.(value & opt (some int) None
         & info [ "machines" ]
             ~doc:"Number of sites in the placement (default: one per \
                   fragment, or one per $(b,--connect) address).")
  in
  let placement =
    Arg.(value & opt placement_conv Round_robin
         & info [ "placement" ]
             ~doc:"per-fragment, round-robin or balanced — must match the \
                   site servers.")
  in
  let max_inflight =
    Arg.(value & opt (some int) None
         & info [ "max-inflight" ]
             ~doc:"Concurrent runs in flight (default 4).")
  in
  let max_queue =
    Arg.(value & opt (some int) None
         & info [ "max-queue" ]
             ~doc:"Admission queue bound; submissions beyond it get a \
                   $(b,BUSY) reply (default 64).")
  in
  let no_cache =
    Arg.(value & flag
         & info [ "no-cache" ]
             ~doc:"Disable the cross-query stage-result cache.")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"Collect serving telemetry.")
  in
  let qos =
    Arg.(value & opt (some string) None
         & info [ "qos" ] ~docv:"SRC:WEIGHT:PRIO,..."
             ~doc:"Per-source scheduling shares: $(b,WEIGHT) consecutive \
                   dispatches per rotation turn within a priority class, \
                   strict $(b,PRIO) between classes (higher first).  \
                   Unlisted sources get weight 1, priority 0.")
  in
  let placement_in =
    Arg.(value & opt (some string) None
         & info [ "placement-in" ] ~docv:"PATH"
             ~doc:"Load the placement table from a snapshot (pax admin \
                   placement state survives a coordinator restart; with \
                   $(b,--connect), recorded moves are replayed against the \
                   live servers before serving).")
  in
  let placement_out =
    Arg.(value & opt (some string) None
         & info [ "placement-out" ] ~docv:"PATH"
             ~doc:"Write the placement table here at startup and after \
                   every move (atomic snapshot, docs/SHARDING.md).")
  in
  Cmd.v
    (Cmd.info "coordinator"
       ~doc:"Serve queries concurrently over a fragmented document: a \
             bounded admission queue, fair scheduling across client \
             connections, an optional cross-query cache (docs/SERVING.md) \
             and an epoch-versioned placement table with live fragment \
             migration (docs/SHARDING.md).  Runs until killed.")
    Term.(
      const run $ file $ listen $ connect $ annotations $ fragment_tag
      $ fragment_budget $ n_sites $ placement $ max_inflight $ max_queue
      $ no_cache $ stats $ qos $ placement_in $ placement_out)

(* ------------------------------------------------------------------ *)
(* admin                                                              *)
(* ------------------------------------------------------------------ *)

(* Thin client for the coordinator's ADMIN verbs: connect to its line
   protocol, issue one verb, print the reply. *)
let admin_cmd =
  let issue coordinator verb =
    match
      let addr =
        match Pax_net.Sockio.addr_of_string coordinator with
        | Ok a -> a
        | Error e -> invalid_arg e
      in
      let fd = Pax_net.Sockio.connect addr in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let line = "0 ADMIN " ^ verb ^ "\n" in
          ignore (Unix.write_substring fd line 0 (String.length line));
          let inb = Unix.in_channel_of_descr fd in
          match input_line inb with
          | exception End_of_file -> failwith "coordinator closed the connection"
          | reply -> (
              match String.split_on_char ' ' reply with
              | "0" :: "OK" :: rest ->
                  print_endline (String.concat " " rest);
                  `Ok
              | "0" :: "ERR" :: rest ->
                  Printf.eprintf "error: %s\n" (String.concat " " rest);
                  `Err
              | _ -> failwith ("unexpected reply: " ^ reply)))
    with
    | `Ok -> 0
    | `Err -> 1
    | exception Invalid_argument e | exception Failure e ->
        Printf.eprintf "%s\n" e;
        1
    | exception Unix.Unix_error (err, fn, arg) ->
        Printf.eprintf "network error: %s %s: %s\n" fn arg
          (Unix.error_message err);
        2
  in
  let coordinator =
    Arg.(required & opt (some string) None
         & info [ "coordinator" ] ~docv:"ADDR"
             ~doc:"The coordinator's $(b,--listen) address ($(b,unix:PATH) \
                   or $(b,HOST:PORT)).")
  in
  let placement =
    let run coordinator = issue coordinator "PLACEMENT" in
    Cmd.v
      (Cmd.info "placement"
         ~doc:"Dump the live placement table as \
               fid:site:epoch:generation:visits, comma-separated.")
      Term.(const run $ coordinator)
  in
  let move =
    let run coordinator fid site =
      issue coordinator (Printf.sprintf "MOVE %d %d" fid site)
    in
    let fid = Arg.(required & pos 0 (some int) None & info [] ~docv:"FID") in
    let site = Arg.(required & pos 1 (some int) None & info [] ~docv:"SITE") in
    Cmd.v
      (Cmd.info "move"
         ~doc:"Live-migrate one fragment to a site (fetch, install, fence; \
               docs/SHARDING.md).  In-flight queries are unaffected.")
      Term.(const run $ coordinator $ fid $ site)
  in
  let rebalance =
    let run coordinator = issue coordinator "REBALANCE" in
    Cmd.v
      (Cmd.info "rebalance"
         ~doc:"Run the greedy hot-shard rebalancer over the accumulated \
               per-fragment visit counters.")
      Term.(const run $ coordinator)
  in
  let stats =
    let run coordinator = issue coordinator "STATS" in
    Cmd.v
      (Cmd.info "stats"
         ~doc:"Dump the coordinator's telemetry (space-separated \
               series=value pairs, including the per-run cost ledger's \
               pax_cost_* series) and, when it runs over sockets, each \
               site server's counters.  Empty unless the coordinator \
               was started with $(b,--stats).")
      Term.(const run $ coordinator)
  in
  Cmd.group
    (Cmd.info "admin"
       ~doc:"Administration against a running coordinator: placement \
             (docs/SHARDING.md) and telemetry (docs/OBSERVABILITY.md).")
    [ placement; move; rebalance; stats ]

(* ------------------------------------------------------------------ *)
(* count                                                              *)
(* ------------------------------------------------------------------ *)

let count_cmd =
  let run file query_text annotations fragment_tag fragment_budget n_sites
      stats =
    match
      let ft = load_ftree file ~fragment_tag ~fragment_budget in
      let q = Query.of_string query_text in
      let cluster = build_cluster ft ~n_sites ~placement:Round_robin in
      let n, report = Pax_core.Count.run ~annotations cluster q in
      Printf.printf "%d\n" n;
      if stats then Format.printf "%a@." Cluster.pp_report report
    with
    | () -> 0
    | exception Parser.Parse_error { pos; msg } ->
        Printf.eprintf "XML error at byte %d: %s\n" pos msg;
        1
    | exception Pax_xpath.Parse.Syntax_error { pos; msg } ->
        Printf.eprintf "query error at character %d: %s\n" pos msg;
        1
    | exception Sys_error e ->
        Printf.eprintf "%s\n" e;
        1
  in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let query_text =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY")
  in
  let annotations =
    Arg.(value & flag & info [ "annotations"; "xa" ] ~doc:"Use XPath-annotations.")
  in
  let fragment_tag =
    Arg.(value & opt (some string) None & info [ "fragment-tag" ] ~doc:"Cut at every node with this tag.")
  in
  let fragment_budget =
    Arg.(value & opt (some int) None & info [ "fragment-budget" ] ~doc:"Cut into fragments of at most this many nodes.")
  in
  let n_sites =
    Arg.(value & opt (some int) None & info [ "machines" ] ~doc:"Number of simulated sites.")
  in
  let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print the cost report.") in
  Cmd.v
    (Cmd.info "count" ~doc:"Count answers without shipping them.")
    Term.(
      const run $ file $ query_text $ annotations $ fragment_tag
      $ fragment_budget $ n_sites $ stats)

(* ------------------------------------------------------------------ *)
(* fragment                                                           *)
(* ------------------------------------------------------------------ *)

let fragment_cmd =
  let run file output fragment_tag fragment_budget dot =
    match
      let doc = Parser.parse_file file in
      let cuts = make_cuts doc ~fragment_tag ~fragment_budget in
      let ft = Fragment.fragmentize doc ~cuts in
      Pax_frag.Store.save ft ~dir:output;
      Printf.printf "wrote %s: %d fragments, %d nodes\n" output
        (Fragment.n_fragments ft) doc.Tree.node_count;
      if dot then print_string (Fragment.to_dot ft)
      else Format.printf "%a@." Fragment.pp ft
    with
    | () -> 0
    | exception Parser.Parse_error { pos; msg } ->
        Printf.eprintf "XML error at byte %d: %s\n" pos msg;
        1
    | exception Sys_error e ->
        Printf.eprintf "%s\n" e;
        1
  in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let output =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~doc:"Store directory." ~docv:"DIR")
  in
  let fragment_tag =
    Arg.(value & opt (some string) None & info [ "fragment-tag" ] ~doc:"Cut at every node with this tag.")
  in
  let fragment_budget =
    Arg.(value & opt (some int) None & info [ "fragment-budget" ] ~doc:"Cut into fragments of at most this many nodes.")
  in
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Print the fragment tree as Graphviz dot.")
  in
  Cmd.v
    (Cmd.info "fragment" ~doc:"Fragment a document into an on-disk store.")
    Term.(const run $ file $ output $ fragment_tag $ fragment_budget $ dot)

(* ------------------------------------------------------------------ *)
(* assemble                                                           *)
(* ------------------------------------------------------------------ *)

let assemble_cmd =
  let run store output =
    match
      let ft = Pax_frag.Store.load ~dir:store in
      let xml = Printer.to_string ~indent:true (Fragment.reassemble ft) in
      match output with
      | Some path ->
          let oc = open_out path in
          output_string oc xml;
          close_out oc;
          Printf.printf "wrote %s (%d bytes)\n" path (String.length xml)
      | None -> print_string xml
    with
    | () -> 0
    | exception Pax_frag.Store.Corrupt e ->
        Printf.eprintf "corrupt store: %s\n" e;
        1
    | exception Sys_error e ->
        Printf.eprintf "%s\n" e;
        1
  in
  let store = Arg.(required & pos 0 (some dir) None & info [] ~docv:"STORE") in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"Output file.")
  in
  Cmd.v
    (Cmd.info "assemble" ~doc:"Reassemble a fragment store into one document.")
    Term.(const run $ store $ output)

(* ------------------------------------------------------------------ *)
(* inspect                                                            *)
(* ------------------------------------------------------------------ *)

let inspect_cmd =
  let run file =
    match Parser.parse_file file with
    | doc ->
        let tags = Hashtbl.create 64 in
        Tree.iter
          (fun n ->
            Hashtbl.replace tags n.Tree.tag
              (1 + Option.value ~default:0 (Hashtbl.find_opt tags n.Tree.tag)))
          doc.Tree.root;
        Printf.printf "nodes: %d\ndepth: %d\nbytes: %d\ndistinct tags: %d\n"
          doc.Tree.node_count (Tree.depth doc.Tree.root)
          (Tree.byte_size doc.Tree.root) (Hashtbl.length tags);
        let sorted =
          List.sort (fun (_, a) (_, b) -> compare b a)
            (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tags [])
        in
        List.iteri
          (fun i (tag, n) -> if i < 15 then Printf.printf "  %-20s %d\n" tag n)
          sorted;
        0
    | exception Parser.Parse_error { pos; msg } ->
        Printf.eprintf "XML error at byte %d: %s\n" pos msg;
        1
    | exception Sys_error e ->
        Printf.eprintf "%s\n" e;
        1
  in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  Cmd.v (Cmd.info "inspect" ~doc:"Show document statistics.") Term.(const run $ file)

(* ------------------------------------------------------------------ *)
(* explain                                                            *)
(* ------------------------------------------------------------------ *)

let explain_cmd =
  let run query_text =
    match Query.of_string query_text with
    | q ->
        Format.printf "source:      %s@." q.Query.source;
        Format.printf "ast:         %a@." Pax_xpath.Ast.pp q.Query.ast;
        Format.printf "normal form: %a@." Pax_xpath.Normal.pp q.Query.normal;
        Format.printf "selection:   %a@."
          (fun ppf steps ->
            List.iter (fun s -> Format.fprintf ppf "%a " Pax_xpath.Normal.pp_step s) steps)
          (Pax_xpath.Normal.selection_path q.Query.normal);
        Format.printf "compiled:    %a@." Pax_xpath.Compile.pp q.Query.compiled;
        0
    | exception Pax_xpath.Parse.Syntax_error { pos; msg } ->
        Printf.eprintf "query error at character %d: %s\n" pos msg;
        1
  in
  let query_text =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY")
  in
  Cmd.v
    (Cmd.info "explain" ~doc:"Parse, normalize and compile a query.")
    Term.(const run $ query_text)

let () =
  let info =
    Cmd.info "pax" ~version:"1.0.0"
      ~doc:"Distributed XPath evaluation with performance guarantees (SIGMOD 2007)."
  in
  exit (Cmd.eval' (Cmd.group info
       [ gen_cmd; query_cmd; count_cmd; fragment_cmd; assemble_cmd; inspect_cmd;
         explain_cmd; serve_cmd; coordinator_cmd; admin_cmd ]))
