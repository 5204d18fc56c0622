(* Ablation tables beyond the paper's figures: the §3.4 cost claims,
   measured.

   (1) Visits / traffic per algorithm (the ≤3 / ≤2 / answers-only
       guarantees) on FT1 with 10 machines.
   (2) Communication vs document size: control bytes depend on |Q| and
       |FT| only; answer bytes track |ans| (the O(|Q||FT| + |ans|)
       optimality claim).
   (3) The paging use case (§1/§8): swap-ins for partial evaluation vs
       a conventional two-pass evaluator. *)

module Cluster = Pax_dist.Cluster
module Run_result = Pax_core.Run_result

let visits_table () =
  Setup.section "visits and traffic per algorithm (FT1, 10 machines, 100 MB)";
  let cl = Setup.ft1 ~total_mb:100 ~j:10 in
  Printf.printf "%-4s %-9s %7s %7s %12s %12s %12s\n" "Q" "algo" "visits"
    "rounds" "control B" "answer B" "tree B";
  List.iter
    (fun (qname, q) ->
      List.iter
        (fun (cfg : Setup.config) ->
          let r = cfg.Setup.run cl q in
          let rep = r.Run_result.report in
          Printf.printf "%-4s %-9s %7d %7d %12d %12d %12d\n" qname
            cfg.Setup.cname rep.Cluster.max_visits
            (List.length rep.Cluster.rounds)
            rep.Cluster.control_bytes rep.Cluster.answer_bytes
            rep.Cluster.tree_bytes)
        [ Setup.pax3_na; Setup.pax3_xa; Setup.pax2_na; Setup.pax2_xa; Setup.naive ];
      print_newline ())
    Setup.queries

let traffic_scaling () =
  Setup.section
    "communication vs data size (Q3, PaX2-NA, FT1 x10): control flat, answers track |ans|";
  Printf.printf "%-8s %10s %12s %12s %10s\n" "MB" "|ans|" "control B" "answer B"
    "tree B";
  List.iter
    (fun size ->
      let cl = Setup.ft1 ~total_mb:size ~j:10 in
      let r = Setup.pax2_na.Setup.run cl (Setup.query "Q3") in
      let rep = r.Run_result.report in
      Printf.printf "%-8d %10d %12d %12d %10d\n" size
        (List.length r.Run_result.answers)
        rep.Cluster.control_bytes rep.Cluster.answer_bytes rep.Cluster.tree_bytes)
    (if Setup.quick then [ 50; 100; 200 ] else [ 25; 50; 100; 200; 400 ])

let paging_table () =
  Setup.section "paging a large document (memory = 10 MB of nodes)";
  let doc_nodes = Setup.mb 100 in
  let doc =
    Pax_xmark.Xmark.doc ~seed:77 ~total_nodes:doc_nodes ~n_sites:4
  in
  let budget = Setup.mb 10 in
  Printf.printf "%-4s %10s | %7s %9s | %7s %9s   (partial eval vs two-pass)\n" "Q"
    "|ans|" "swaps" "MB paged" "swaps" "MB paged";
  List.iter
    (fun (qname, q) ->
      let pe = Pax_core.Paging.run ~memory_budget:budget q doc in
      let tp = Pax_core.Paging.run_two_pass ~memory_budget:budget q doc in
      assert (pe.Pax_core.Paging.answer_ids = tp.Pax_core.Paging.answer_ids);
      Printf.printf "%-4s %10d | %7d %9.2f | %7d %9.2f\n" qname
        (List.length pe.Pax_core.Paging.answer_ids)
        pe.Pax_core.Paging.swap_ins
        (float_of_int pe.Pax_core.Paging.bytes_loaded /. 1e6)
        tp.Pax_core.Paging.swap_ins
        (float_of_int tp.Pax_core.Paging.bytes_loaded /. 1e6))
    Setup.queries

let batch_table () =
  Setup.section "batched evaluation: Q1-Q4 together vs one at a time";
  let cl = Setup.ft1 ~total_mb:100 ~j:10 in
  let qs = List.map snd Setup.queries in
  let solo_visits, solo_control, solo_ops =
    List.fold_left
      (fun (v, b, o) q ->
        let r = Setup.pax2_na.Setup.run cl q in
        let rep = r.Run_result.report in
        ( v + rep.Cluster.max_visits,
          b + rep.Cluster.control_bytes,
          o + rep.Cluster.total_ops ))
      (0, 0, 0) qs
  in
  let batch = Pax_core.Batch.run cl qs in
  let rep = batch.Pax_core.Batch.report in
  Printf.printf "%-22s %14s %14s %14s\n" "" "visits (max)" "control bytes"
    "total ops";
  Printf.printf "%-22s %14d %14d %14d\n" "4 solo PaX2 runs" solo_visits
    solo_control solo_ops;
  Printf.printf "%-22s %14d %14d %14d\n" "1 batched run" rep.Cluster.max_visits
    rep.Cluster.control_bytes rep.Cluster.total_ops

let placement_table () =
  Setup.section
    "placement ablation: skewed fragments on 4 machines (Q3, PaX2-NA)";
  (* Site subtrees of very different sizes: naive placement lands the
     two big ones on the same machine. *)
  let doc =
    Pax_xmark.Xmark.sites_doc ~seed:31
      ~site_nodes:
        (List.map Setup.mb [ 30; 5; 25; 4; 20; 3; 8; 5 ])
  in
  let ft =
    Pax_frag.Fragment.fragmentize doc
      ~cuts:(Pax_frag.Fragment.cuts_by_tag doc ~tag:"site")
  in
  Printf.printf "%-14s %10s %14s %16s\n" "placement" "sites" "max load (B)"
    "parallel (s)";
  List.iter
    (fun (name, cl, assign) ->
      let loads = Pax_dist.Placement.loads ft ~n_sites:4 assign in
      let s = Setup.measure Setup.pax2_na cl (Setup.query "Q3") in
      Printf.printf "%-14s %10d %14d %16.4f\n" name 4
        (Array.fold_left max 0 loads)
        s.Setup.parallel_s)
    [
      ( "round-robin",
        Pax_dist.Placement.cluster_round_robin ft ~n_sites:4,
        Pax_dist.Placement.round_robin ~n_sites:4 );
      ( "balanced",
        Pax_dist.Placement.cluster_balanced ft ~n_sites:4,
        Pax_dist.Placement.balanced ft ~n_sites:4 );
    ]

let run () =
  Setup.header "Cost accounting — the §3.4 guarantees, measured";
  visits_table ();
  traffic_scaling ();
  paging_table ();
  batch_table ();
  placement_table ()
