module Tree = Pax_xml.Tree
module Query = Pax_xpath.Query
module Compile = Pax_xpath.Compile
module Formula = Pax_bool.Formula
module Fragment = Pax_frag.Fragment
module Cluster = Pax_dist.Cluster
module Measure = Pax_dist.Measure
module Wire = Pax_wire.Wire

let spf = Printf.sprintf

let run ?(annotations = false) (cl : Cluster.t) (q : Query.t) : Run_result.t =
  Cluster.reset cl;
  let ft = Cluster.ftree cl in
  let n_frag = Fragment.n_fragments ft in
  let compiled = q.Query.compiled in
  (* Built before the round: pool domains only read it. *)
  let plan = Flat_pass.make_plan compiled (Fragment.intern ft) in
  let analysis = if annotations then Some (Annot.analyze compiled ft) else None in
  let relevant fid =
    match analysis with None -> true | Some a -> a.Annot.relevant.(fid)
  in
  let init_for fid =
    if fid = 0 then Sel_pass.blank_init compiled
    else
      match analysis with
      | Some a -> Annot.init_of_ctx compiled ~fid a.Annot.ctx.(fid)
      | None -> Sel_pass.symbolic_init compiled ~fid
  in

  (* ---------------- Stage 1: combined pass, relevant sites --------- *)
  let rel_fids = List.filter relevant (Fragment.top_down ft) in
  (* Per-fragment stage-1 views, filled either by the in-process
     executor or by parsing wire replies — everything downstream
     (accounting, unification, answer assembly) reads only these, so
     both backends are observably identical.  [local_cands] holds the
     actual candidate formulas and exists only in-process; a remote
     site keeps its candidates to itself until the resolution stage. *)
  let s1_seen = Array.make n_frag false in
  let s1_qvec : Formula.t array array = Array.make n_frag [||] in
  let s1_ctxs : (int * Formula.t array) list array = Array.make n_frag [] in
  let s1_answers : Tree.node list array = Array.make n_frag [] in
  let s1_cands = Array.make n_frag 0 in
  let local_cands : (Pax_xml.Flat.t * (int * Formula.t) list) option array =
    Array.make n_frag None
  in
  let fill_view fid (fr : Wire.frag_result) =
    s1_qvec.(fid) <-
      (match fr.Wire.fr_vec with
      | Some vec -> vec
      | None when compiled.Compile.n_qual = 0 -> [||]
      | None -> invalid_arg "PaX2: stage-1 reply lacks vector");
    s1_ctxs.(fid) <- fr.Wire.fr_ctxs;
    s1_answers.(fid) <- List.map Wire.node_of_answer fr.Wire.fr_answers;
    s1_cands.(fid) <- fr.Wire.fr_cands;
    s1_seen.(fid) <- true
  in
  (* Cross-query cache (transport path only; Stage_cache.noop unless a
     serving layer installed one).  A hit prefills the stage-1 view and
     elides the fragment from the round — no visit, no vector/answer
     traffic, no site ops, exactly as if the wire reply from the run
     that warmed the cache were replayed.  Only fully-resolved results
     (fr_cands = 0) are cached: a fragment retaining candidates has
     server-side state stage 2 must revisit. *)
  let cache = Cluster.stage_cache cl in
  let use_cache = Cluster.transport_active cl in
  let qkey =
    if use_cache then
      spf "%s|annot=%b" (Pax_xpath.Normal.to_string q.Query.normal) annotations
    else ""
  in
  let from_cache = Array.make n_frag false in
  if use_cache then
    List.iter
      (fun fid ->
        match cache.Pax_dist.Stage_cache.lookup ~qkey ~fid with
        | Some fr when fr.Wire.fr_cands = 0 && fr.Wire.fr_fid = fid ->
            fill_view fid fr;
            from_cache.(fid) <- true
        | Some _ | None -> ())
      rel_fids;
  let stage1_sites =
    Cluster.sites_holding cl
      (List.filter (fun fid -> not from_cache.(fid)) rel_fids)
  in
  (* Stage state is keyed by fid within the round: a replayed visit
     (lost reply under a fault plan) finds the view already filled
     and neither recomputes nor double-counts. *)
  let s1_local site =
    List.iter
      (fun fid ->
        if relevant fid && not s1_seen.(fid) then begin
          let fl = Fragment.flat ft fid in
          let oc =
            Flat_pass.combined_run plan fl ~init:(init_for fid)
              ~is_root:(fid = 0)
          in
          s1_qvec.(fid) <- oc.Flat_pass.root_qvec;
          s1_ctxs.(fid) <- oc.Flat_pass.contexts;
          s1_answers.(fid) <- Run_result.nodes_of_slots fl oc.Flat_pass.answers;
          s1_cands.(fid) <- List.length oc.Flat_pass.candidates;
          local_cands.(fid) <- Some (fl, oc.Flat_pass.candidates);
          s1_seen.(fid) <- true;
          Cluster.add_ops cl ~site oc.Flat_pass.ops
        end)
      (Cluster.fragments_on cl site)
  in
  let s1_remote =
    {
      Cluster.build =
        (fun site ->
          Wire.Pax2_stage1
            {
              query = q.Query.source;
              frags =
                List.filter_map
                  (fun fid ->
                    if relevant fid then
                      Some
                        {
                          Wire.fe_fid = fid;
                          fe_is_root = fid = 0;
                          (* Derivable inits stay implicit; only the
                             annotation-pruned vectors ship. *)
                          fe_init =
                            (if annotations then Some (init_for fid) else None);
                        }
                    else None)
                  (Cluster.fragments_on cl site);
            });
      parse =
        (fun site reply ->
          match reply with
          | Wire.Frag_results frs ->
              List.iter
                (fun (fr : Wire.frag_result) ->
                  let fid = fr.Wire.fr_fid in
                  if not s1_seen.(fid) then begin
                    fill_view fid fr;
                    Cluster.add_ops cl ~site fr.Wire.fr_ops;
                    if use_cache && fr.Wire.fr_cands = 0 then
                      cache.Pax_dist.Stage_cache.store ~qkey ~fid fr
                  end)
                frs
          | Wire.Final_answers _ ->
              invalid_arg "PaX2: unexpected stage-1 reply");
    }
  in
  let remote_if_net rm =
    if Cluster.transport_active cl then Some rm else None
  in
  ignore
    (Cluster.run_round cl
       ?remote:(remote_if_net s1_remote)
       ~label:"stage1" ~sites:stage1_sites s1_local);
  List.iter
    (fun site ->
      Cluster.send cl ~src:Coordinator ~dst:(Site site) ~kind:Query
        ~bytes:(Measure.query q) ~label:"Q";
      List.iter
        (fun fid ->
          (* Cache-hit fragments were not visited: their vectors and
             answers are already coordinator-side, so nothing travels. *)
          if s1_seen.(fid) && not from_cache.(fid) then begin
            if compiled.Compile.n_qual > 0 then
              Cluster.send cl ~src:(Site site) ~dst:Coordinator ~kind:Vectors
                ~bytes:(Measure.formula_array s1_qvec.(fid))
                ~label:(spf "QV(F%d)" fid);
            List.iter
              (fun (sub, vec) ->
                Cluster.send cl ~src:(Site site) ~dst:Coordinator ~kind:Vectors
                  ~bytes:(Measure.formula_array vec)
                  ~label:(spf "SV(F%d)" sub))
              s1_ctxs.(fid);
            if s1_answers.(fid) <> [] then
              Cluster.send cl ~src:(Site site) ~dst:Coordinator ~kind:Answers
                ~bytes:(Measure.answers s1_answers.(fid))
                ~label:(spf "ans(F%d)" fid)
          end)
        (Cluster.fragments_on cl site))
    stage1_sites;

  (* Coordinator: bottom-up qualifier unification, then top-down context
     unification (contexts may embed qualifier variables). *)
  let resolved_quals =
    Cluster.coord cl ~label:"evalFT:quals" (fun () ->
        Cluster.add_ops cl ~site:(-1) (n_frag * compiled.Compile.n_qual);
        Eval_ft.resolve_quals ft ~root_vecs:(fun fid ->
            if s1_seen.(fid) then Some s1_qvec.(fid) else None))
  in
  let qual_lookup = Eval_ft.qual_lookup resolved_quals in
  let raw_ctx : Formula.t array option array = Array.make n_frag None in
  Array.iteri
    (fun fid ctxs ->
      if s1_seen.(fid) then
        List.iter (fun (sub, vec) -> raw_ctx.(sub) <- Some vec) ctxs)
    s1_ctxs;
  let resolved_ctx =
    Cluster.coord cl ~label:"evalFT:contexts" (fun () ->
        Cluster.add_ops cl ~site:(-1) (n_frag * compiled.Compile.n_sel);
        Eval_ft.resolve_contexts ft
          ~root_ctx:(Array.make compiled.Compile.n_sel false)
          ~ctx_of:(fun fid -> raw_ctx.(fid))
          ~qual_lookup)
  in
  let full_lookup = Eval_ft.full_lookup ~quals:resolved_quals ~ctxs:resolved_ctx in

  (* ---------------- Stage 2: resolve candidates -------------------- *)
  let has_candidates fid = s1_seen.(fid) && s1_cands.(fid) > 0 in
  let cand_fids = List.filter has_candidates (Fragment.top_down ft) in
  let stage2_sites = Cluster.sites_holding cl cand_fids in
  (* Per-fid memo (replay idempotence under fault plans) as an array,
     not a shared hashtable: a fragment lives on exactly one site, so
     under a parallel round the worker domains write disjoint cells. *)
  let stage2_memo : Tree.node list option array = Array.make n_frag None in
  let s2_local site =
    List.concat_map
      (fun fid ->
        if has_candidates fid then
          match stage2_memo.(fid) with
          | Some answers -> answers
          | None ->
              let fl, cands = Option.get local_cands.(fid) in
              let slots, ops = Flat_pass.resolve_candidates cands full_lookup in
              Cluster.add_ops cl ~site ops;
              let answers = Run_result.nodes_of_slots fl slots in
              stage2_memo.(fid) <- Some answers;
              answers
        else [])
      (Cluster.fragments_on cl site)
  in
  let s2_remote =
    {
      Cluster.build =
        (fun site ->
          Wire.Pax2_stage2
            {
              frags =
                List.filter_map
                  (fun fid ->
                    if has_candidates fid then
                      Some
                        ( fid,
                          resolved_ctx.(fid),
                          List.map
                            (fun sub -> (sub, resolved_quals.(sub)))
                            ft.Fragment.children.(fid) )
                    else None)
                  (Cluster.fragments_on cl site);
            });
      parse =
        (fun site reply ->
          match reply with
          | Wire.Final_answers { answers; ops } ->
              Cluster.add_ops cl ~site ops;
              List.map Wire.node_of_answer answers
          | Wire.Frag_results _ ->
              invalid_arg "PaX2: unexpected stage-2 reply");
    }
  in
  let stage2_answers =
    Cluster.run_round cl
      ?remote:(remote_if_net s2_remote)
      ~label:"stage2" ~sites:stage2_sites s2_local
  in
  List.iter
    (fun site ->
      List.iter
        (fun fid ->
          if has_candidates fid then begin
            Cluster.send cl ~src:Coordinator ~dst:(Site site) ~kind:Resolution
              ~bytes:(Measure.bool_array resolved_ctx.(fid))
              ~label:(spf "SV*(F%d)" fid);
            List.iter
              (fun sub ->
                Cluster.send cl ~src:Coordinator ~dst:(Site site)
                  ~kind:Resolution
                  ~bytes:(Measure.bool_array resolved_quals.(sub))
                  ~label:(spf "QV*(F%d)" sub))
              ft.Fragment.children.(fid)
          end)
        (Cluster.fragments_on cl site))
    stage2_sites;
  List.iter
    (fun (site, answers) ->
      if answers <> [] then
        Cluster.send cl ~src:(Site site) ~dst:Coordinator ~kind:Answers
          ~bytes:(Measure.answers answers) ~label:"ans")
    stage2_answers;

  let certain = List.concat (Array.to_list s1_answers) in
  let answers = certain @ List.concat_map snd stage2_answers in
  Run_result.make ~trace:(Cluster.trace cl) ~query:q ~answers
    ~report:(Cluster.report cl) ()
