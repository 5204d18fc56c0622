module Tree = Pax_xml.Tree
module Query = Pax_xpath.Query
module Compile = Pax_xpath.Compile
module Formula = Pax_bool.Formula
module Fragment = Pax_frag.Fragment
module Cluster = Pax_dist.Cluster
module Measure = Pax_dist.Measure
module Wire = Pax_wire.Wire

let spf = Printf.sprintf

(* Sites that hold at least one fragment from [fids]. *)
let active_sites cl fids = Cluster.sites_holding cl fids

let all_fids ft = Fragment.top_down ft

let run ?(annotations = false) (cl : Cluster.t) (q : Query.t) : Run_result.t =
  Cluster.reset cl;
  let ft = Cluster.ftree cl in
  let n_frag = Fragment.n_fragments ft in
  let compiled = q.Query.compiled in
  (* Built before the rounds: pool domains only read it. *)
  let plan = Flat_pass.make_plan compiled (Fragment.intern ft) in
  let analysis = if annotations then Some (Annot.analyze compiled ft) else None in
  let relevant_sel fid =
    match analysis with None -> true | Some a -> a.Annot.relevant_sel.(fid)
  in
  let init_for fid =
    if fid = 0 then Sel_pass.blank_init compiled
    else
      match analysis with
      | Some a -> Annot.init_of_ctx compiled ~fid a.Annot.ctx.(fid)
      | None -> Sel_pass.symbolic_init compiled ~fid
  in
  let fq_store : Flat_pass.qual option array = Array.make n_frag None in
  let remote_if_net rm =
    if Cluster.transport_active cl then Some rm else None
  in

  (* ---------------- Stage 1: qualifiers, all sites ---------------- *)
  let stage1_needed = not (Compile.no_qualifiers compiled) in
  (* Per-fragment views of the stage-1 result (the root qualifier
     vector), filled by the in-process pass or a wire reply; the
     accounting loop and evalFT read only these.  [fq_store] holds the
     full in-process qual-pass state for stage 2 — a remote site keeps
     the equivalent state itself between visits. *)
  let q1_seen = Array.make n_frag false in
  let q1_vec : Formula.t array array = Array.make n_frag [||] in
  let resolved_quals =
    if not stage1_needed then None
    else begin
      let sites = active_sites cl (all_fids ft) in
      (* Stage state is keyed by fid within the round: a replayed visit
         (lost reply under a fault plan) skips recomputation, so ops are
         not double-counted and stage-1 vectors are not rebuilt. *)
      let s1_local site =
        List.iter
          (fun fid ->
            if not q1_seen.(fid) then begin
              let fq =
                Flat_pass.qual_run plan (Fragment.flat ft fid)
                  ~is_root:(fid = 0)
              in
              fq_store.(fid) <- Some fq;
              q1_vec.(fid) <- fq.Flat_pass.q_root_vec;
              Cluster.add_ops cl ~site fq.Flat_pass.q_ops;
              q1_seen.(fid) <- true
            end)
          (Cluster.fragments_on cl site)
      in
      let s1_remote =
        {
          Cluster.build =
            (fun site ->
              Wire.Pax3_stage1
                { query = q.Query.source; fids = Cluster.fragments_on cl site });
          parse =
            (fun site reply ->
              match reply with
              | Wire.Frag_results frs ->
                  List.iter
                    (fun (fr : Wire.frag_result) ->
                      let fid = fr.Wire.fr_fid in
                      if not q1_seen.(fid) then begin
                        q1_vec.(fid) <-
                          (match fr.Wire.fr_vec with
                          | Some vec -> vec
                          | None ->
                              invalid_arg "PaX3: stage-1 reply lacks vector");
                        q1_seen.(fid) <- true;
                        Cluster.add_ops cl ~site fr.Wire.fr_ops
                      end)
                    frs
              | Wire.Final_answers _ ->
                  invalid_arg "PaX3: unexpected stage-1 reply");
        }
      in
      ignore
        (Cluster.run_round cl
           ?remote:(remote_if_net s1_remote)
           ~label:"stage1" ~sites s1_local);
      List.iter
        (fun site ->
          Cluster.send cl ~src:Coordinator ~dst:(Site site) ~kind:Query
            ~bytes:(Measure.query q) ~label:"QVect(Q)";
          List.iter
            (fun fid ->
              if q1_seen.(fid) then
                Cluster.send cl ~src:(Site site) ~dst:Coordinator ~kind:Vectors
                  ~bytes:(Measure.formula_array q1_vec.(fid))
                  ~label:(spf "QV(F%d)" fid))
            (Cluster.fragments_on cl site))
        sites;
      Some
        (Cluster.coord cl ~label:"evalFT:quals" (fun () ->
             Cluster.add_ops cl ~site:(-1) (n_frag * compiled.Compile.n_qual);
             Eval_ft.resolve_quals ft ~root_vecs:(fun fid ->
                 if q1_seen.(fid) then Some q1_vec.(fid) else None)))
    end
  in
  let qual_lookup =
    match resolved_quals with
    | Some r -> Eval_ft.qual_lookup r
    | None -> fun _ -> None
  in

  (* ---------------- Stage 2: selection, relevant sites ------------- *)
  let rel_fids = List.filter relevant_sel (all_fids ft) in
  let stage2_sites = active_sites cl rel_fids in
  (* Stage-2 views: context vectors, certain answers, and the number of
     candidates each site kept back for stage 3 ([local_cands] has the
     actual formulas in-process only). *)
  let s2_seen = Array.make n_frag false in
  let s2_ctxs : (int * Formula.t array) list array = Array.make n_frag [] in
  let s2_certain : Tree.node list array = Array.make n_frag [] in
  let s2_cands = Array.make n_frag 0 in
  let local_cands : (Pax_xml.Flat.t * (int * Formula.t) list) option array =
    Array.make n_frag None
  in
  (* The [s2_seen] guard keeps replayed visits from re-running
     [Flat_pass.qual_resolve], which substitutes into the stage-1
     vectors in place — exactly the "corrupt stage-1 state" hazard
     idempotent visits exist to prevent. *)
  let s2_local site =
    List.iter
      (fun fid ->
        if relevant_sel fid && not s2_seen.(fid) then begin
          let fl =
            match fq_store.(fid) with
            | Some fq ->
                Cluster.add_ops cl ~site
                  (Flat_pass.qual_resolve fq qual_lookup);
                (* The same image stage 1 ran on: its slots index the
                   resolved qualifier vectors. *)
                fq.Flat_pass.q_flat
            | None -> Fragment.flat ft fid
          in
          let oc =
            Flat_pass.sel_run plan fl ~init:(init_for fid) ~is_root:(fid = 0)
              ~qual:fq_store.(fid)
          in
          s2_ctxs.(fid) <- oc.Flat_pass.contexts;
          s2_certain.(fid) <- Run_result.nodes_of_slots fl oc.Flat_pass.answers;
          s2_cands.(fid) <- List.length oc.Flat_pass.candidates;
          local_cands.(fid) <- Some (fl, oc.Flat_pass.candidates);
          s2_seen.(fid) <- true;
          Cluster.add_ops cl ~site oc.Flat_pass.ops
        end)
      (Cluster.fragments_on cl site)
  in
  let s2_remote =
    {
      Cluster.build =
        (fun site ->
          Wire.Pax3_stage2
            {
              query = q.Query.source;
              frags =
                List.filter_map
                  (fun fid ->
                    if relevant_sel fid then
                      Some
                        ( {
                            Wire.fe_fid = fid;
                            fe_is_root = fid = 0;
                            fe_init =
                              (if annotations then Some (init_for fid)
                               else None);
                          },
                          match resolved_quals with
                          | Some r ->
                              List.map
                                (fun sub -> (sub, r.(sub)))
                                ft.Fragment.children.(fid)
                          | None -> [] )
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
                  if not s2_seen.(fid) then begin
                    s2_ctxs.(fid) <- fr.Wire.fr_ctxs;
                    s2_certain.(fid) <-
                      List.map Wire.node_of_answer fr.Wire.fr_answers;
                    s2_cands.(fid) <- fr.Wire.fr_cands;
                    s2_seen.(fid) <- true;
                    Cluster.add_ops cl ~site fr.Wire.fr_ops
                  end)
                frs
          | Wire.Final_answers _ ->
              invalid_arg "PaX3: unexpected stage-2 reply");
    }
  in
  ignore
    (Cluster.run_round cl
       ?remote:(remote_if_net s2_remote)
       ~label:"stage2" ~sites:stage2_sites s2_local);
  List.iter
    (fun site ->
      Cluster.send cl ~src:Coordinator ~dst:(Site site) ~kind:Query
        ~bytes:(Measure.query q) ~label:"SVect(Q)";
      List.iter
        (fun fid ->
          if relevant_sel fid then begin
            (* Unified qualifier values for the fragment's sub-fragments. *)
            (match resolved_quals with
            | Some r ->
                List.iter
                  (fun sub ->
                    Cluster.send cl ~src:Coordinator ~dst:(Site site)
                      ~kind:Resolution
                      ~bytes:(Measure.bool_array r.(sub))
                      ~label:(spf "QV*(F%d)" sub))
                  (Cluster.ftree cl).Fragment.children.(fid)
            | None -> ());
            if s2_seen.(fid) then begin
              List.iter
                (fun (sub, vec) ->
                  Cluster.send cl ~src:(Site site) ~dst:Coordinator
                    ~kind:Vectors ~bytes:(Measure.formula_array vec)
                    ~label:(spf "SV(F%d)" sub))
                s2_ctxs.(fid);
              if s2_certain.(fid) <> [] then
                Cluster.send cl ~src:(Site site) ~dst:Coordinator ~kind:Answers
                  ~bytes:(Measure.answers s2_certain.(fid))
                  ~label:(spf "ans(F%d)" fid)
            end
          end)
        (Cluster.fragments_on cl site))
    stage2_sites;

  (* Coordinator: unify the context vectors top-down. *)
  let raw_ctx : Formula.t array option array = Array.make n_frag None in
  Array.iteri
    (fun fid ctxs ->
      if s2_seen.(fid) then
        List.iter (fun (sub, vec) -> raw_ctx.(sub) <- Some vec) ctxs)
    s2_ctxs;
  let resolved_ctx =
    Cluster.coord cl ~label:"evalFT:contexts" (fun () ->
        Cluster.add_ops cl ~site:(-1) (n_frag * compiled.Compile.n_sel);
        Eval_ft.resolve_contexts ft
          ~root_ctx:(Array.make compiled.Compile.n_sel false)
          ~ctx_of:(fun fid -> raw_ctx.(fid))
          ~qual_lookup)
  in
  let ctx_lookup = Eval_ft.ctx_lookup resolved_ctx in

  (* ---------------- Stage 3: resolve candidates -------------------- *)
  let has_candidates fid = s2_seen.(fid) && s2_cands.(fid) > 0 in
  let cand_fids = List.filter has_candidates (all_fids ft) in
  let stage3_sites = active_sites cl cand_fids in
  (* Per-fid memo (replay idempotence under fault plans) as an array,
     not a shared hashtable: a fragment lives on exactly one site, so
     under a parallel round the worker domains write disjoint cells. *)
  let stage3_memo : Tree.node list option array = Array.make n_frag None in
  let s3_local site =
    List.concat_map
      (fun fid ->
        if has_candidates fid then
          match stage3_memo.(fid) with
          | Some answers -> answers
          | None ->
              let fl, cands = Option.get local_cands.(fid) in
              let slots, ops = Flat_pass.resolve_candidates cands ctx_lookup in
              Cluster.add_ops cl ~site ops;
              let answers = Run_result.nodes_of_slots fl slots in
              stage3_memo.(fid) <- Some answers;
              answers
        else [])
      (Cluster.fragments_on cl site)
  in
  let s3_remote =
    {
      Cluster.build =
        (fun site ->
          Wire.Pax3_stage3
            {
              frags =
                List.filter_map
                  (fun fid ->
                    if has_candidates fid then Some (fid, resolved_ctx.(fid))
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
              invalid_arg "PaX3: unexpected stage-3 reply");
    }
  in
  let stage3_answers =
    Cluster.run_round cl
      ?remote:(remote_if_net s3_remote)
      ~label:"stage3" ~sites:stage3_sites s3_local
  in
  List.iter
    (fun site ->
      List.iter
        (fun fid ->
          if has_candidates fid then
            Cluster.send cl ~src:Coordinator ~dst:(Site site) ~kind:Resolution
              ~bytes:(Measure.bool_array resolved_ctx.(fid))
              ~label:(spf "SV*(F%d)" fid))
        (Cluster.fragments_on cl site))
    stage3_sites;
  List.iter
    (fun (site, answers) ->
      if answers <> [] then
        Cluster.send cl ~src:(Site site) ~dst:Coordinator ~kind:Answers
          ~bytes:(Measure.answers answers) ~label:"ans")
    stage3_answers;

  let certain = List.concat (Array.to_list s2_certain) in
  let answers = certain @ List.concat_map snd stage3_answers in
  Run_result.make ~trace:(Cluster.trace cl) ~query:q ~answers
    ~report:(Cluster.report cl) ()
