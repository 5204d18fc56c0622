module Tree = Pax_xml.Tree
module Query = Pax_xpath.Query
module Compile = Pax_xpath.Compile
module Fragment = Pax_frag.Fragment
module Cluster = Pax_dist.Cluster
module Measure = Pax_dist.Measure

type t = {
  results : (Query.t * Tree.node list) list;
  report : Cluster.report;
}

type per_query = {
  q : Query.t;
  compiled : Compile.t;
  analysis : Annot.analysis option;
  plan : Flat_pass.plan;
  (* per fragment: the image the combined pass ran on, whose slots the
     outcome names, and the outcome *)
  outcomes : (Pax_xml.Flat.t * Flat_pass.combined_outcome) option array;
  mutable resolved_quals : bool array array;
  mutable resolved_ctx : bool array array;
}

let run ?(annotations = false) (cl : Cluster.t) (queries : Query.t list) : t =
  Cluster.reset cl;
  let ft = Cluster.ftree cl in
  let n_frag = Fragment.n_fragments ft in
  let states =
    List.map
      (fun q ->
        let compiled = q.Query.compiled in
        {
          q;
          compiled;
          plan = Flat_pass.make_plan compiled (Fragment.intern ft);
          analysis =
            (if annotations then Some (Annot.analyze compiled ft) else None);
          outcomes = Array.make n_frag None;
          resolved_quals = [||];
          resolved_ctx = [||];
        })
      queries
  in
  let relevant st fid =
    match st.analysis with None -> true | Some a -> a.Annot.relevant.(fid)
  in
  let init_for st fid =
    if fid = 0 then Sel_pass.blank_init st.compiled
    else
      match st.analysis with
      | Some a -> Annot.init_of_ctx st.compiled ~fid a.Annot.ctx.(fid)
      | None -> Sel_pass.symbolic_init st.compiled ~fid
  in

  (* ---- Round 1: every relevant (site, query) pair, one visit ------ *)
  let relevant_sites =
    Cluster.sites_holding cl
      (List.filter
         (fun fid -> List.exists (fun st -> relevant st fid) states)
         (Fragment.top_down ft))
  in
  ignore
    (Cluster.run_round cl ~label:"stage1" ~sites:relevant_sites (fun site ->
         List.iter
           (fun fid ->
             List.iter
               (fun st ->
                 if relevant st fid then begin
                   let fl = Fragment.flat ft fid in
                   let oc =
                     Flat_pass.combined_run st.plan fl ~init:(init_for st fid)
                       ~is_root:(fid = 0)
                   in
                   st.outcomes.(fid) <- Some (fl, oc);
                   Cluster.add_ops cl ~site oc.Flat_pass.ops
                 end)
               states)
           (Cluster.fragments_on cl site)));
  List.iter
    (fun site ->
      List.iter
        (fun st ->
          Cluster.send cl ~src:Coordinator ~dst:(Site site) ~kind:Query
            ~bytes:(Measure.query st.q) ~label:"Q";
          List.iter
            (fun fid ->
              match st.outcomes.(fid) with
              | Some (fl, oc) ->
                  if st.compiled.Compile.n_qual > 0 then
                    Cluster.send cl ~src:(Site site) ~dst:Coordinator
                      ~kind:Vectors
                      ~bytes:(Measure.formula_array oc.Flat_pass.root_qvec)
                      ~label:"QV";
                  List.iter
                    (fun (_, vec) ->
                      Cluster.send cl ~src:(Site site) ~dst:Coordinator
                        ~kind:Vectors ~bytes:(Measure.formula_array vec)
                        ~label:"SV")
                    oc.Flat_pass.contexts;
                  if oc.Flat_pass.answers <> [] then
                    Cluster.send cl ~src:(Site site) ~dst:Coordinator
                      ~kind:Answers
                      ~bytes:
                        (Measure.answers
                           (Run_result.nodes_of_slots fl oc.Flat_pass.answers))
                      ~label:"ans"
              | None -> ())
            (Cluster.fragments_on cl site))
        states)
    relevant_sites;

  (* ---- Coordinator: unify per query --------------------------------- *)
  Cluster.coord cl ~label:"evalFT" (fun () ->
      List.iter
        (fun st ->
          st.resolved_quals <-
            Eval_ft.resolve_quals ft ~root_vecs:(fun fid ->
                Option.map
                  (fun (_, oc) -> oc.Flat_pass.root_qvec)
                  st.outcomes.(fid));
          let raw_ctx = Array.make n_frag None in
          Array.iter
            (function
              | Some (_, oc) ->
                  List.iter
                    (fun (sub, vec) -> raw_ctx.(sub) <- Some vec)
                    oc.Flat_pass.contexts
              | None -> ())
            st.outcomes;
          st.resolved_ctx <-
            Eval_ft.resolve_contexts ft
              ~root_ctx:(Array.make st.compiled.Compile.n_sel false)
              ~ctx_of:(fun fid -> raw_ctx.(fid))
              ~qual_lookup:(Eval_ft.qual_lookup st.resolved_quals))
        states);

  (* ---- Round 2: one visit per site holding any candidate ---------- *)
  let has_candidates st fid =
    match st.outcomes.(fid) with
    | Some (_, oc) -> oc.Flat_pass.candidates <> []
    | None -> false
  in
  let cand_sites =
    Cluster.sites_holding cl
      (List.filter
         (fun fid -> List.exists (fun st -> has_candidates st fid) states)
         (Fragment.top_down ft))
  in
  let resolved_answers =
    Cluster.run_round cl ~label:"stage2" ~sites:cand_sites (fun site ->
        List.map
          (fun st ->
            let lookup =
              Eval_ft.full_lookup ~quals:st.resolved_quals ~ctxs:st.resolved_ctx
            in
            let answers =
              List.concat_map
                (fun fid ->
                  match st.outcomes.(fid) with
                  | Some (fl, oc) when oc.Flat_pass.candidates <> [] ->
                      let slots, ops =
                        Flat_pass.resolve_candidates oc.Flat_pass.candidates
                          lookup
                      in
                      Cluster.add_ops cl ~site ops;
                      Run_result.nodes_of_slots fl slots
                  | Some _ | None -> [])
                (Cluster.fragments_on cl site)
            in
            if answers <> [] then
              Cluster.send cl ~src:(Site site) ~dst:Coordinator ~kind:Answers
                ~bytes:(Measure.answers answers) ~label:"ans";
            answers)
          states)
  in
  List.iter
    (fun site ->
      List.iter
        (fun st ->
          List.iter
            (fun fid ->
              if has_candidates st fid then
                Cluster.send cl ~src:Coordinator ~dst:(Site site)
                  ~kind:Resolution
                  ~bytes:(Measure.bool_array st.resolved_ctx.(fid))
                  ~label:"SV*")
            (Cluster.fragments_on cl site))
        states)
    cand_sites;

  let results =
    List.mapi
      (fun qi st ->
        let certain =
          Array.to_list st.outcomes
          |> List.concat_map (function
               | Some (fl, oc) ->
                   Run_result.nodes_of_slots fl oc.Flat_pass.answers
               | None -> [])
        in
        let late =
          List.concat_map (fun (_, per_q) -> List.nth per_q qi) resolved_answers
        in
        let all =
          List.sort_uniq
            (fun (a : Tree.node) (b : Tree.node) -> compare a.Tree.id b.Tree.id)
            (certain @ late)
        in
        (st.q, all))
      states
  in
  { results; report = Cluster.report cl }
