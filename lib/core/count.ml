module Query = Pax_xpath.Query
module Compile = Pax_xpath.Compile
module Fragment = Pax_frag.Fragment
module Cluster = Pax_dist.Cluster
module Measure = Pax_dist.Measure

let spf = Printf.sprintf

(* Same protocol skeleton as PaX2, with counts in place of elements: a
   per-fragment certain count travels with the stage-1 response, and
   candidate resolutions return one integer per fragment. *)
let run ?(annotations = false) (cl : Cluster.t) (q : Query.t) :
    int * Cluster.report =
  Cluster.reset cl;
  let ft = Cluster.ftree cl in
  let n_frag = Fragment.n_fragments ft in
  let compiled = q.Query.compiled in
  let analysis = if annotations then Some (Annot.analyze compiled ft) else None in
  let relevant fid =
    match analysis with None -> true | Some a -> a.Annot.relevant.(fid)
  in
  (* Built before the round: pool domains only read it. *)
  let plan = Flat_pass.make_plan compiled (Fragment.intern ft) in
  let init_for fid =
    if fid = 0 then Sel_pass.blank_init compiled
    else
      match analysis with
      | Some a -> Annot.init_of_ctx compiled ~fid a.Annot.ctx.(fid)
      | None -> Sel_pass.symbolic_init compiled ~fid
  in
  let rel_fids = List.filter relevant (Fragment.top_down ft) in
  let stage1_sites = Cluster.sites_holding cl rel_fids in
  let outcomes : Flat_pass.combined_outcome option array =
    Array.make n_frag None
  in
  ignore
    (Cluster.run_round cl ~label:"stage1" ~sites:stage1_sites (fun site ->
         List.iter
           (fun fid ->
             if relevant fid then begin
               let oc =
                 Flat_pass.combined_run plan (Fragment.flat ft fid)
                   ~init:(init_for fid) ~is_root:(fid = 0)
               in
               outcomes.(fid) <- Some oc;
               Cluster.add_ops cl ~site oc.Flat_pass.ops
             end)
           (Cluster.fragments_on cl site)));
  List.iter
    (fun site ->
      Cluster.send cl ~src:Coordinator ~dst:(Site site) ~kind:Query
        ~bytes:(Measure.query q) ~label:"Q";
      List.iter
        (fun fid ->
          match outcomes.(fid) with
          | Some oc ->
              if compiled.Compile.n_qual > 0 then
                Cluster.send cl ~src:(Site site) ~dst:Coordinator ~kind:Vectors
                  ~bytes:(Measure.formula_array oc.Flat_pass.root_qvec)
                  ~label:(spf "QV(F%d)" fid);
              List.iter
                (fun (sub, vec) ->
                  Cluster.send cl ~src:(Site site) ~dst:Coordinator
                    ~kind:Vectors ~bytes:(Measure.formula_array vec)
                    ~label:(spf "SV(F%d)" sub))
                oc.Flat_pass.contexts;
              (* The certain count: one varint, not the elements. *)
              Cluster.send cl ~src:(Site site) ~dst:Coordinator ~kind:Vectors
                ~bytes:8 ~label:(spf "count(F%d)" fid)
          | None -> ())
        (Cluster.fragments_on cl site))
    stage1_sites;
  let resolved_quals =
    Cluster.coord cl ~label:"evalFT:quals" (fun () ->
        Eval_ft.resolve_quals ft ~root_vecs:(fun fid ->
            Option.map (fun oc -> oc.Flat_pass.root_qvec) outcomes.(fid)))
  in
  let qual_lookup = Eval_ft.qual_lookup resolved_quals in
  let raw_ctx = Array.make n_frag None in
  Array.iter
    (function
      | Some oc ->
          List.iter
            (fun (sub, vec) -> raw_ctx.(sub) <- Some vec)
            oc.Flat_pass.contexts
      | None -> ())
    outcomes;
  let resolved_ctx =
    Cluster.coord cl ~label:"evalFT:contexts" (fun () ->
        Eval_ft.resolve_contexts ft
          ~root_ctx:(Array.make compiled.Compile.n_sel false)
          ~ctx_of:(fun fid -> raw_ctx.(fid))
          ~qual_lookup)
  in
  let full_lookup = Eval_ft.full_lookup ~quals:resolved_quals ~ctxs:resolved_ctx in
  let has_candidates fid =
    match outcomes.(fid) with
    | Some oc -> oc.Flat_pass.candidates <> []
    | None -> false
  in
  let cand_fids = List.filter has_candidates (Fragment.top_down ft) in
  let stage2_sites = Cluster.sites_holding cl cand_fids in
  let stage2_counts =
    Cluster.run_round cl ~label:"stage2" ~sites:stage2_sites (fun site ->
        List.fold_left
          (fun acc fid ->
            match outcomes.(fid) with
            | Some oc when oc.Flat_pass.candidates <> [] ->
                let slots, ops =
                  Flat_pass.resolve_candidates oc.Flat_pass.candidates
                    full_lookup
                in
                Cluster.add_ops cl ~site ops;
                acc + List.length slots
            | Some _ | None -> acc)
          0
          (Cluster.fragments_on cl site))
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
        (Cluster.fragments_on cl site);
      Cluster.send cl ~src:(Site site) ~dst:Coordinator ~kind:Vectors ~bytes:8
        ~label:"count")
    stage2_sites;
  let certain =
    Array.fold_left
      (fun acc oc ->
        match oc with
        | Some oc -> acc + List.length oc.Flat_pass.answers
        | None -> acc)
      0 outcomes
  in
  let total = certain + List.fold_left (fun acc (_, c) -> acc + c) 0 stage2_counts in
  (total, Cluster.report cl)
