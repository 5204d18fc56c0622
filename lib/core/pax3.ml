module Tree = Pax_xml.Tree
module Query = Pax_xpath.Query
module Compile = Pax_xpath.Compile
module Formula = Pax_bool.Formula
module Bits = Pax_bool.Bits
module Fragment = Pax_frag.Fragment
module Cluster = Pax_dist.Cluster
module Wire = Pax_wire.Wire

(* Sites that hold at least one fragment from [fids]. *)
let active_sites cl fids = Cluster.sites_holding cl fids

let all_fids ft = Fragment.top_down ft

let run ?(annotations = false) (cl : Cluster.t) (q : Query.t) : Run_result.t =
  Cluster.reset ~handler:(Site.handler (Site.states cl q)) cl;
  let ft = Cluster.ftree cl in
  let n_frag = Fragment.n_fragments ft in
  let compiled = q.Query.compiled in
  let analysis = if annotations then Some (Annot.analyze compiled ft) else None in
  let relevant_sel fid =
    match analysis with None -> true | Some a -> a.Annot.relevant_sel.(fid)
  in
  (* ---------------- Stage 1: qualifiers, all sites ---------------- *)
  let stage1_needed = not (Compile.no_qualifiers compiled) in
  (* Per-fragment views of the stage-1 result (the root qualifier
     vector), filled by parsing site replies; evalFT reads only these.
     The site keeps its full qual-pass state for stage 2. *)
  let q1_seen = Array.make n_frag false in
  let q1_vec : Formula.t array array = Array.make n_frag [||] in
  let resolved_quals =
    if not stage1_needed then None
    else begin
      let sites = active_sites cl (all_fids ft) in
      let rm1 =
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
                      q1_vec.(fid) <-
                        (match fr.Wire.fr_vec with
                        | Some vec -> vec
                        | None -> invalid_arg "PaX3: stage-1 reply lacks vector");
                      q1_seen.(fid) <- true;
                      Cluster.add_ops cl ~site fr.Wire.fr_ops)
                    frs
              | _ ->
                  invalid_arg "PaX3: unexpected stage-1 reply");
        }
      in
      ignore (Cluster.run_round cl ~label:"stage1" ~sites rm1);
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
     candidates each site kept back for stage 3. *)
  let s2_seen = Array.make n_frag false in
  let s2_ctxs : (int * Formula.t array) list array = Array.make n_frag [] in
  let s2_certain : Tree.node list array = Array.make n_frag [] in
  let s2_cands = Array.make n_frag 0 in
  let rm2 =
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
                            fe_init = Annot.shipped_init compiled analysis fid;
                          },
                          match resolved_quals with
                          | Some r ->
                              List.map
                                (fun sub -> (sub, Bits.of_array r.(sub)))
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
                  s2_ctxs.(fid) <- fr.Wire.fr_ctxs;
                  s2_certain.(fid) <-
                    List.map Wire.node_of_answer fr.Wire.fr_answers;
                  s2_cands.(fid) <- fr.Wire.fr_cands;
                  s2_seen.(fid) <- true;
                  Cluster.add_ops cl ~site fr.Wire.fr_ops)
                frs
          | _ ->
              invalid_arg "PaX3: unexpected stage-2 reply");
    }
  in
  ignore (Cluster.run_round cl ~label:"stage2" ~sites:stage2_sites rm2);

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

  (* ---------------- Stage 3: resolve candidates -------------------- *)
  let has_candidates fid = s2_seen.(fid) && s2_cands.(fid) > 0 in
  let cand_fids = List.filter has_candidates (all_fids ft) in
  let stage3_sites = active_sites cl cand_fids in
  let rm3 =
    {
      Cluster.build =
        (fun site ->
          Wire.Pax3_stage3
            {
              frags =
                List.filter_map
                  (fun fid ->
                    if has_candidates fid then
                      Some (fid, Bits.of_array resolved_ctx.(fid))
                    else None)
                  (Cluster.fragments_on cl site);
            });
      parse =
        (fun site reply ->
          match reply with
          | Wire.Final_answers { answers; ops } ->
              Cluster.add_ops cl ~site ops;
              List.map Wire.node_of_answer answers
          | _ ->
              invalid_arg "PaX3: unexpected stage-3 reply");
    }
  in
  let stage3_answers =
    Cluster.run_round cl ~label:"stage3" ~sites:stage3_sites rm3
  in
  let certain = List.concat (Array.to_list s2_certain) in
  let answers = certain @ List.concat_map snd stage3_answers in
  Run_result.make ~trace:(Cluster.trace cl) ~query:q ~answers
    ~report:(Cluster.report cl) ()
