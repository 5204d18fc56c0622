module Tree = Pax_xml.Tree
module Query = Pax_xpath.Query
module Compile = Pax_xpath.Compile
module Formula = Pax_bool.Formula
module Bits = Pax_bool.Bits
module Fragment = Pax_frag.Fragment
module Cluster = Pax_dist.Cluster
module Wire = Pax_wire.Wire

let spf = Printf.sprintf

type stages = {
  cl : Cluster.t;
  ft : Fragment.t;
  q : Query.t;
  compiled : Compile.t;
  analysis : Annot.analysis option;
  (* Per-fragment stage-1 views, filled by parsing site replies (or
     from the stage cache: [cached]) — everything downstream
     (unification, answer assembly) reads only these, so
     both backends are observably identical.  A site keeps its
     candidates to itself until stage 2; only their number comes
     back. *)
  seen : bool array;
  cached : bool array;
  qvec : Formula.t array array;
  ctxs : (int * Formula.t array) list array;
  certain : Tree.node list array;
  cands : int array;
  (* evalFT's results, set by [unify_quals] and [unify_contexts]. *)
  mutable quals : bool array array;
  mutable ctx : bool array array;
}

let prepare ?(annotations = false) cl q =
  let ft = Cluster.ftree cl in
  let n_frag = Fragment.n_fragments ft in
  let compiled = q.Query.compiled in
  {
    cl;
    ft;
    q;
    compiled;
    analysis = (if annotations then Some (Annot.analyze compiled ft) else None);
    seen = Array.make n_frag false;
    cached = Array.make n_frag false;
    qvec = Array.make n_frag [||];
    ctxs = Array.make n_frag [];
    certain = Array.make n_frag [];
    cands = Array.make n_frag 0;
    quals = [||];
    ctx = [||];
  }

let relevant r fid =
  match r.analysis with None -> true | Some a -> a.Annot.relevant.(fid)

let has_candidates r fid = r.seen.(fid) && r.cands.(fid) > 0
let certain_answers r = List.concat (Array.to_list r.certain)

let fill r (fr : Wire.frag_result) =
  let fid = fr.Wire.fr_fid in
  r.qvec.(fid) <-
    (match fr.Wire.fr_vec with
    | Some vec -> vec
    | None when r.compiled.Compile.n_qual = 0 -> [||]
    | None -> invalid_arg "PaX2: stage-1 reply lacks vector");
  r.ctxs.(fid) <- fr.Wire.fr_ctxs;
  r.certain.(fid) <- List.map Wire.node_of_answer fr.Wire.fr_answers;
  r.cands.(fid) <- fr.Wire.fr_cands;
  r.seen.(fid) <- true

let stage1 ?(store = ignore) r =
  {
    Cluster.build =
      (fun site ->
        Wire.Pax2_stage1
          {
            query = r.q.Query.source;
            frags =
              List.filter_map
                (fun fid ->
                  (* A stage-cache hit's view is already filled: it
                     neither travels nor runs again. *)
                  if relevant r fid && not r.cached.(fid) then
                    Some
                      {
                        Wire.fe_fid = fid;
                        fe_is_root = fid = 0;
                        (* Derivable inits stay implicit; only the
                           annotation-pruned vectors ship. *)
                        fe_init = Annot.shipped_init r.compiled r.analysis fid;
                      }
                  else None)
                (Cluster.fragments_on r.cl site);
          });
    parse =
      (fun site reply ->
        match reply with
        | Wire.Frag_results frs ->
            List.iter
              (fun (fr : Wire.frag_result) ->
                fill r fr;
                Cluster.add_ops r.cl ~site fr.Wire.fr_ops;
                store fr)
              frs
        | _ -> invalid_arg "PaX2: unexpected stage-1 reply");
  }

let unify_quals r =
  let n_frag = Fragment.n_fragments r.ft in
  Cluster.add_ops r.cl ~site:(-1) (n_frag * r.compiled.Compile.n_qual);
  r.quals <-
    Eval_ft.resolve_quals r.ft ~root_vecs:(fun fid ->
        if r.seen.(fid) then Some r.qvec.(fid) else None)

let unify_contexts r =
  let n_frag = Fragment.n_fragments r.ft in
  Cluster.add_ops r.cl ~site:(-1) (n_frag * r.compiled.Compile.n_sel);
  let raw_ctx = Array.make n_frag None in
  Array.iteri
    (fun fid ctxs ->
      if r.seen.(fid) then
        List.iter (fun (sub, vec) -> raw_ctx.(sub) <- Some vec) ctxs)
    r.ctxs;
  r.ctx <-
    Eval_ft.resolve_contexts r.ft
      ~root_ctx:(Array.make r.compiled.Compile.n_sel false)
      ~ctx_of:(fun fid -> raw_ctx.(fid))
      ~qual_lookup:(Eval_ft.qual_lookup r.quals)

let stage2 r =
  {
    Cluster.build =
      (fun site ->
        Wire.Pax2_stage2
          {
            frags =
              List.filter_map
                (fun fid ->
                  if has_candidates r fid then
                    Some
                      ( fid,
                        Bits.of_array r.ctx.(fid),
                        List.map
                          (fun sub -> (sub, Bits.of_array r.quals.(sub)))
                          r.ft.Fragment.children.(fid) )
                  else None)
                (Cluster.fragments_on r.cl site);
          });
    parse =
      (fun site reply ->
        match reply with
        | Wire.Final_answers { answers; ops } ->
            Cluster.add_ops r.cl ~site ops;
            List.map Wire.node_of_answer answers
        | _ -> invalid_arg "PaX2: unexpected stage-2 reply");
  }

let run ?(annotations = false) (cl : Cluster.t) (q : Query.t) : Run_result.t =
  Cluster.reset ~handler:(Site.handler (Site.states cl q)) cl;
  let r = prepare ~annotations cl q in
  let rel_fids = List.filter (relevant r) (Fragment.top_down r.ft) in
  (* Cross-query cache (socket path only; Stage_cache.noop unless a
     serving layer installed one).  A hit prefills the stage-1 view and
     elides the fragment from the round — no visit, no vector/answer
     traffic, no site ops, exactly as if the wire reply from the run
     that warmed the cache were replayed.  Only fully-resolved results
     (fr_cands = 0) are cached: a fragment retaining candidates has
     site-side state stage 2 must revisit. *)
  let cache = Cluster.stage_cache cl in
  let use_cache = Cluster.transport_active cl in
  let qkey =
    if use_cache then
      spf "%s|annot=%b" (Pax_xpath.Normal.to_string q.Query.normal) annotations
    else ""
  in
  if use_cache then
    List.iter
      (fun fid ->
        match cache.Pax_dist.Stage_cache.lookup ~qkey ~fid with
        | Some fr when fr.Wire.fr_cands = 0 && fr.Wire.fr_fid = fid ->
            fill r fr;
            r.cached.(fid) <- true
        | Some _ | None -> ())
      rel_fids;
  let store (fr : Wire.frag_result) =
    if use_cache && fr.Wire.fr_cands = 0 then
      cache.Pax_dist.Stage_cache.store ~qkey ~fid:fr.Wire.fr_fid fr
  in

  (* ---------------- Stage 1: combined pass, relevant sites --------- *)
  let stage1_sites =
    Cluster.sites_holding cl
      (List.filter (fun fid -> not r.cached.(fid)) rel_fids)
  in
  ignore
    (Cluster.run_round cl ~label:"stage1" ~sites:stage1_sites
       (stage1 ~store r));
  Cluster.coord cl ~label:"evalFT:quals" (fun () -> unify_quals r);
  Cluster.coord cl ~label:"evalFT:contexts" (fun () -> unify_contexts r);

  (* ---------------- Stage 2: resolve candidates -------------------- *)
  let stage2_sites =
    Cluster.sites_holding cl
      (List.filter (has_candidates r) (Fragment.top_down r.ft))
  in
  let stage2_answers =
    Cluster.run_round cl ~label:"stage2" ~sites:stage2_sites (stage2 r)
  in
  let answers = certain_answers r @ List.concat_map snd stage2_answers in
  Run_result.make ~trace:(Cluster.trace cl) ~query:q ~answers
    ~report:(Cluster.report cl) ()
