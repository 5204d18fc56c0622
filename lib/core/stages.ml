module Tree = Pax_xml.Tree
module Query = Pax_xpath.Query
module Compile = Pax_xpath.Compile
module Formula = Pax_bool.Formula
module Bits = Pax_bool.Bits
module Fragment = Pax_frag.Fragment
module Cluster = Pax_dist.Cluster
module Wire = Pax_wire.Wire

type engine = Two_stage | Three_stage

type t = {
  engine : engine;
  cl : Cluster.t;
  ft : Fragment.t;
  q : Query.t;
  compiled : Compile.t;
  analysis : Annot.analysis option;
  (* Per-fragment views, filled by parsing site replies (or from the
     stage cache: [cached]) — everything downstream (unification,
     answer assembly) reads only these, so both backends are
     observably identical.  A site keeps its candidates to itself
     until the final round; only their number comes back. *)
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

let prepare ?(annotations = false) engine cl q =
  let ft = Cluster.ftree cl in
  let n_frag = Fragment.n_fragments ft in
  let compiled = q.Query.compiled in
  {
    engine;
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

(* PaX3's selection pass runs after qualifiers are known, so it skips
   every fragment that cannot hold an answer; PaX2's also keeps those
   whose data a qualifier of an answer reads. *)
let selects r fid =
  (match (r.analysis, r.engine) with
  | None, _ -> true
  | Some a, Two_stage -> a.Annot.relevant.(fid)
  | Some a, Three_stage -> a.Annot.relevant_sel.(fid))
  && not r.cached.(fid)

let has_candidates r fid = r.seen.(fid) && r.cands.(fid) > 0
let certain_answers r = List.concat (Array.to_list r.certain)
let root_quals r = r.quals.(0)

let round r ~label ~needed rm =
  let fids = List.filter needed (Fragment.top_down r.ft) in
  Cluster.run_round r.cl ~label ~sites:(Cluster.sites_holding r.cl fids) rm

(* A reply's root qualifier vector is required where the site computes
   one: PaX3's qualifier pass, and PaX2's combined pass when the query
   has qualifiers. *)
let fill ~needs_vec r (fr : Wire.frag_result) =
  let fid = fr.Wire.fr_fid in
  (match fr.Wire.fr_vec with
  | Some vec -> r.qvec.(fid) <- vec
  | None when not needs_vec -> ()
  | None -> invalid_arg "Stages: reply lacks the root qualifier vector");
  r.ctxs.(fid) <- fr.Wire.fr_ctxs;
  r.certain.(fid) <- List.map Wire.node_of_answer fr.Wire.fr_answers;
  r.cands.(fid) <- fr.Wire.fr_cands;
  r.seen.(fid) <- true

let combined_vec r = r.engine = Two_stage && r.compiled.Compile.n_qual > 0

let prefill r fr =
  fill ~needs_vec:(combined_vec r) r fr;
  r.cached.(fr.Wire.fr_fid) <- true

(* Fill each fragment's view from a [Frag_results] reply and charge the
   site its ops; [store] sees each result. *)
let frag_results ?(store = ignore) ~needs_vec r site = function
  | Wire.Frag_results frs ->
      List.iter
        (fun (fr : Wire.frag_result) ->
          fill ~needs_vec r fr;
          Cluster.add_ops r.cl ~site fr.Wire.fr_ops;
          store fr)
        frs
  | _ -> invalid_arg "Stages: unexpected stage reply"

let qualify r =
  {
    Cluster.build =
      (fun site ->
        Wire.Pax3_stage1
          { query = r.q.Query.source; fids = Cluster.fragments_on r.cl site });
    parse = frag_results ~needs_vec:true r;
  }

let frag_eval r fid =
  {
    Wire.fe_fid = fid;
    fe_is_root = fid = 0;
    (* Derivable inits stay implicit; only the annotation-pruned
       vectors ship. *)
    fe_init = Annot.shipped_init r.compiled r.analysis fid;
  }

(* The unified qualifier values of [fid]'s sub-fragments. *)
let sub_quals r fid =
  List.map
    (fun sub -> (sub, Bits.of_array r.quals.(sub)))
    r.ft.Fragment.children.(fid)

let select ?store r =
  {
    Cluster.build =
      (fun site ->
        (* A stage-cache hit's view is already filled: it neither
           travels nor runs again. *)
        let fids = List.filter (selects r) (Cluster.fragments_on r.cl site) in
        let query = r.q.Query.source in
        match r.engine with
        | Two_stage ->
            Wire.Pax2_stage1 { query; frags = List.map (frag_eval r) fids }
        | Three_stage ->
            let subs fid =
              if Compile.no_qualifiers r.compiled then [] else sub_quals r fid
            in
            let frag fid = (frag_eval r fid, subs fid) in
            Wire.Pax3_stage2 { query; frags = List.map frag fids });
    parse = frag_results ?store ~needs_vec:(combined_vec r) r;
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
  (* A fragment's contexts stay [[]] until its reply is seen. *)
  r.ctx <-
    Eval_ft.unify_contexts r.ft ~n_sel:r.compiled.Compile.n_sel
      ~contexts:r.ctxs
      ~qual_lookup:(Eval_ft.qual_lookup r.quals)

let resolve r =
  {
    Cluster.build =
      (fun site ->
        let fids =
          List.filter (has_candidates r) (Cluster.fragments_on r.cl site)
        in
        let ctx fid = Bits.of_array r.ctx.(fid) in
        match r.engine with
        | Two_stage ->
            let frag fid = (fid, ctx fid, sub_quals r fid) in
            Wire.Pax2_stage2 { frags = List.map frag fids }
        | Three_stage ->
            let frag fid = (fid, ctx fid) in
            Wire.Pax3_stage3 { frags = List.map frag fids });
    parse =
      (fun site reply ->
        match reply with
        | Wire.Final_answers { answers; ops } ->
            Cluster.add_ops r.cl ~site ops;
            List.map Wire.node_of_answer answers
        | _ -> invalid_arg "Stages: unexpected final reply");
  }
