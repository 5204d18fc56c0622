module Wire = Pax_wire.Wire
module Flat = Pax_xml.Flat
module Query = Pax_xpath.Query
module Compile = Pax_xpath.Compile
module Formula = Pax_bool.Formula
module Bits = Pax_bool.Bits
module Var = Pax_bool.Var
module Fragment = Pax_frag.Fragment
module Cluster = Pax_dist.Cluster

module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash (a : int) = a land max_int
end)

type t = {
  intern : Pax_xml.Intern.t;
  image : int -> Flat.t;
  (* The run's query source, compiled, and lowered to a plan against
     the site's intern table — once per run, not per fragment. *)
  mutable query : (string * Compile.t * Flat_pass.plan) option;
  (* Candidates a fragment keeps for the run's final stage (PaX2 stage
     2, PaX3 stage 3), with the image whose slots they name: an install
     between stages swaps the held image, not this one. *)
  cands : (Flat.t * (int * Formula.t) list) Int_tbl.t;
  quals : Flat_pass.qual Int_tbl.t;
  replies : Wire.reply Int_tbl.t;  (* round -> reply *)
  (* Per-query states for [Calls] (Batch): element [i] of a call list
     runs against [subs.(i)], created on first use. *)
  mutable subs : t array;
}

let create ?query intern ~image =
  {
    intern;
    image;
    query =
      Option.map
        (fun ((q : Query.t), plan) -> (q.Query.source, q.Query.compiled, plan))
        query;
    cands = Int_tbl.create 8;
    quals = Int_tbl.create 8;
    replies = Int_tbl.create 4;
    subs = [||];
  }

(* [handle] asks for the states of a call list in order, so a missing
   one is always the next. *)
let sub t i =
  if i = Array.length t.subs then
    t.subs <- Array.append t.subs [| create t.intern ~image:t.image |];
  t.subs.(i)

(* All stages of one run evaluate the same query; compile and lower it
   once.  Images are built before any run routed to them starts, so the
   plan sees every label they carry. *)
let query_of t source =
  match t.query with
  | Some (src, compiled, plan) when src = source -> (compiled, plan)
  | _ ->
      let compiled = (Query.of_string source).Query.compiled in
      let plan = Flat_pass.make_plan compiled t.intern in
      t.query <- Some (source, compiled, plan);
      (compiled, plan)

let init_of compiled (fe : Wire.frag_eval) =
  match fe.Wire.fe_init with
  | Some vec -> vec
  | None ->
      if fe.Wire.fe_is_root then Flat_pass.blank_init compiled
      else Flat_pass.symbolic_init compiled ~fid:fe.Wire.fe_fid

(* A candidate formula of fragment [fid] only mentions
   [Sel_ctx (fid, _)] and [Qual (sub, _)] for direct sub-fragments, so
   the per-fragment resolutions in a call are a complete substitution
   source.  A sub-fragment pruned by the annotations ships an empty
   vector and reads as false, as in [Eval_ft.qual_lookup]. *)
let lookup_of ~ctxs ~quals =
  let table pairs =
    let tbl = Int_tbl.create 8 in
    List.iter (fun (fid, bits) -> Int_tbl.replace tbl fid bits) pairs;
    tbl
  in
  let ctxs = table ctxs and quals = table quals in
  let read tbl f i =
    Option.map (fun bits -> Formula.bool (Bits.get bits i)) (Int_tbl.find_opt tbl f)
  in
  function
  | Var.Sel_ctx (f, i) -> read ctxs f i
  | Var.Qual (f, e) -> read quals f e
  | Var.Qual_at _ -> None

(* The final stage of PaX2 and PaX3: resolve the candidates each listed
   fragment kept from the [stage] before, ship the answers. *)
let final_answers t fids lookup ~stage =
  let ops = ref 0 in
  let answers =
    List.concat_map
      (fun fid ->
        match Int_tbl.find_opt t.cands fid with
        | Some (fl, cands) ->
            let slots, n = Flat_pass.resolve_candidates cands lookup in
            ops := !ops + n;
            Wire.answers_of_slots fl slots
        | None ->
            failwith (Printf.sprintf "no %s state for fragment %d" stage fid))
      fids
  in
  Wire.Final_answers { answers; ops = !ops }

(* A [Count] call's reply: the answer lists emptied, their lengths in
   wire order. *)
let counted reply =
  let counts = ref [] in
  let keep answers =
    counts := List.length answers :: !counts;
    []
  in
  let reply =
    match reply with
    | Wire.Frag_results frs ->
        Wire.Frag_results
          (List.map
             (fun (fr : Wire.frag_result) ->
               { fr with Wire.fr_answers = keep fr.Wire.fr_answers })
             frs)
    | Wire.Final_answers { answers; ops } ->
        Wire.Final_answers { answers = keep answers; ops }
    | reply -> reply
  in
  Wire.Counted { reply; counts = List.rev !counts }

(* A selection pass's result for one fragment, run on image [fl]: the
   candidates stay here for the final stage; only their number
   travels. *)
let selected t fid fl ~vec ~answers ~candidates ~contexts ~ops =
  Int_tbl.replace t.cands fid (fl, candidates);
  {
    Wire.fr_fid = fid;
    fr_vec = vec;
    fr_ctxs = contexts;
    fr_answers = Wire.answers_of_slots fl answers;
    fr_cands = List.length candidates;
    fr_ops = ops;
  }

let rec handle t call =
  match call with
  | Wire.Pax2_stage1 { query; frags } ->
      let compiled, plan = query_of t query in
      Wire.Frag_results
        (List.map
           (fun (fe : Wire.frag_eval) ->
             let fid = fe.Wire.fe_fid in
             let fl = t.image fid in
             let oc =
               Flat_pass.combined_run plan fl ~init:(init_of compiled fe)
                 ~is_root:fe.Wire.fe_is_root
             in
             selected t fid fl
               ~vec:
                 (if compiled.Compile.n_qual > 0 then
                    Some oc.Flat_pass.root_qvec
                  else None)
               ~answers:oc.Flat_pass.answers
               ~candidates:oc.Flat_pass.candidates
               ~contexts:oc.Flat_pass.contexts ~ops:oc.Flat_pass.ops)
           frags)
  | Wire.Pax2_stage2 { frags } ->
      final_answers t
        (List.map (fun (fid, _, _) -> fid) frags)
        (lookup_of
           ~ctxs:(List.map (fun (fid, ctx, _) -> (fid, ctx)) frags)
           ~quals:(List.concat_map (fun (_, _, subs) -> subs) frags))
        ~stage:"stage-1"
  | Wire.Pax3_stage1 { query; fids } ->
      let _, plan = query_of t query in
      Wire.Frag_results
        (List.map
           (fun fid ->
             let fq =
               Flat_pass.qual_run plan (t.image fid) ~is_root:(fid = 0)
             in
             Int_tbl.replace t.quals fid fq;
             {
               Wire.fr_fid = fid;
               fr_vec = Some fq.Flat_pass.q_root_vec;
               fr_ctxs = [];
               fr_answers = [];
               fr_cands = 0;
               fr_ops = fq.Flat_pass.q_ops;
             })
           fids)
  | Wire.Pax3_stage2 { query; frags } ->
      let compiled, plan = query_of t query in
      Wire.Frag_results
        (List.map
           (fun ((fe : Wire.frag_eval), subs) ->
             let fid = fe.Wire.fe_fid in
             let fq = Int_tbl.find_opt t.quals fid in
             (* The image stage 1 ran on: its slots index the resolved
                qualifier vectors. *)
             let fl, resolve_ops =
               match fq with
               | Some fq ->
                   let lookup = lookup_of ~ctxs:[] ~quals:subs in
                   (fq.Flat_pass.q_flat, Flat_pass.qual_resolve fq lookup)
               | None -> (t.image fid, 0)
             in
             let oc =
               Flat_pass.sel_run plan fl ~init:(init_of compiled fe)
                 ~is_root:fe.Wire.fe_is_root ~qual:fq
             in
             selected t fid fl ~vec:None ~answers:oc.Flat_pass.answers
               ~candidates:oc.Flat_pass.candidates
               ~contexts:oc.Flat_pass.contexts
               ~ops:(resolve_ops + oc.Flat_pass.ops))
           frags)
  | Wire.Pax3_stage3 { frags } ->
      final_answers t (List.map fst frags)
        (lookup_of ~ctxs:frags ~quals:[])
        ~stage:"stage-2"
  | Wire.Calls calls ->
      Wire.Replies
        (List.mapi
           (fun i call ->
             match call with
             | Wire.Calls _ | Wire.Count _ ->
                 invalid_arg "Site.handle: nested call wrapper"
             | call -> handle (sub t i) call)
           calls)
  | Wire.Count (Wire.Calls _ | Wire.Count _) ->
      invalid_arg "Site.handle: nested call wrapper"
  | Wire.Count call -> counted (handle t call)
  | Wire.Ship { fids } ->
      Wire.Images (List.map (fun fid -> (fid, t.image fid)) fids)
  | Wire.Reach_stage1 _ ->
      invalid_arg "Site.handle: reachability calls run on graph fragments"

let replay t ~round = Int_tbl.find_opt t.replies round
let record t ~round reply = Int_tbl.replace t.replies round reply

let visit t ~round call =
  match replay t ~round with
  | Some reply -> reply
  | None ->
      let reply = handle t call in
      record t ~round reply;
      reply

let states cl q =
  let ft = Cluster.ftree cl in
  let intern = Fragment.intern ft in
  let plan = Flat_pass.make_plan q.Query.compiled intern in
  Array.init (Cluster.n_sites cl) (fun _ ->
      create ~query:(q, plan) intern ~image:(Fragment.flat ft))

let batch cl qs =
  let ft = Cluster.ftree cl in
  let per_query = List.map (states cl) qs in
  Array.init (Cluster.n_sites cl) (fun site ->
      let t = create (Fragment.intern ft) ~image:(Fragment.flat ft) in
      t.subs <- Array.of_list (List.map (fun st -> st.(site)) per_query);
      t)

(* Over sockets the handler never runs, so the states are built at its
   first call, not before.  In process the pool calls it from several
   domains at once: the first build happens under a lock, once. *)
let handler build =
  let built = Atomic.make None and lock = Mutex.create () in
  let states () =
    match Atomic.get built with
    | Some states -> states
    | None ->
        Mutex.protect lock (fun () ->
            match Atomic.get built with
            | Some states -> states
            | None ->
                let states = build () in
                Atomic.set built (Some states);
                states)
  in
  fun site ~round call -> visit (states ()).(site) ~round call
