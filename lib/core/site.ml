module Wire = Pax_wire.Wire
module Flat = Pax_xml.Flat
module Query = Pax_xpath.Query
module Compile = Pax_xpath.Compile
module Formula = Pax_bool.Formula
module Bits = Pax_bool.Bits
module Var = Pax_bool.Var
module Fragment = Pax_frag.Fragment
module Cluster = Pax_dist.Cluster

type t = {
  intern : Pax_xml.Intern.t;
  image : int -> Flat.t;
  (* The run's query source, compiled, and lowered to a plan against
     the site's intern table — once per run, not per fragment. *)
  mutable query : (string * Compile.t * Flat_pass.plan) option;
  (* Candidates a fragment keeps for the run's final stage (PaX2 stage
     2, PaX3 stage 3), with the image whose slots they name: an install
     between stages swaps the held image, not this one. *)
  cands : (int, Flat.t * (int * Formula.t) list) Hashtbl.t;
  quals : (int, Flat_pass.qual) Hashtbl.t;
  replies : (int, Wire.reply) Hashtbl.t;  (* round -> reply *)
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
    cands = Hashtbl.create 8;
    quals = Hashtbl.create 8;
    replies = Hashtbl.create 4;
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

let init_of compiled ~fid ~is_root = function
  | Some vec -> vec
  | None ->
      if is_root then Sel_pass.blank_init compiled
      else Sel_pass.symbolic_init compiled ~fid

(* A candidate formula of fragment [fid] only mentions
   [Sel_ctx (fid, _)] and [Qual (sub, _)] for direct sub-fragments, so
   the per-fragment resolutions in a call are a complete substitution
   source.  A sub-fragment pruned by the annotations ships an empty
   vector and reads as false, as in [Eval_ft.qual_lookup]. *)
let lookup_of ~ctxs ~quals =
  let read tbl f i =
    Option.map (fun bits -> Formula.bool (Bits.get bits i)) (Hashtbl.find_opt tbl f)
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
        match Hashtbl.find_opt t.cands fid with
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

let rec handle t call =
  match call with
  | Wire.Pax2_stage1 { query; frags } ->
      let compiled, plan = query_of t query in
      Wire.Frag_results
        (List.map
           (fun (fe : Wire.frag_eval) ->
             let fid = fe.Wire.fe_fid in
             let is_root = fe.Wire.fe_is_root in
             let init = init_of compiled ~fid ~is_root fe.Wire.fe_init in
             let fl = t.image fid in
             let oc = Flat_pass.combined_run plan fl ~init ~is_root in
             Hashtbl.replace t.cands fid (fl, oc.Flat_pass.candidates);
             {
               Wire.fr_fid = fid;
               fr_vec =
                 (if compiled.Compile.n_qual > 0 then
                    Some oc.Flat_pass.root_qvec
                  else None);
               fr_ctxs = oc.Flat_pass.contexts;
               fr_answers = Wire.answers_of_slots fl oc.Flat_pass.answers;
               fr_cands = List.length oc.Flat_pass.candidates;
               fr_ops = oc.Flat_pass.ops;
             })
           frags)
  | Wire.Pax2_stage2 { frags } ->
      let ctxs = Hashtbl.create 8 and quals = Hashtbl.create 8 in
      List.iter
        (fun (fid, ctx, subs) ->
          Hashtbl.replace ctxs fid ctx;
          List.iter (fun (sub, vec) -> Hashtbl.replace quals sub vec) subs)
        frags;
      final_answers t
        (List.map (fun (fid, _, _) -> fid) frags)
        (lookup_of ~ctxs ~quals) ~stage:"stage-1"
  | Wire.Pax3_stage1 { query; fids } ->
      let _, plan = query_of t query in
      Wire.Frag_results
        (List.map
           (fun fid ->
             let fq =
               Flat_pass.qual_run plan (t.image fid) ~is_root:(fid = 0)
             in
             Hashtbl.replace t.quals fid fq;
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
             let is_root = fe.Wire.fe_is_root in
             let quals = Hashtbl.create 4 in
             List.iter (fun (sub, vec) -> Hashtbl.replace quals sub vec) subs;
             let lookup = lookup_of ~ctxs:(Hashtbl.create 1) ~quals in
             let init = init_of compiled ~fid ~is_root fe.Wire.fe_init in
             let fq = Hashtbl.find_opt t.quals fid in
             (* The image stage 1 ran on: its slots index the resolved
                qualifier vectors. *)
             let fl, resolve_ops =
               match fq with
               | Some fq ->
                   (fq.Flat_pass.q_flat, Flat_pass.qual_resolve fq lookup)
               | None -> (t.image fid, 0)
             in
             let oc = Flat_pass.sel_run plan fl ~init ~is_root ~qual:fq in
             Hashtbl.replace t.cands fid (fl, oc.Flat_pass.candidates);
             {
               Wire.fr_fid = fid;
               fr_vec = None;
               fr_ctxs = oc.Flat_pass.contexts;
               fr_answers = Wire.answers_of_slots fl oc.Flat_pass.answers;
               fr_cands = List.length oc.Flat_pass.candidates;
               fr_ops = resolve_ops + oc.Flat_pass.ops;
             })
           frags)
  | Wire.Pax3_stage3 { frags } ->
      let ctxs = Hashtbl.create 8 in
      List.iter (fun (fid, ctx) -> Hashtbl.replace ctxs fid ctx) frags;
      final_answers t (List.map fst frags)
        (lookup_of ~ctxs ~quals:(Hashtbl.create 1))
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

let replay t ~round = Hashtbl.find_opt t.replies round
let record t ~round reply = Hashtbl.replace t.replies round reply

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

let handler states site = visit states.(site)
