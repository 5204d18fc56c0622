module Tree = Pax_xml.Tree
module Query = Pax_xpath.Query
module Compile = Pax_xpath.Compile
module Formula = Pax_bool.Formula
module Fragment = Pax_frag.Fragment
module Flat = Pax_xml.Flat

type result = {
  answer_ids : int list;
  swap_ins : int;
  bytes_loaded : int;
  n_fragments : int;
  peak_fragment_nodes : int;
}

let fragment_setup ~memory_budget (doc : Tree.doc) =
  let cuts = Fragment.cuts_by_size doc ~budget:memory_budget in
  let ft = Fragment.fragmentize doc ~cuts in
  let peak =
    Array.fold_left
      (fun acc f -> max acc (Fragment.fragment_node_count f))
      0 ft.Fragment.fragments
  in
  (ft, peak)

let eval_root compiled ft fid =
  let root = (Fragment.fragment ft fid).Fragment.root in
  if fid = 0 then fst (Sel_pass.context_root compiled root) else root

let init_for compiled fid =
  if fid = 0 then Sel_pass.blank_init compiled
  else Sel_pass.symbolic_init compiled ~fid

let finish ~answers ~swaps ~bytes ~ft ~peak =
  {
    answer_ids = List.sort_uniq compare answers;
    swap_ins = swaps;
    bytes_loaded = bytes;
    n_fragments = Fragment.n_fragments ft;
    peak_fragment_nodes = peak;
  }

let load counters ft fid =
  let swaps, bytes = counters in
  incr swaps;
  bytes := !bytes + Fragment.fragment_byte_size (Fragment.fragment ft fid)

let run ~memory_budget (q : Query.t) (doc : Tree.doc) : result =
  let compiled = q.Query.compiled in
  let ft, peak = fragment_setup ~memory_budget doc in
  let n = Fragment.n_fragments ft in
  let swaps = ref 0 and bytes = ref 0 in
  let plan = Flat_pass.make_plan compiled (Fragment.intern ft) in
  let outcomes = Array.make n None in
  (* One swap-in per fragment: the combined traversal extracts
     everything the resolution needs. *)
  List.iter
    (fun fid ->
      load (swaps, bytes) ft fid;
      let fl = Fragment.flat ft fid in
      let oc =
        Flat_pass.combined_run plan fl ~init:(init_for compiled fid)
          ~is_root:(fid = 0)
      in
      outcomes.(fid) <- Some (fl, oc))
    (Fragment.top_down ft);
  let resolved_quals =
    Eval_ft.resolve_quals ft ~root_vecs:(fun fid ->
        Option.map (fun (_, oc) -> oc.Flat_pass.root_qvec) outcomes.(fid))
  in
  let qual_lookup = Eval_ft.qual_lookup resolved_quals in
  let raw_ctx = Array.make n None in
  Array.iter
    (function
      | Some (_, oc) ->
          List.iter
            (fun (sub, vec) -> raw_ctx.(sub) <- Some vec)
            oc.Flat_pass.contexts
      | None -> ())
    outcomes;
  let resolved_ctx =
    Eval_ft.resolve_contexts ft
      ~root_ctx:(Array.make compiled.Compile.n_sel false)
      ~ctx_of:(fun fid -> raw_ctx.(fid))
      ~qual_lookup
  in
  let lookup = Eval_ft.full_lookup ~quals:resolved_quals ~ctxs:resolved_ctx in
  let answers =
    Array.to_list outcomes
    |> List.concat_map (function
         | Some (fl, oc) ->
             let late, _ =
               Flat_pass.resolve_candidates oc.Flat_pass.candidates lookup
             in
             List.map (Flat.node_id fl) (oc.Flat_pass.answers @ late)
         | None -> [])
  in
  finish ~answers ~swaps:!swaps ~bytes:!bytes ~ft ~peak

let run_two_pass ~memory_budget (q : Query.t) (doc : Tree.doc) : result =
  let compiled = q.Query.compiled in
  let ft, peak = fragment_setup ~memory_budget doc in
  let n = Fragment.n_fragments ft in
  let swaps = ref 0 and bytes = ref 0 in
  (* Pass 1: qualifiers — every fragment paged in once. *)
  let qp_store = Array.make n None in
  if not (Compile.no_qualifiers compiled) then
    List.iter
      (fun fid ->
        load (swaps, bytes) ft fid;
        qp_store.(fid) <- Some (Qual_pass.run compiled (eval_root compiled ft fid)))
      (Fragment.bottom_up ft);
  let resolved_quals =
    Eval_ft.resolve_quals ft ~root_vecs:(fun fid ->
        Option.map (fun qp -> qp.Qual_pass.root_vec) qp_store.(fid))
  in
  let qual_lookup = Eval_ft.qual_lookup resolved_quals in
  (* Pass 2: selection — every fragment paged in again. *)
  let outcomes = Array.make n None in
  List.iter
    (fun fid ->
      load (swaps, bytes) ft fid;
      (match qp_store.(fid) with
      | Some qp -> ignore (Qual_pass.resolve qp qual_lookup)
      | None -> ());
      let sat v filter =
        match qp_store.(fid) with
        | Some qp ->
            Qual_pass.sat compiled
              (Hashtbl.find qp.Qual_pass.vectors v.Tree.id)
              v filter
        | None -> Qual_pass.sat compiled [||] v filter
      in
      outcomes.(fid) <-
        Some
          (Sel_pass.run compiled ~init:(init_for compiled fid)
             ~root_is_context:(fid = 0) ~sat (eval_root compiled ft fid)))
    (Fragment.top_down ft);
  let raw_ctx = Array.make n None in
  Array.iter
    (function
      | Some oc ->
          List.iter (fun (sub, vec) -> raw_ctx.(sub) <- Some vec) oc.Sel_pass.contexts
      | None -> ())
    outcomes;
  let resolved_ctx =
    Eval_ft.resolve_contexts ft
      ~root_ctx:(Array.make compiled.Compile.n_sel false)
      ~ctx_of:(fun fid -> raw_ctx.(fid))
      ~qual_lookup
  in
  let ctx_lookup = Eval_ft.ctx_lookup resolved_ctx in
  (* Pass 3: fragments with candidates are paged in a third time. *)
  let answers = ref [] in
  Array.iteri
    (fun fid oc ->
      match oc with
      | Some oc ->
          List.iter
            (fun (v : Tree.node) ->
              if v.Tree.id >= 0 then answers := v.Tree.id :: !answers)
            oc.Sel_pass.answers;
          if oc.Sel_pass.candidates <> [] then begin
            load (swaps, bytes) ft fid;
            List.iter
              (fun ((v : Tree.node), f) ->
                match Formula.to_bool (Formula.subst ctx_lookup f) with
                | Some true when v.Tree.id >= 0 ->
                    answers := v.Tree.id :: !answers
                | Some _ -> ()
                | None -> invalid_arg "Paging.run_two_pass: unresolved candidate")
              oc.Sel_pass.candidates
          end
      | None -> ())
    outcomes;
  finish ~answers:!answers ~swaps:!swaps ~bytes:!bytes ~ft ~peak
