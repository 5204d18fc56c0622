module Tree = Pax_xml.Tree
module Query = Pax_xpath.Query
module Compile = Pax_xpath.Compile
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

let init_for compiled fid =
  if fid = 0 then Flat_pass.blank_init compiled
  else Flat_pass.symbolic_init compiled ~fid

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
  let resolved_ctx =
    Eval_ft.unify_contexts ft ~n_sel:compiled.Compile.n_sel
      ~contexts:
        (Array.map
           (function Some (_, oc) -> oc.Flat_pass.contexts | None -> [])
           outcomes)
      ~qual_lookup:(Eval_ft.qual_lookup resolved_quals)
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
  let plan = Flat_pass.make_plan compiled (Fragment.intern ft) in
  (* Pass 1: qualifiers — every fragment paged in once. *)
  let quals = Array.make n None in
  if not (Compile.no_qualifiers compiled) then
    List.iter
      (fun fid ->
        load (swaps, bytes) ft fid;
        quals.(fid) <-
          Some (Flat_pass.qual_run plan (Fragment.flat ft fid) ~is_root:(fid = 0)))
      (Fragment.bottom_up ft);
  let resolved_quals =
    Eval_ft.resolve_quals ft ~root_vecs:(fun fid ->
        Option.map (fun qp -> qp.Flat_pass.q_root_vec) quals.(fid))
  in
  let qual_lookup = Eval_ft.qual_lookup resolved_quals in
  (* Pass 2: selection — every fragment paged in again. *)
  let outcomes = Array.make n None in
  List.iter
    (fun fid ->
      load (swaps, bytes) ft fid;
      Option.iter
        (fun qp -> ignore (Flat_pass.qual_resolve qp qual_lookup : int))
        quals.(fid);
      let fl = Fragment.flat ft fid in
      outcomes.(fid) <-
        Some
          ( fl,
            Flat_pass.sel_run plan fl ~init:(init_for compiled fid)
              ~is_root:(fid = 0) ~qual:quals.(fid) ))
    (Fragment.top_down ft);
  let resolved_ctx =
    Eval_ft.unify_contexts ft ~n_sel:compiled.Compile.n_sel
      ~contexts:
        (Array.map
           (function
             | Some (_, (oc : Flat_pass.sel_outcome)) -> oc.contexts
             | None -> [])
           outcomes)
      ~qual_lookup
  in
  let ctx_lookup = Eval_ft.ctx_lookup resolved_ctx in
  (* Pass 3: fragments with candidates are paged in a third time. *)
  let answers = ref [] in
  Array.iteri
    (fun fid -> function
      | Some (fl, (oc : Flat_pass.sel_outcome)) ->
          if oc.candidates <> [] then load (swaps, bytes) ft fid;
          let late, _ = Flat_pass.resolve_candidates oc.candidates ctx_lookup in
          (* The #document wrapper (slot -1) is never an answer. *)
          List.iter
            (fun i -> if i >= 0 then answers := Flat.node_id fl i :: !answers)
            (oc.answers @ late)
      | None -> ())
    outcomes;
  finish ~answers:!answers ~swaps:!swaps ~bytes:!bytes ~ft ~peak
