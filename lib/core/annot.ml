module Compile = Pax_xpath.Compile
module Fragment = Pax_frag.Fragment
module Formula = Pax_bool.Formula
module Var = Pax_bool.Var

type tri = F | T | M

let pp_tri ppf = function
  | F -> Format.pp_print_char ppf 'F'
  | T -> Format.pp_print_char ppf 'T'
  | M -> Format.pp_print_char ppf '?'

let and3 a b =
  match (a, b) with F, _ | _, F -> F | T, T -> T | M, (T | M) | T, M -> M

let or3 a b =
  match (a, b) with T, _ | _, T -> T | F, F -> F | M, (F | M) | F, M -> M

let tri_of_bool b = if b then T else F

(* Qualifier satisfaction on a spine node: the tag is known but text
   values and off-spine structure are not, so anything that looks at
   data is M. *)
let rec sat3 compiled = function
  | Compile.Sat pi ->
      if Array.length compiled.Compile.paths.(pi).Compile.items = 0 then T
      else M
  | Compile.Text_eq _ | Compile.Val_cmp _ | Compile.Attr_test _ -> M
  | Compile.Qnot q -> ( match sat3 compiled q with F -> T | T -> F | M -> M)
  | Compile.Qand (a, b) -> and3 (sat3 compiled a) (sat3 compiled b)
  | Compile.Qor (a, b) -> or3 (sat3 compiled a) (sat3 compiled b)

(* All qualifier paths a filter expression can demand, at any polarity. *)
let rec sat_refs acc = function
  | Compile.Sat pi -> pi :: acc
  | Compile.Text_eq _ | Compile.Val_cmp _ | Compile.Attr_test _ -> acc
  | Compile.Qnot q -> sat_refs acc q
  | Compile.Qand (a, b) | Compile.Qor (a, b) -> sat_refs (sat_refs acc a) b

type state = { sv : tri array; alive : bool array array }

let fresh_alive compiled =
  Array.map
    (fun (p : Compile.cpath) -> Array.make (Array.length p.Compile.items + 1) false)
    compiled.Compile.paths

(* Selection filters whose guarding prefix is not dead activate their
   qualifier paths at this node. *)
let activate_sel compiled st =
  Array.iteri
    (fun j item ->
      match item with
      | Compile.Filter q when st.sv.(j) <> F ->
          List.iter (fun pi -> st.alive.(pi).(0) <- true) (sat_refs [] q)
      | Compile.Filter _ | Compile.Move _ | Compile.Dos_item -> ())
    compiled.Compile.sel

(* Within-node closure of qualifier-path aliveness: Dos and Filter items
   advance without consuming a child edge, and filters activate their
   nested paths.  Nested paths have smaller indices, so one descending
   sweep reaches a fixpoint. *)
let closure compiled st =
  for pi = Array.length compiled.Compile.paths - 1 downto 0 do
    let p = compiled.Compile.paths.(pi) in
    let k = Array.length p.Compile.items in
    for j = 0 to k - 1 do
      if st.alive.(pi).(j) then
        match p.Compile.items.(j) with
        | Compile.Dos_item -> st.alive.(pi).(j + 1) <- true
        | Compile.Filter q ->
            st.alive.(pi).(j + 1) <- true;
            List.iter (fun pi' -> st.alive.(pi').(0) <- true) (sat_refs [] q)
        | Compile.Move _ -> ()
    done
  done

let finish compiled st =
  activate_sel compiled st;
  closure compiled st;
  st

(* The SV recurrence at a node with a known tag. *)
let sv_at compiled ~parent ~is_context tag =
  let n = compiled.Compile.n_sel in
  let sv = Array.make n F in
  sv.(0) <- tri_of_bool is_context;
  Array.iteri
    (fun j item ->
      let i = j + 1 in
      match item with
      | Compile.Move test ->
          sv.(i) <- and3 parent.(j) (tri_of_bool (Compile.matches test tag))
      | Compile.Dos_item -> sv.(i) <- or3 parent.(i) sv.(i - 1)
      | Compile.Filter q -> sv.(i) <- and3 sv.(i - 1) (sat3 compiled q))
    compiled.Compile.sel;
  sv

(* Consume one spine edge: move to a child whose tag is known. *)
let step compiled st tag =
  let sv = sv_at compiled ~parent:st.sv ~is_context:false tag in
  let alive = fresh_alive compiled in
  Array.iteri
    (fun pi per_j ->
      let p = compiled.Compile.paths.(pi) in
      let k = Array.length p.Compile.items in
      Array.iteri
        (fun j on ->
          if on && j < k then
            match p.Compile.items.(j) with
            | Compile.Move test ->
                if Compile.matches test tag then alive.(pi).(j + 1) <- true
            | Compile.Dos_item -> alive.(pi).(j) <- true
            | Compile.Filter _ -> ())
        per_j)
    st.alive;
  finish compiled { sv; alive }

let initial compiled root_tag =
  if compiled.Compile.absolute then begin
    (* State at the synthetic document node, then into the root. *)
    let sv = Array.make compiled.Compile.n_sel F in
    sv.(0) <- T;
    Array.iteri
      (fun j item ->
        let i = j + 1 in
        match item with
        | Compile.Dos_item -> sv.(i) <- sv.(i - 1)
        | Compile.Move _ -> ()
        | Compile.Filter q -> sv.(i) <- and3 sv.(i - 1) (sat3 compiled q))
      compiled.Compile.sel;
    let doc = finish compiled { sv; alive = fresh_alive compiled } in
    (doc, step compiled doc root_tag)
  end
  else begin
    let blank = Array.make compiled.Compile.n_sel F in
    let sv = sv_at compiled ~parent:blank ~is_context:true root_tag in
    let root = finish compiled { sv; alive = fresh_alive compiled } in
    ({ sv = blank; alive = fresh_alive compiled }, root)
  end

type analysis = {
  ctx : tri array array;
  relevant_sel : bool array;
  relevant : bool array;
}

let is_relevant_sel st = Array.exists (fun v -> v <> F) st.sv

let has_alive st =
  Array.exists (fun per_j -> Array.exists Fun.id per_j) st.alive

let analyze compiled ft : analysis =
  let n = Fragment.n_fragments ft in
  let ctx = Array.make n [||] in
  let relevant_sel = Array.make n false in
  let relevant = Array.make n false in
  (* State at the root node of every fragment, computed by walking the
     annotation paths down the fragment tree. *)
  let root_states = Array.make n None in
  let parent_sv, root0 =
    initial compiled (Fragment.root_fragment ft).Fragment.root.Pax_xml.Tree.tag
  in
  root_states.(0) <- Some root0;
  ctx.(0) <- Array.copy parent_sv.sv;
  List.iter
    (fun fid ->
      if fid <> 0 then begin
        let f = Fragment.fragment ft fid in
        let parent_state =
          match f.Fragment.parent with
          | Some p -> (
              match root_states.(p) with
              | Some st -> st
              | None -> invalid_arg "Annot.analyze: fragment order")
          | None -> invalid_arg "Annot.analyze: non-root without parent"
        in
        (* Walk the annotation tags; the state before the last step is
           the fragment's context. *)
        let rec walk st = function
          | [] -> invalid_arg "Annot.analyze: empty annotation"
          | [ last ] ->
              ctx.(fid) <- Array.copy st.sv;
              step compiled st last
          | tag :: rest -> walk (step compiled st tag) rest
        in
        root_states.(fid) <- Some (walk parent_state f.Fragment.ann)
      end)
    (Fragment.top_down ft);
  Array.iteri
    (fun fid st_opt ->
      match st_opt with
      | Some st ->
          relevant_sel.(fid) <- is_relevant_sel st;
          relevant.(fid) <- is_relevant_sel st || has_alive st
      | None -> ())
    root_states;
  { ctx; relevant_sel; relevant }

let init_of_ctx compiled ~fid ctx3 =
  Array.init compiled.Compile.n_sel (fun i ->
      match ctx3.(i) with
      | T -> Formula.true_
      | F -> Formula.false_
      | M -> Formula.var (Var.Sel_ctx (fid, i)))

let shipped_init compiled analysis fid =
  match analysis with
  | None -> None
  | Some _ when fid = 0 -> Some (Flat_pass.blank_init compiled)
  | Some a -> Some (init_of_ctx compiled ~fid a.ctx.(fid))
