(* The engines' stage kernels over flat fragment images
   (docs/FLATTREE.md): every engine and site server evaluates a
   fragment through these three passes.

   The qualifier and selection passes are {!Qual_pass} and {!Sel_pass}
   — same recurrences, same evaluation order, same operation counting —
   re-expressed over {!Pax_xml.Flat} slots: tag tests compare interned
   int codes, text and attribute tests compare against the shared byte
   buffer in place, and traversal follows the
   [first_child]/[next_sibling] int vectors instead of chasing node
   pointers.  Every formula the pointer passes would build is built
   here in the identical construction order; test/test_passes.ml holds
   each kernel to its pointer reference on random fragmentations.

   Slots are the only way the kernels name a node: answers and
   candidates leave as slot indices, and the caller builds shipped
   answers from the image ([Wire.answer_of_slot]).  The [#document]
   wrapper an absolute query puts above the root fragment is slot -1,
   evaluated by the same per-slot code as every other slot. *)

module Flat = Pax_xml.Flat
module Intern = Pax_xml.Intern
module Compile = Pax_xpath.Compile
module Ast = Pax_xpath.Ast
module Formula = Pax_bool.Formula
module Var = Pax_bool.Var

(* ------------------------------------------------------------------ *)
(* plans: the compiled query lowered against a store's intern table   *)
(* ------------------------------------------------------------------ *)

(* A tag test as an int: [-2] matches any tag, [-1] (a label the store
   never interned) matches none, a code matches exactly that tag. *)

type fqual =
  | FSat_empty  (* Sat of an empty path: trivially true *)
  | FSat of int  (* Sat of path [p]: entry [p.sat.(0)] *)
  | FText_eq of string
  | FVal_cmp of Ast.cmp * float
  | FAttr_test of int * string option
  | FNot of fqual
  | FAnd of fqual * fqual
  | FOr of fqual * fqual

type fitem = FMove of int | FDos | FFilter of fqual

type fpath = {
  fitems : fitem array;
  fsat : int array;
  fstep : int array;
  fdesc : int array;
}

type plan = { compiled : Compile.t; fsel : fitem array; fpaths : fpath array }

let lower_test intern = function
  | Compile.TAny -> -2
  | Compile.TLabel s -> Intern.find intern s

let make_plan (compiled : Compile.t) intern : plan =
  let rec lower_qual = function
    | Compile.Sat pi ->
        let p = compiled.Compile.paths.(pi) in
        if Array.length p.Compile.items = 0 then FSat_empty
        else FSat p.Compile.sat.(0)
    | Compile.Text_eq s -> FText_eq s
    | Compile.Val_cmp (op, num) -> FVal_cmp (op, num)
    | Compile.Attr_test (name, value) ->
        FAttr_test (Intern.find intern name, value)
    | Compile.Qnot q -> FNot (lower_qual q)
    | Compile.Qand (a, b) -> FAnd (lower_qual a, lower_qual b)
    | Compile.Qor (a, b) -> FOr (lower_qual a, lower_qual b)
  in
  let lower_item = function
    | Compile.Move test -> FMove (lower_test intern test)
    | Compile.Dos_item -> FDos
    | Compile.Filter q -> FFilter (lower_qual q)
  in
  {
    compiled;
    fsel = Array.map lower_item compiled.Compile.sel;
    fpaths =
      Array.map
        (fun (p : Compile.cpath) ->
          {
            fitems = Array.map lower_item p.Compile.items;
            fsat = p.Compile.sat;
            fstep = p.Compile.step;
            fdesc = p.Compile.desc;
          })
        compiled.Compile.paths;
  }

(* ------------------------------------------------------------------ *)
(* slots, the #document wrapper included                              *)
(* ------------------------------------------------------------------ *)

(* An absolute query evaluates the root fragment under a [#document]
   wrapper: slot -1, the parent of slot 0.  No XPath label can spell its
   tag, so only wildcard tests match it ([-3] is neither a tag code nor
   the never-interned [-1]).  It has no text (reads as [""]), no number,
   no attributes, and node id -1.  The kernels read slots through these
   accessors, so the wrapper runs the same per-slot code as every other
   slot; [next_sibling] is only asked of real slots. *)
let node_id flat i = if i < 0 then -1 else Flat.node_id flat i
let tag_code flat i = if i < 0 then -3 else Flat.tag_code flat i
let first_child flat i = if i < 0 then 0 else Flat.first_child flat i
let virtual_fid flat i = if i < 0 then -1 else Flat.virtual_fid flat i
let text_equals flat i s = if i < 0 then s = "" else Flat.text_equals flat i s
let num flat i = if i < 0 then None else Flat.num flat i

let attr_test flat i ~key ~expected =
  i >= 0 && Flat.attr_test flat i ~key ~expected

(* Where a fragment's evaluation starts: the wrapper for the root
   fragment of an absolute query, the fragment root otherwise. *)
let start plan ~is_root =
  if is_root && plan.compiled.Compile.absolute then -1 else 0

(* ------------------------------------------------------------------ *)
(* qualifier satisfaction over a slot                                 *)
(* ------------------------------------------------------------------ *)

(* Mirror of the pointer pass's [sat_view] with the lowered tests: [vec] is the
   slot's qualifier vector. *)
let rec fsat_view flat vec i = function
  | FSat_empty -> Formula.true_
  | FSat e -> vec.(e)
  | FText_eq s -> Formula.bool (text_equals flat i s)
  | FVal_cmp (op, n) ->
      Formula.bool
        (match num flat i with
        | Some f -> Ast.compare_num op f n
        | None -> false)
  | FAttr_test (key, expected) -> Formula.bool (attr_test flat i ~key ~expected)
  | FNot q -> Formula.not_ (fsat_view flat vec i q)
  | FAnd (a, b) ->
      Formula.conj (fsat_view flat vec i a) (fsat_view flat vec i b)
  | FOr (a, b) -> Formula.disj (fsat_view flat vec i a) (fsat_view flat vec i b)

(* Mirror of the pointer pass's [eval_entries]: one element slot's qualifier
   vector, path by path, suffix-position descending. *)
let feval_entries plan flat i ~exists_child : Formula.t array =
  let vec = Array.make plan.compiled.Compile.n_qual Formula.false_ in
  let tagc = tag_code flat i in
  Array.iter
    (fun (p : fpath) ->
      let k = Array.length p.fitems in
      for j = k - 1 downto 0 do
        let a_next =
          if j + 1 = k then Formula.true_ else vec.(p.fsat.(j + 1))
        in
        match p.fitems.(j) with
        | FMove code ->
            vec.(p.fstep.(j)) <-
              (if code = -2 || code = tagc then a_next else Formula.false_);
            vec.(p.fsat.(j)) <- exists_child p.fstep.(j)
        | FDos ->
            let d =
              if j + 1 = k then Formula.true_
              else begin
                let e = p.fdesc.(j + 1) in
                vec.(e) <- Formula.disj a_next (exists_child e);
                vec.(e)
              end
            in
            vec.(p.fsat.(j)) <- d
        | FFilter q ->
            vec.(p.fsat.(j)) <-
              (if a_next = Formula.false_ then Formula.false_
               else Formula.conj (fsat_view flat vec i q) a_next)
      done)
    plan.fpaths;
  vec

(* The pointer qualifier pass's step on one element slot, given its
   children's vectors, charged [n_qual * (1 + children)]. *)
let element_vec plan flat ~ops i child_vecs =
  ops := !ops + (plan.compiled.Compile.n_qual * (1 + List.length child_vecs));
  let exists_child e =
    List.fold_left
      (fun acc cv -> Formula.disj acc cv.(e))
      Formula.false_ child_vecs
  in
  feval_entries plan flat i ~exists_child

(* ------------------------------------------------------------------ *)
(* qualifier pass (PaX3 stage 1, ParBoX)                              *)
(* ------------------------------------------------------------------ *)

type qual = {
  q_flat : Flat.t;
  q_vecs : Formula.t array array;  (* slot -> qualifier vector *)
  q_wrap : Formula.t array option;  (* the wrapper's vector, if it ran *)
  q_root_vec : Formula.t array;  (* eval root's vector (wrapper if any) *)
  q_ops : int;
}

let qual_vec_at q i =
  if i >= 0 then q.q_vecs.(i) else Option.value q.q_wrap ~default:[||]

(* Mirror of {!Qual_pass.run} on [eval_root fid]. *)
let qual_run plan flat ~is_root : qual =
  let n_qual = plan.compiled.Compile.n_qual in
  let vecs = Array.make (Flat.length flat) [||] in
  let wrap = ref None in
  let ops = ref 0 in
  let rec go i =
    let rec kids c acc =
      if c < 0 then List.rev acc
      else kids (Flat.next_sibling flat c) (go c :: acc)
    in
    let child_vecs = kids (first_child flat i) [] in
    let vfid = virtual_fid flat i in
    let vec =
      if vfid >= 0 then begin
        ops := !ops + n_qual;
        Qual_pass.virtual_vec plan.compiled vfid
      end
      else element_vec plan flat ~ops i child_vecs
    in
    if i >= 0 then vecs.(i) <- vec else wrap := Some vec;
    vec
  in
  let root_vec = go (start plan ~is_root) in
  {
    q_flat = flat;
    q_vecs = vecs;
    q_wrap = !wrap;
    q_root_vec = root_vec;
    q_ops = !ops;
  }

(* Mirror of {!Qual_pass.resolve}: substitute in place, counting every
   entry of every stored vector (virtual slots and wrapper included). *)
let qual_resolve q lookup =
  let n = ref 0 in
  let resolve vec =
    n := !n + Array.length vec;
    Array.iteri (fun e f -> vec.(e) <- Formula.subst lookup f) vec
  in
  Array.iter resolve q.q_vecs;
  Option.iter resolve q.q_wrap;
  !n

(* ------------------------------------------------------------------ *)
(* selection pass (PaX3 stage 2)                                      *)
(* ------------------------------------------------------------------ *)

type sel_outcome = {
  answers : int list;
  candidates : (int * Formula.t) list;
  contexts : (int * Formula.t array) list;
  ops : int;
}

(* Mirror of {!Sel_pass.run} on [eval_root fid], with qualifier
   satisfaction read from a resolved flat qualifier pass ([qual]), or
   trivially (empty vectors) when the query has no qualifier entries. *)
let sel_run plan flat ~init ~is_root ~(qual : qual option) : sel_outcome =
  let n = plan.compiled.Compile.n_sel in
  let last = n - 1 in
  let ops = ref 0 in
  let answers = ref [] in
  let candidates = ref [] in
  let contexts = ref [] in
  let sat_slot i q =
    let vec = match qual with Some qp -> qual_vec_at qp i | None -> [||] in
    fsat_view flat vec i q
  in
  let rec go i ~is_context (sv_p : Formula.t array) =
    let vfid = virtual_fid flat i in
    if vfid >= 0 then contexts := (vfid, Array.copy sv_p) :: !contexts
    else begin
      ops := !ops + n;
      let sv = Array.make n Formula.false_ in
      sv.(0) <- Formula.bool is_context;
      let tagc = tag_code flat i in
      for ix = 1 to Array.length plan.fsel do
        match plan.fsel.(ix - 1) with
        | FMove code ->
            sv.(ix) <-
              (if code = -2 || code = tagc then sv_p.(ix - 1)
               else Formula.false_)
        | FDos -> sv.(ix) <- Formula.disj sv_p.(ix) sv.(ix - 1)
        | FFilter q ->
            sv.(ix) <-
              (if sv.(ix - 1) = Formula.false_ then Formula.false_
               else Formula.conj sv.(ix - 1) (sat_slot i q))
      done;
      (match Formula.to_bool sv.(last) with
      | Some true -> answers := i :: !answers
      | Some false -> ()
      | None -> candidates := (i, sv.(last)) :: !candidates);
      let rec each c =
        if c >= 0 then begin
          go c ~is_context:false sv;
          each (Flat.next_sibling flat c)
        end
      in
      each (first_child flat i)
    end
  in
  (* The wrapper, when there is one, is the context node itself. *)
  go (start plan ~is_root) ~is_context:is_root init;
  {
    answers = List.rev !answers;
    candidates = List.rev !candidates;
    contexts = List.rev !contexts;
    ops = !ops;
  }

(* ------------------------------------------------------------------ *)
(* combined pass (PaX2 stage 1)                                       *)
(* ------------------------------------------------------------------ *)

type combined_outcome = {
  root_qvec : Formula.t array;
  answers : int list;
  candidates : (int * Formula.t) list;
  contexts : (int * Formula.t array) list;
  ops : int;
}

(* Qualifier entries that selection filters consult (one sorted list
   per query): for these the pre-order half issues [Qual_at]
   placeholders. *)
let placeholder_entries (compiled : Compile.t) =
  let rec refs acc = function
    | Compile.Sat pi ->
        let p = compiled.Compile.paths.(pi) in
        if Array.length p.Compile.items = 0 then acc
        else p.Compile.sat.(0) :: acc
    | Compile.Text_eq _ | Compile.Val_cmp _ | Compile.Attr_test _ -> acc
    | Compile.Qnot q -> refs acc q
    | Compile.Qand (a, b) | Compile.Qor (a, b) -> refs (refs acc a) b
  in
  Array.fold_left
    (fun acc item ->
      match item with
      | Compile.Filter q -> refs acc q
      | Compile.Move _ | Compile.Dos_item -> acc)
    [] compiled.Compile.sel
  |> List.sort_uniq compare

(* PaX2's single traversal: pre-order selection entries with
   placeholder variables for qualifier values not yet computed,
   post-order qualifier vectors, and the placeholders each node issued
   resolved locally once its subtree is done (the paper's [qz]
   unification).  Only nodes that issued a placeholder get a sigma
   entry. *)
let combined_run plan flat ~init ~is_root : combined_outcome =
  let compiled = plan.compiled in
  let n_sel = compiled.Compile.n_sel in
  let last = n_sel - 1 in
  let placeholders = placeholder_entries compiled in
  let sigma : (int * int, Formula.t) Hashtbl.t = Hashtbl.create 64 in
  let issued : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let pending = ref [] in
  let contexts = ref [] in
  let ops = ref 0 in
  (* Pre-order filter satisfaction: data-local tests evaluate now, path
     satisfactions become placeholders. *)
  let sat_pre_slot i q =
    let nid = node_id flat i in
    let rec go = function
      | FSat_empty -> Formula.true_
      | FSat e ->
          Hashtbl.replace issued nid ();
          Formula.var (Var.Qual_at (nid, e))
      | FText_eq s -> Formula.bool (text_equals flat i s)
      | FVal_cmp (op, n) ->
          Formula.bool
            (match num flat i with
            | Some f -> Ast.compare_num op f n
            | None -> false)
      | FAttr_test (key, expected) ->
          Formula.bool (attr_test flat i ~key ~expected)
      | FNot q -> Formula.not_ (go q)
      | FAnd (a, b) -> Formula.conj (go a) (go b)
      | FOr (a, b) -> Formula.disj (go a) (go b)
    in
    go q
  in
  let rec go i ~is_context (sv_p : Formula.t array) : Formula.t array =
    let vfid = virtual_fid flat i in
    if vfid >= 0 then begin
      contexts := (vfid, Array.copy sv_p) :: !contexts;
      Qual_pass.virtual_vec compiled vfid
    end
    else begin
      ops := !ops + n_sel;
      let sv = Array.make n_sel Formula.false_ in
      sv.(0) <- Formula.bool is_context;
      let tagc = tag_code flat i in
      Array.iteri
        (fun j item ->
          let ix = j + 1 in
          match item with
          | FMove code ->
              sv.(ix) <-
                (if code = -2 || code = tagc then sv_p.(j) else Formula.false_)
          | FDos -> sv.(ix) <- Formula.disj sv_p.(ix) sv.(ix - 1)
          | FFilter q ->
              sv.(ix) <-
                (if sv.(ix - 1) = Formula.false_ then Formula.false_
                 else Formula.conj sv.(ix - 1) (sat_pre_slot i q)))
        plan.fsel;
      if sv.(last) <> Formula.false_ then pending := (i, sv.(last)) :: !pending;
      let rec kids c acc =
        if c < 0 then List.rev acc
        else kids (Flat.next_sibling flat c) (go c ~is_context:false sv :: acc)
      in
      let qvec = element_vec plan flat ~ops i (kids (first_child flat i) []) in
      let nid = node_id flat i in
      if Hashtbl.mem issued nid then
        List.iter
          (fun e -> Hashtbl.replace sigma (nid, e) qvec.(e))
          placeholders;
      qvec
    end
  in
  let root_qvec = go (start plan ~is_root) ~is_context:is_root init in
  let sigma_lookup = function
    | Var.Qual_at (nid, e) -> Hashtbl.find_opt sigma (nid, e)
    | Var.Qual _ | Var.Sel_ctx _ -> None
  in
  let answers = ref [] in
  let candidates = ref [] in
  List.iter
    (fun (i, f) ->
      ops := !ops + 1;
      let g = Formula.subst sigma_lookup f in
      match Formula.to_bool g with
      | Some true -> if i >= 0 then answers := i :: !answers
      | Some false -> ()
      | None -> candidates := (i, g) :: !candidates)
    (List.rev !pending);
  let contexts =
    List.rev_map
      (fun (fid, vec) -> (fid, Array.map (Formula.subst sigma_lookup) vec))
      !contexts
  in
  {
    root_qvec;
    answers = List.rev !answers;
    candidates = List.rev !candidates;
    contexts;
    ops = !ops;
  }

(* ------------------------------------------------------------------ *)
(* candidate resolution (the last stage of every engine)              *)
(* ------------------------------------------------------------------ *)

(* One op per candidate; the wrapper is resolved like any candidate and
   then dropped — it is never an answer. *)
let resolve_candidates cands lookup =
  let answers =
    List.filter_map
      (fun (i, f) ->
        match Formula.to_bool (Formula.subst lookup f) with
        | Some true when i >= 0 -> Some i
        | Some _ -> None
        | None -> invalid_arg "Flat_pass: candidate failed to resolve")
      cands
  in
  (answers, List.length cands)
