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

   The one node that has no slot is the [#document] context wrapper an
   absolute query puts above the root fragment; it is evaluated here
   on a materialized wrapper node ({!Sel_pass.context_root}) with the
   pointer node helpers. *)

module Tree = Pax_xml.Tree
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
(* qualifier satisfaction over a slot                                 *)
(* ------------------------------------------------------------------ *)

(* Mirror of {!Qual_pass.sat_view} with the lowered tests. *)
let rec fsat_view flat vec i = function
  | FSat_empty -> Formula.true_
  | FSat e -> vec.(e)
  | FText_eq s -> Formula.bool (Flat.text_equals flat i s)
  | FVal_cmp (op, num) ->
      Formula.bool
        (match Flat.num flat i with
        | Some f -> Ast.compare_num op f num
        | None -> false)
  | FAttr_test (key, expected) ->
      Formula.bool (Flat.attr_test flat i ~key ~expected)
  | FNot q -> Formula.not_ (fsat_view flat vec i q)
  | FAnd (a, b) ->
      Formula.conj (fsat_view flat vec i a) (fsat_view flat vec i b)
  | FOr (a, b) -> Formula.disj (fsat_view flat vec i a) (fsat_view flat vec i b)

(* Mirror of {!Qual_pass.eval_entries}: one element slot's qualifier
   vector, path by path, suffix-position descending. *)
let feval_entries plan flat i ~exists_child : Formula.t array =
  let vec = Array.make plan.compiled.Compile.n_qual Formula.false_ in
  let tagc = Flat.tag_code flat i in
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

(* ------------------------------------------------------------------ *)
(* qualifier pass (PaX3 stage 1, ParBoX)                              *)
(* ------------------------------------------------------------------ *)

type qual = {
  q_flat : Flat.t;
  q_vecs : Formula.t array array;  (* slot -> qualifier vector *)
  q_wrap : (Tree.node * Formula.t array) option;
      (* the #document wrapper and its vector, when the eval root was
         wrapped (root fragment of an absolute query) *)
  q_root_vec : Formula.t array;  (* eval root's vector (wrapper if any) *)
  q_ops : int;
}

(* Mirror of {!Qual_pass.run} on [eval_root fid]: [is_root] says this
   is fragment 0, whose root an absolute query wraps in a materialized
   [#document] node (its vector from {!Qual_pass.eval_node}). *)
let qual_run plan flat ~is_root : qual =
  let compiled = plan.compiled in
  let n_qual = compiled.Compile.n_qual in
  let vecs = Array.make (Flat.length flat) [||] in
  let ops = ref 0 in
  let rec go i =
    let rec kids c acc =
      if c < 0 then List.rev acc
      else kids (Flat.next_sibling flat c) (go c :: acc)
    in
    let child_vecs = kids (Flat.first_child flat i) [] in
    let vec =
      let vfid = Flat.virtual_fid flat i in
      if vfid >= 0 then begin
        ops := !ops + n_qual;
        Qual_pass.virtual_vec compiled vfid
      end
      else begin
        ops := !ops + (n_qual * (1 + List.length child_vecs));
        let exists_child e =
          List.fold_left
            (fun acc cv -> Formula.disj acc cv.(e))
            Formula.false_ child_vecs
        in
        feval_entries plan flat i ~exists_child
      end
    in
    vecs.(i) <- vec;
    vec
  in
  let root_vec = go 0 in
  let wrap =
    if is_root && compiled.Compile.absolute then begin
      let wrapper = fst (Sel_pass.context_root compiled (Flat.root flat)) in
      let wvec = Qual_pass.eval_node compiled ~ops wrapper [ root_vec ] in
      Some (wrapper, wvec)
    end
    else None
  in
  {
    q_flat = flat;
    q_vecs = vecs;
    q_wrap = wrap;
    q_root_vec = (match wrap with Some (_, wv) -> wv | None -> root_vec);
    q_ops = !ops;
  }

(* Mirror of {!Qual_pass.resolve}: substitute in place, counting every
   entry of every stored vector (virtual slots and wrapper included). *)
let qual_resolve q lookup =
  let n = ref 0 in
  Array.iter
    (fun vec ->
      n := !n + Array.length vec;
      Array.iteri (fun e f -> vec.(e) <- Formula.subst lookup f) vec)
    q.q_vecs;
  (match q.q_wrap with
  | Some (_, wvec) ->
      n := !n + Array.length wvec;
      Array.iteri (fun e f -> wvec.(e) <- Formula.subst lookup f) wvec
  | None -> ());
  !n

(* ------------------------------------------------------------------ *)
(* selection pass (PaX3 stage 2)                                      *)
(* ------------------------------------------------------------------ *)

(* Mirror of {!Sel_pass.run} on [eval_root fid], with qualifier
   satisfaction read from a resolved flat qualifier pass ([qual]), or
   trivially (empty vectors) when the query has no qualifier entries. *)
let sel_run plan flat ~init ~is_root ~(qual : qual option) : Sel_pass.outcome =
  let compiled = plan.compiled in
  let n = compiled.Compile.n_sel in
  let last = n - 1 in
  let ops = ref 0 in
  let answers = ref [] in
  let candidates = ref [] in
  let contexts = ref [] in
  let sat_slot i q =
    let vec = match qual with Some qp -> qp.q_vecs.(i) | None -> [||] in
    fsat_view flat vec i q
  in
  let rec go i ~is_context (sv_p : Formula.t array) =
    let vfid = Flat.virtual_fid flat i in
    if vfid >= 0 then contexts := (vfid, Array.copy sv_p) :: !contexts
    else begin
      ops := !ops + n;
      let sv = Array.make n Formula.false_ in
      sv.(0) <- Formula.bool is_context;
      let tagc = Flat.tag_code flat i in
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
      | Some true -> answers := Flat.orig flat i :: !answers
      | Some false -> ()
      | None -> candidates := (Flat.orig flat i, sv.(last)) :: !candidates);
      let rec each c =
        if c >= 0 then begin
          go c ~is_context:false sv;
          each (Flat.next_sibling flat c)
        end
      in
      each (Flat.first_child flat i)
    end
  in
  if is_root && compiled.Compile.absolute then begin
    (* The wrapper as a materialized node, its vector from the
       qualifier pass (stored under the wrapper when it ran wrapped). *)
    let wrapper, wvec =
      match qual with
      | Some { q_wrap = Some (w, wv); _ } -> (w, wv)
      | _ -> (fst (Sel_pass.context_root compiled (Flat.root flat)), [||])
    in
    ops := !ops + n;
    let sv = Array.make n Formula.false_ in
    sv.(0) <- Formula.bool true;
    let items = compiled.Compile.sel in
    for ix = 1 to Array.length items do
      match items.(ix - 1) with
      | Compile.Move test ->
          sv.(ix) <-
            (if Compile.matches test wrapper.Tree.tag then init.(ix - 1)
             else Formula.false_)
      | Compile.Dos_item -> sv.(ix) <- Formula.disj init.(ix) sv.(ix - 1)
      | Compile.Filter q ->
          sv.(ix) <-
            (if sv.(ix - 1) = Formula.false_ then Formula.false_
             else
               Formula.conj sv.(ix - 1)
                 (Qual_pass.sat compiled wvec wrapper q))
    done;
    (match Formula.to_bool sv.(last) with
    | Some true -> answers := wrapper :: !answers
    | Some false -> ()
    | None -> candidates := (wrapper, sv.(last)) :: !candidates);
    go 0 ~is_context:false sv
  end
  else go 0 ~is_context:is_root init;
  {
    Sel_pass.answers = List.rev !answers;
    candidates = List.rev !candidates;
    contexts = List.rev !contexts;
    ops = !ops;
  }

(* ------------------------------------------------------------------ *)
(* combined pass (PaX2 stage 1)                                       *)
(* ------------------------------------------------------------------ *)

type combined_outcome = {
  root_qvec : Formula.t array;
  answers : Tree.node list;
  candidates : (Tree.node * Formula.t) list;
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
  let n_qual = compiled.Compile.n_qual in
  let last = n_sel - 1 in
  let placeholders = placeholder_entries compiled in
  let sigma : (int * int, Formula.t) Hashtbl.t = Hashtbl.create 64 in
  let issued : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let pending = ref [] in
  let contexts = ref [] in
  let ops = ref 0 in
  let sat_pre_slot i q =
    let nid = Flat.node_id flat i in
    let rec go = function
      | FSat_empty -> Formula.true_
      | FSat e ->
          Hashtbl.replace issued nid ();
          Formula.var (Var.Qual_at (nid, e))
      | FText_eq s -> Formula.bool (Flat.text_equals flat i s)
      | FVal_cmp (op, num) ->
          Formula.bool
            (match Flat.num flat i with
            | Some f -> Ast.compare_num op f num
            | None -> false)
      | FAttr_test (key, expected) ->
          Formula.bool (Flat.attr_test flat i ~key ~expected)
      | FNot q -> Formula.not_ (go q)
      | FAnd (a, b) -> Formula.conj (go a) (go b)
      | FOr (a, b) -> Formula.disj (go a) (go b)
    in
    go q
  in
  (* Pre-order filter satisfaction for the wrapper node only: data-local
     tests evaluate now, path satisfactions become placeholders. *)
  let sat_pre_node (v : Tree.node) q =
    let rec go = function
      | Compile.Sat pi ->
          let p = compiled.Compile.paths.(pi) in
          if Array.length p.Compile.items = 0 then Formula.true_
          else begin
            Hashtbl.replace issued v.Tree.id ();
            Formula.var (Var.Qual_at (v.Tree.id, p.Compile.sat.(0)))
          end
      | Compile.Text_eq s -> Formula.bool (Tree.text_of v = s)
      | Compile.Val_cmp (op, num) ->
          Formula.bool
            (match Tree.float_of v with
            | Some f -> Ast.compare_num op f num
            | None -> false)
      | Compile.Attr_test (name, value) ->
          Formula.bool
            (match (Tree.attr v name, value) with
            | Some _, None -> true
            | Some actual, Some expected -> actual = expected
            | None, _ -> false)
      | Compile.Qnot q -> Formula.not_ (go q)
      | Compile.Qand (a, b) -> Formula.conj (go a) (go b)
      | Compile.Qor (a, b) -> Formula.disj (go a) (go b)
    in
    go q
  in
  let rec go_slot i ~is_context (sv_p : Formula.t array) : Formula.t array =
    let vfid = Flat.virtual_fid flat i in
    if vfid >= 0 then begin
      contexts := (vfid, Array.copy sv_p) :: !contexts;
      Array.init n_qual (fun e -> Formula.var (Var.Qual (vfid, e)))
    end
    else begin
      ops := !ops + n_sel;
      let sv = Array.make n_sel Formula.false_ in
      sv.(0) <- Formula.bool is_context;
      let tagc = Flat.tag_code flat i in
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
      if sv.(last) <> Formula.false_ then
        pending := (Flat.orig flat i, sv.(last)) :: !pending;
      let rec kids c acc =
        if c < 0 then List.rev acc
        else
          kids (Flat.next_sibling flat c) (go_slot c ~is_context:false sv :: acc)
      in
      let child_vecs = kids (Flat.first_child flat i) [] in
      ops := !ops + (n_qual * (1 + List.length child_vecs));
      let exists_child e =
        List.fold_left
          (fun acc cv -> Formula.disj acc cv.(e))
          Formula.false_ child_vecs
      in
      let qvec = feval_entries plan flat i ~exists_child in
      let nid = Flat.node_id flat i in
      if Hashtbl.mem issued nid then
        List.iter (fun e -> Hashtbl.replace sigma (nid, e) qvec.(e)) placeholders;
      qvec
    end
  in
  let root_qvec =
    if is_root && compiled.Compile.absolute then begin
      let wrapper = fst (Sel_pass.context_root compiled (Flat.root flat)) in
      ops := !ops + n_sel;
      let sv = Array.make n_sel Formula.false_ in
      sv.(0) <- Formula.bool true;
      Array.iteri
        (fun j item ->
          let ix = j + 1 in
          match item with
          | Compile.Move test ->
              sv.(ix) <-
                (if Compile.matches test wrapper.Tree.tag then init.(j)
                 else Formula.false_)
          | Compile.Dos_item -> sv.(ix) <- Formula.disj init.(ix) sv.(ix - 1)
          | Compile.Filter q ->
              sv.(ix) <-
                (if sv.(ix - 1) = Formula.false_ then Formula.false_
                 else Formula.conj sv.(ix - 1) (sat_pre_node wrapper q)))
        compiled.Compile.sel;
      if sv.(last) <> Formula.false_ then
        pending := (wrapper, sv.(last)) :: !pending;
      let child_vecs = [ go_slot 0 ~is_context:false sv ] in
      let qvec = Qual_pass.eval_node compiled ~ops wrapper child_vecs in
      if Hashtbl.mem issued wrapper.Tree.id then
        List.iter
          (fun e -> Hashtbl.replace sigma (wrapper.Tree.id, e) qvec.(e))
          placeholders;
      qvec
    end
    else go_slot 0 ~is_context:is_root init
  in
  let sigma_lookup = function
    | Var.Qual_at (nid, e) -> Hashtbl.find_opt sigma (nid, e)
    | Var.Qual _ | Var.Sel_ctx _ -> None
  in
  let answers = ref [] in
  let candidates = ref [] in
  List.iter
    (fun ((v : Tree.node), f) ->
      ops := !ops + 1;
      let g = Formula.subst sigma_lookup f in
      match Formula.to_bool g with
      | Some true -> if v.Tree.id >= 0 then answers := v :: !answers
      | Some false -> ()
      | None -> candidates := (v, g) :: !candidates)
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
