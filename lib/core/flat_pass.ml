(* The engines' stage kernels over flat fragment images
   (docs/FLATTREE.md): every engine and site server evaluates a
   fragment through these three passes.

   The qualifier and selection passes are {!Qual_pass} and {!Sel_pass}
   — same recurrences, same evaluation order, same operation counting —
   re-expressed over {!Pax_xml.Flat} slots: tag tests compare interned
   int codes, text and attribute tests compare against the shared byte
   buffer in place, and traversal follows the
   [first_child]/[next_sibling] int vectors instead of chasing node
   pointers.  Off the spine a slot's qualifier vector is ground, so the
   kernels step it as a bitset and build no formula there; every
   formula they do build (spine slots, selection vectors, results) is
   built in the pointer passes' construction order.  Scratch is
   indexed by depth and allocated once per call, so a slot off the
   spine allocates nothing.  test/test_passes.ml holds each kernel to
   its pointer reference on random fragmentations.

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

(* Mirror of the pointer pass's [sat_view] with the lowered tests:
   [entry i e] reads qualifier entry [e] of slot [i] — the slot's own
   vector in the qualifier step, the resolved vector in [sel_run], a
   placeholder in [combined_run]. *)
let rec fsat flat i entry = function
  | FSat_empty -> Formula.true_
  | FSat e -> entry i e
  | FText_eq s -> Formula.bool (text_equals flat i s)
  | FVal_cmp (op, n) ->
      Formula.bool
        (match num flat i with
        | Some f -> Ast.compare_num op f n
        | None -> false)
  | FAttr_test (key, expected) -> Formula.bool (attr_test flat i ~key ~expected)
  | FNot q -> Formula.not_ (fsat flat i entry q)
  | FAnd (a, b) -> Formula.conj (fsat flat i entry a) (fsat flat i entry b)
  | FOr (a, b) -> Formula.disj (fsat flat i entry a) (fsat flat i entry b)

(* Mirror of the pointer pass's [eval_entries]: one element slot's qualifier
   vector, path by path, suffix-position descending.  [kids.(e)] is the
   disjunction of entry [e] over the slot's children, folded left in
   child order as the pointer pass folds it. *)
let feval_entries plan flat i ~tagc (kids : Formula.t array) : Formula.t array =
  let vec = Array.make plan.compiled.Compile.n_qual Formula.false_ in
  let own _ e = vec.(e) in
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
            vec.(p.fsat.(j)) <- kids.(p.fstep.(j))
        | FDos ->
            let d =
              if j + 1 = k then Formula.true_
              else begin
                let e = p.fdesc.(j + 1) in
                vec.(e) <- Formula.disj a_next kids.(e);
                vec.(e)
              end
            in
            vec.(p.fsat.(j)) <- d
        | FFilter q ->
            vec.(p.fsat.(j)) <-
              (if a_next == Formula.false_ then Formula.false_
               else Formula.conj (fsat flat i own q) a_next)
      done)
    plan.fpaths;
  vec

(* ------------------------------------------------------------------ *)
(* ground qualifier vectors: bitsets off the spine                    *)
(* ------------------------------------------------------------------ *)

(* Off the spine ({!Flat.on_spine}) a slot's subtree holds no virtual
   slot, so every entry of its qualifier vector is [True] or [False]:
   the kernels hold it as a bitset of 63-bit words and step it with
   word operations.  [ground_entries] is [feval_entries] with bits for
   formulas — [conj]/[disj] of constants are [&&]/[||] — and
   [ground_sat] is [fsat] on the slot's own bits. *)

let words n_qual = (n_qual + 62) / 63
let bit (a : int array) e = (a.(e / 63) lsr (e mod 63)) land 1 = 1

let put (a : int array) e b =
  let j = e / 63 and m = 1 lsl (e mod 63) in
  a.(j) <- (if b then a.(j) lor m else a.(j) land lnot m)

let rec ground_sat flat own i = function
  | FSat_empty -> true
  | FSat e -> bit own e
  | FText_eq s -> text_equals flat i s
  | FVal_cmp (op, n) -> (
      match num flat i with Some f -> Ast.compare_num op f n | None -> false)
  | FAttr_test (key, expected) -> attr_test flat i ~key ~expected
  | FNot q -> not (ground_sat flat own i q)
  | FAnd (a, b) -> ground_sat flat own i a && ground_sat flat own i b
  | FOr (a, b) -> ground_sat flat own i a || ground_sat flat own i b

(* Slot [i]'s ground vector into [own], from its children's OR [kids]. *)
let ground_entries plan flat i ~tagc ~(kids : int array) ~(own : int array) =
  for j = 0 to Array.length own - 1 do
    own.(j) <- 0
  done;
  let paths = plan.fpaths in
  for pi = 0 to Array.length paths - 1 do
    let p = paths.(pi) in
    let k = Array.length p.fitems in
    for j = k - 1 downto 0 do
      let a_next = j + 1 = k || bit own p.fsat.(j + 1) in
      match p.fitems.(j) with
      | FMove code ->
          put own p.fstep.(j) ((code = -2 || code = tagc) && a_next);
          put own p.fsat.(j) (bit kids p.fstep.(j))
      | FDos ->
          let d =
            j + 1 = k
            ||
            let e = p.fdesc.(j + 1) in
            let b = a_next || bit kids e in
            put own e b;
            b
          in
          put own p.fsat.(j) d
      | FFilter q -> put own p.fsat.(j) (a_next && ground_sat flat own i q)
    done
  done

(* A ground vector as the formulas it stands for, at a kernel's edge.
   A qualifier-free query's vectors are all [[||]], which needs no
   [Array.make] (a C call) per slot. *)
let formulas_of_bits n_qual bits =
  if n_qual = 0 then [||]
  else begin
    let vec = Array.make n_qual Formula.false_ in
    for e = 0 to n_qual - 1 do
      if bit bits e then vec.(e) <- Formula.true_
    done;
    vec
  end

(* The wrapper's subtree is the whole fragment. *)
let on_spine flat i = Flat.on_spine flat (max i 0)

(* Depth-indexed scratch rows: the row for depth [d] is allocated on
   first use and reused by every slot at that depth for the rest of one
   kernel call.  Each call owns its rows, so pooled domains share
   nothing. *)
type 'a rows = { mutable rows : 'a array array; width : int; fill : 'a }

let rows width fill = { rows = [||]; width; fill }

let grow r d =
  if d >= Array.length r.rows then begin
    let b = Array.make (max 16 (2 * (d + 1))) [||] in
    Array.blit r.rows 0 b 0 (Array.length r.rows);
    r.rows <- b
  end;
  let a = Array.make r.width r.fill in
  r.rows.(d) <- a;
  a

let row r d =
  if d < Array.length r.rows && Array.length r.rows.(d) = r.width then
    r.rows.(d)
  else grow r d

(* One post-order qualifier walk, shared by [qual_run] and
   [combined_run].  [pre i d vfid tagc] runs on slot [i] at depth [d]
   before its children — [vfid] is its virtual fragment id ([-1] for an
   element), [tagc] an element's tag code — and answers whether [post]
   wants the slot's vector. *)
type walk = {
  w_plan : plan;
  w_flat : Flat.t;
  ops : int ref;
  virtual_ops : int;  (* charged per virtual slot *)
  own : int rows;  (* depth d: ground vector of the slot last done there *)
  kids : int rows;  (* depth d: OR of the open slot's children, ground *)
  fkids : Formula.t rows;  (* the same OR, under a spine slot *)
  pre : int -> int -> int -> int -> bool;
  post : int -> Formula.t array -> unit;
}

let walk plan flat ~virtual_ops ~pre ~post =
  let n_qual = plan.compiled.Compile.n_qual in
  {
    w_plan = plan;
    w_flat = flat;
    ops = ref 0;
    virtual_ops;
    own = rows (words n_qual) 0;
    kids = rows (words n_qual) 0;
    fkids = rows n_qual Formula.false_;
    pre;
    post;
  }

(* Slot [i]'s qualifier vector, charged as the pointer passes charge
   it: [virtual_ops] per virtual slot, [n_qual * (1 + children)] per
   element.  Off the spine it is left in [own] at depth [d] and [[||]]
   is returned; on the spine it is returned as formulas, from the
   {!feval_entries} step, with each off-spine child entering as
   [Formula.bool] of its bits. *)
let rec qwalk w i d =
  let flat = w.w_flat in
  let n_qual = w.w_plan.compiled.Compile.n_qual in
  if not (on_spine flat i) then begin
    let tagc = tag_code flat i in
    let want = w.pre i d (-1) tagc in
    let kids = row w.kids d and bits = row w.own (d + 1) in
    for j = 0 to Array.length kids - 1 do
      kids.(j) <- 0
    done;
    let c = ref (first_child flat i) and n_kids = ref 0 in
    while !c >= 0 do
      ignore (qwalk w !c (d + 1) : Formula.t array);
      for j = 0 to Array.length kids - 1 do
        kids.(j) <- kids.(j) lor bits.(j)
      done;
      incr n_kids;
      c := Flat.next_sibling flat !c
    done;
    w.ops := !(w.ops) + (n_qual * (1 + !n_kids));
    let own = row w.own d in
    ground_entries w.w_plan flat i ~tagc ~kids ~own;
    if want then w.post i (formulas_of_bits n_qual own);
    [||]
  end
  else
    let vfid = virtual_fid flat i in
    if vfid >= 0 then begin
      let want = w.pre i d vfid (-1) in
      w.ops := !(w.ops) + w.virtual_ops;
      let vec = Qual_pass.virtual_vec w.w_plan.compiled vfid in
      if want then w.post i vec;
      vec
    end
    else begin
      let tagc = tag_code flat i in
      let want = w.pre i d (-1) tagc in
      let acc = row w.fkids d in
      for e = 0 to n_qual - 1 do
        acc.(e) <- Formula.false_
      done;
      let c = ref (first_child flat i) and n_kids = ref 0 in
      while !c >= 0 do
        let cv = qwalk w !c (d + 1) in
        if Flat.on_spine flat !c then
          for e = 0 to n_qual - 1 do
            acc.(e) <- Formula.disj acc.(e) cv.(e)
          done
        else begin
          let bits = row w.own (d + 1) in
          for e = 0 to n_qual - 1 do
            acc.(e) <- Formula.disj acc.(e) (Formula.bool (bit bits e))
          done
        end;
        incr n_kids;
        c := Flat.next_sibling flat !c
      done;
      w.ops := !(w.ops) + (n_qual * (1 + !n_kids));
      let vec = feval_entries w.w_plan flat i ~tagc acc in
      if want then w.post i vec;
      vec
    end

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

(* Mirror of {!Qual_pass.run} on [eval_root fid].  Every slot's vector
   is materialized as formulas at the edge: PaX3 stage 2 resolves them
   in place ([qual_resolve]) and reads them per slot ([sel_run]). *)
let qual_run plan flat ~is_root : qual =
  let vecs = Array.make (Flat.length flat) [||] in
  let wrap = ref None in
  let post i vec = if i >= 0 then vecs.(i) <- vec else wrap := Some vec in
  let w =
    walk plan flat ~virtual_ops:plan.compiled.Compile.n_qual
      ~pre:(fun _ _ _ _ -> true) ~post
  in
  let s = start plan ~is_root in
  ignore (qwalk w s 0 : Formula.t array);
  {
    q_flat = flat;
    q_vecs = vecs;
    q_wrap = !wrap;
    q_root_vec = (if s >= 0 then vecs.(s) else Option.get !wrap);
    q_ops = !(w.ops);
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

(* A buffer entry is rewritten only when it changes: most entries stay
   [False] from one slot to the next, and skipping the store skips the
   write barrier. *)
let set (a : Formula.t array) i v = if a.(i) != v then a.(i) <- v

(* The pre-order selection step of {!Sel_pass} on element slot [i]:
   writes its vector into [sv] from its parent's [sv_p], charged
   [n_sel] by the caller.  Filters read qualifier entries through
   [entry] ({!fsat}). *)
let sel_step plan flat entry i ~tagc ~is_context (sv_p : Formula.t array)
    (sv : Formula.t array) =
  set sv 0 (if is_context then Formula.true_ else Formula.false_);
  let fsel = plan.fsel in
  for ix = 1 to Array.length fsel do
    set sv ix
      (match fsel.(ix - 1) with
      | FMove code ->
          if code = -2 || code = tagc then sv_p.(ix - 1) else Formula.false_
      | FDos -> Formula.disj sv_p.(ix) sv.(ix - 1)
      | FFilter q ->
          let prev = sv.(ix - 1) in
          if prev == Formula.false_ then Formula.false_
          else Formula.conj prev (fsat flat i entry q))
  done

(* Mirror of {!Sel_pass.run} on [eval_root fid], with qualifier
   satisfaction read from a resolved flat qualifier pass ([qual]), or
   trivially (empty vectors) when the query has no qualifier entries.
   A slot's selection vector lives in the row of its depth, which its
   children read as their parent's. *)
let sel_run plan flat ~init ~is_root ~(qual : qual option) : sel_outcome =
  let n = plan.compiled.Compile.n_sel in
  let last = n - 1 in
  let sel = rows n Formula.false_ in
  let ops = ref 0 in
  let answers = ref [] in
  let candidates = ref [] in
  let contexts = ref [] in
  let entry i e =
    match qual with
    | Some qp -> (qual_vec_at qp i).(e)
    | None -> invalid_arg "Flat_pass.sel_run: a filter read a qualifier entry"
  in
  let rec go i d =
    let sv_p = if d = 0 then init else row sel (d - 1) in
    let vfid = virtual_fid flat i in
    if vfid >= 0 then contexts := (vfid, Array.copy sv_p) :: !contexts
    else begin
      ops := !ops + n;
      let sv = row sel d in
      (* The wrapper, when there is one, is the context node itself. *)
      sel_step plan flat entry i ~tagc:(tag_code flat i)
        ~is_context:(d = 0 && is_root) sv_p sv;
      let f = sv.(last) in
      if f == Formula.true_ then answers := i :: !answers
      else if f != Formula.false_ then candidates := (i, f) :: !candidates;
      let c = ref (first_child flat i) in
      while !c >= 0 do
        go !c (d + 1);
        c := Flat.next_sibling flat !c
      done
    end
  in
  go (start plan ~is_root) 0;
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

(* PaX2's single traversal: pre-order selection entries with
   placeholder variables for qualifier values not yet computed,
   post-order qualifier vectors, and the placeholders each node issued
   resolved locally once its subtree is done (the paper's [qz]
   unification).  Only nodes that issued a placeholder get a sigma
   entry: their whole qualifier vector, keyed by node id. *)
let combined_run plan flat ~init ~is_root : combined_outcome =
  let compiled = plan.compiled in
  let n_sel = compiled.Compile.n_sel in
  let last = n_sel - 1 in
  let sel = rows n_sel Formula.false_ in
  let sigma : (int, Formula.t array) Hashtbl.t = Hashtbl.create 16 in
  let issued = ref false in
  let pending = ref [] in
  let contexts = ref [] in
  let sel_ops = ref 0 in
  (* Pre-order filter satisfaction: data-local tests evaluate now, path
     satisfactions become placeholders. *)
  let entry i e =
    issued := true;
    Formula.var (Var.Qual_at (node_id flat i, e))
  in
  let pre i d vfid tagc =
    let sv_p = if d = 0 then init else row sel (d - 1) in
    if vfid >= 0 then begin
      contexts := (vfid, Array.copy sv_p) :: !contexts;
      false
    end
    else begin
      sel_ops := !sel_ops + n_sel;
      let sv = row sel d in
      issued := false;
      sel_step plan flat entry i ~tagc ~is_context:(d = 0 && is_root) sv_p sv;
      let f = sv.(last) in
      if f != Formula.false_ then pending := (i, f) :: !pending;
      !issued
    end
  in
  let post i vec = Hashtbl.replace sigma (node_id flat i) vec in
  (* PaX2's pass charges nothing for a virtual slot's vector. *)
  let w = walk plan flat ~virtual_ops:0 ~pre ~post in
  let s = start plan ~is_root in
  let vec = qwalk w s 0 in
  let root_qvec =
    if on_spine flat s then vec
    else formulas_of_bits compiled.Compile.n_qual (row w.own 0)
  in
  let sigma_lookup = function
    | Var.Qual_at (nid, e) ->
        Option.map (fun vec -> vec.(e)) (Hashtbl.find_opt sigma nid)
    | Var.Qual _ | Var.Sel_ctx _ -> None
  in
  let ops = ref (!sel_ops + !(w.ops)) in
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
