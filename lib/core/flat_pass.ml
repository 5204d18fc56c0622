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
   its pointer reference on random fragmentations.  PaX2's combined
   pass alone skips, child by child, the off-spine subtrees whose
   entries nothing reads and where no selection state can reach an
   answer, and charges only the slots it walks.

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

(* Besides the lowered items, a plan holds what [combined_run] needs to
   skip a subtree (docs/FLATTREE.md, "Demand and the tag mask").
   Qualifier entries: [q_order] lists every entry before the entries of
   its own vector that it reads; [q_own.(e)] and [q_kids.(e)] are the
   entries of the slot's own vector and of its children's vectors that
   [e] reads; [q_test.(e)] is the tag test of a step entry ([-2] for
   every other entry: a step entry whose test fails reads nothing).
   Selection states: [s_watch] lists the states a child reads from its
   parent's vector, [s_need.(ix)] the tag bits of the label moves after
   state [ix]; a state behind a never-interned label is not watched. *)
type plan = {
  compiled : Compile.t;
  fsel : fitem array;
  fpaths : fpath array;
  q_order : int array;
  q_test : int array;
  q_own : int array array;
  q_kids : int array array;
  s_watch : int array;
  s_need : int array;
}

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
  let fsel = Array.map lower_item compiled.Compile.sel in
  let fpaths =
    Array.map
      (fun (p : Compile.cpath) ->
        {
          fitems = Array.map lower_item p.Compile.items;
          fsat = p.Compile.sat;
          fstep = p.Compile.step;
          fdesc = p.Compile.desc;
        })
      compiled.Compile.paths
  in
  let n_qual = compiled.Compile.n_qual in
  let order = ref [] and q_test = Array.make n_qual (-2) in
  let q_own = Array.make n_qual [||] and q_kids = Array.make n_qual [||] in
  let rec sat_entries acc = function
    | FSat e -> e :: acc
    | FSat_empty | FText_eq _ | FVal_cmp _ | FAttr_test _ -> acc
    | FNot q -> sat_entries acc q
    | FAnd (a, b) | FOr (a, b) -> sat_entries (sat_entries acc a) b
  in
  (* A path reads the paths nested in it, which have lower indices:
     walking the paths from the last, and each from its first item, puts
     every entry before the entries it reads. *)
  for pi = Array.length fpaths - 1 downto 0 do
    let p = fpaths.(pi) in
    let k = Array.length p.fitems in
    for j = 0 to k - 1 do
      (* [A(j+1)], read by this item's own entries *)
      let next = if j + 1 < k then [| p.fsat.(j + 1) |] else [||] in
      let e = p.fsat.(j) in
      order := e :: !order;
      match p.fitems.(j) with
      | FMove code ->
          let s = p.fstep.(j) in
          q_kids.(e) <- [| s |];
          order := s :: !order;
          q_test.(s) <- code;
          q_own.(s) <- next
      | FDos ->
          if j + 1 < k then begin
            let dd = p.fdesc.(j + 1) in
            q_own.(e) <- [| dd |];
            order := dd :: !order;
            q_own.(dd) <- next;
            q_kids.(dd) <- [| dd |]
          end
      | FFilter q ->
          q_own.(e) <- Array.append next (Array.of_list (sat_entries [] q))
    done
  done;
  let n_sel = compiled.Compile.n_sel in
  let s_need = Array.make n_sel 0 and dead = Array.make n_sel false in
  for ix = n_sel - 2 downto 0 do
    s_need.(ix) <- s_need.(ix + 1);
    dead.(ix) <- dead.(ix + 1);
    match fsel.(ix) with
    | FMove (-1) -> dead.(ix) <- true
    | FMove code when code >= 0 ->
        s_need.(ix) <- s_need.(ix) lor (1 lsl (code mod 63))
    | FMove _ | FDos | FFilter _ -> ()
  done;
  let read_by_kids ix =
    (ix < n_sel - 1 && match fsel.(ix) with FMove _ -> true | _ -> false)
    || (ix >= 1 && match fsel.(ix - 1) with FDos -> true | _ -> false)
  in
  let s_watch =
    List.filter
      (fun ix -> read_by_kids ix && not dead.(ix))
      (List.init n_sel Fun.id)
  in
  {
    compiled;
    fsel;
    fpaths;
    q_order = Array.of_list (List.rev !order);
    q_test;
    q_own;
    q_kids;
    s_watch = Array.of_list s_watch;
    s_need;
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

(* Demand (docs/FLATTREE.md): the qualifier entries of a slot's vector
   that something reads.  [close] extends the demand [dem] of a slot
   tagged [tagc] by the entries of its own vector that demanded entries
   read, and puts the entries of its children's vectors that they read
   in [kdem].  A step entry whose tag test fails is [False] whatever
   the children hold, so it reads nothing; a children's step entry
   whose tag has no bit in the slot's tag mask [mask] is [False] at
   every child, so it is not demanded.  Answers whether a demanded
   entry passes its test, that is whether the slot computes a vector,
   and sets [owed] to the tag bits of the tests the kids-demand owes:
   all ones when it owes an untested entry. *)
let close plan ~tagc ~mask ~owed (dem : int array) (kdem : int array) =
  let any = ref 0 in
  for j = 0 to Array.length dem - 1 do
    any := !any lor dem.(j);
    kdem.(j) <- 0
  done;
  owed := 0;
  let holds = ref false in
  if !any <> 0 then begin
    let order = plan.q_order in
    for k = 0 to Array.length order - 1 do
      let e = order.(k) in
      let t = plan.q_test.(e) in
      if bit dem e && (t = -2 || t = tagc) then begin
        holds := true;
        let own = plan.q_own.(e) and kids = plan.q_kids.(e) in
        for m = 0 to Array.length own - 1 do
          put dem own.(m) true
        done;
        for m = 0 to Array.length kids - 1 do
          let s = kids.(m) in
          let ts = plan.q_test.(s) in
          let b =
            if ts = -2 then -1 else if ts = -1 then 0 else 1 lsl (ts mod 63)
          in
          if b land mask <> 0 then begin
            put kdem s true;
            owed := !owed lor b
          end
        done
      end
    done
  end;
  !holds

(* One post-order qualifier walk, shared by [qual_run] and
   [combined_run].  [pre i d vfid tagc dem] runs on slot [i] at depth
   [d] before its children — [vfid] is its virtual fragment id ([-1]
   for an element), [tagc] an element's tag code — adds the entries the
   slot reads of itself to its demand [dem], and answers whether [post]
   wants the slot's vector.  [descend mask d] answers whether a child
   at depth [d] of an off-spine slot, its subtree's tag mask [mask],
   must be walked although it can pass no test the kids-demand owes.
   It is asked per child, after one ask with the slot's own mask, a
   superset of every child's: when that answers no, so would every
   child. *)
type walk = {
  w_plan : plan;
  w_flat : Flat.t;
  ops : int ref;
  virtual_ops : int;  (* charged per virtual slot *)
  own : int rows;  (* depth d: ground vector of the slot last done there *)
  kids : int rows;  (* depth d: OR of the open slot's children, ground *)
  fkids : Formula.t rows;  (* the same OR, under a spine slot *)
  dem : int rows;  (* depth d: entries demanded of the slot open there *)
  kdem : int rows;  (* depth d: entries it demands of its children *)
  owed : int ref;  (* the tag bits [close] last found the kids-demand owes *)
  pre : int -> int -> int -> int -> int array -> bool;
  descend : int -> int -> bool;
  post : int -> Formula.t array -> unit;
}

let walk plan flat ~virtual_ops ~pre ~descend ~post =
  let n_qual = plan.compiled.Compile.n_qual in
  let w = words n_qual in
  {
    w_plan = plan;
    w_flat = flat;
    ops = ref 0;
    virtual_ops;
    own = rows w 0;
    kids = rows w 0;
    fkids = rows n_qual Formula.false_;
    dem = rows w 0;
    kdem = rows w 0;
    owed = ref 0;
    pre;
    descend;
    post;
  }

(* Every entry, demanded of the walk's first slot and of spine slots. *)
let demand_all (dem : int array) = Array.fill dem 0 (Array.length dem) (-1)

(* Slot [i]'s qualifier vector, charged as the pointer passes charge
   the work done: [virtual_ops] per virtual slot, [n_qual * (1 +
   children walked)] per element whose vector is computed.  Off the
   spine the vector is computed into [own] at depth [d] only when a
   demanded entry can pass its test, and is all [False] otherwise; a
   child is walked only when its tag can pass a test the kids-demand
   owes or [descend] asks for it; [[||]] is returned.  On the spine
   every entry is demanded and every child walked, and the vector is
   returned as formulas, from the {!feval_entries} step, with each
   off-spine child entering as [Formula.bool] of its bits. *)
let rec qwalk w i d =
  let flat = w.w_flat in
  let n_qual = w.w_plan.compiled.Compile.n_qual in
  if not (on_spine flat i) then begin
    let tagc = tag_code flat i in
    let dem = row w.dem d and kdem = row w.kdem d and kids = row w.kids d in
    if d = 0 then demand_all dem;
    let want = w.pre i d (-1) tagc dem in
    let mask = Flat.tag_mask flat (max i 0) in
    let holds = close w.w_plan ~tagc ~mask ~owed:w.owed dem kdem in
    let owed = !(w.owed) in
    for j = 0 to Array.length kids - 1 do
      kids.(j) <- 0
    done;
    let n_kids = ref 0 in
    let c = ref (first_child flat i) in
    if !c >= 0 && (owed <> 0 || w.descend mask (d + 1)) then begin
      let bits = row w.own (d + 1) and cdem = row w.dem (d + 1) in
      while !c >= 0 do
        let ci = !c in
        if
          (1 lsl (Flat.tag_code flat ci mod 63)) land owed <> 0
          || w.descend (Flat.tag_mask flat ci) (d + 1)
        then begin
          (* Each walked child starts from the kids-demand. *)
          for j = 0 to Array.length kdem - 1 do
            cdem.(j) <- kdem.(j)
          done;
          ignore (qwalk w ci (d + 1) : Formula.t array);
          for j = 0 to Array.length kids - 1 do
            kids.(j) <- kids.(j) lor bits.(j)
          done;
          incr n_kids
        end;
        c := Flat.next_sibling flat ci
      done
    end;
    let own = row w.own d in
    if holds then begin
      w.ops := !(w.ops) + (n_qual * (1 + !n_kids));
      ground_entries w.w_plan flat i ~tagc ~kids ~own
    end
    else
      for j = 0 to Array.length own - 1 do
        own.(j) <- 0
      done;
    if want then w.post i (formulas_of_bits n_qual own);
    [||]
  end
  else
    let vfid = virtual_fid flat i in
    if vfid >= 0 then begin
      let want = w.pre i d vfid (-1) (row w.dem d) in
      w.ops := !(w.ops) + w.virtual_ops;
      let vec = Qual_pass.virtual_vec w.w_plan.compiled vfid in
      if want then w.post i vec;
      vec
    end
    else begin
      let tagc = tag_code flat i in
      let dem = row w.dem d and kdem = row w.kdem d in
      demand_all dem;
      let want = w.pre i d (-1) tagc dem in
      ignore (close w.w_plan ~tagc ~mask:(-1) ~owed:w.owed dem kdem : bool);
      let acc = row w.fkids d and cdem = row w.dem (d + 1) in
      for e = 0 to n_qual - 1 do
        acc.(e) <- Formula.false_
      done;
      let c = ref (first_child flat i) and n_kids = ref 0 in
      while !c >= 0 do
        for j = 0 to Array.length kdem - 1 do
          cdem.(j) <- kdem.(j)
        done;
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
      ~pre:(fun _ _ _ _ dem ->
        demand_all dem;
        true)
      ~descend:(fun _ _ -> true) ~post
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

(* Is some selection state a child reads from its parent's [sv] both
   non-[False] and able to finish the path, every label move after it
   having its bit in the child's tag mask [mask]?  Collisions mod 63
   only answer yes more often. *)
let live plan (sv : Formula.t array) mask =
  let watch = plan.s_watch in
  let k = ref 0 in
  while
    !k < Array.length watch
    &&
    let ix = watch.(!k) in
    let need = plan.s_need.(ix) in
    sv.(ix) == Formula.false_ || need land mask <> need
  do
    incr k
  done;
  !k < Array.length watch

(* PaX2's single traversal: pre-order selection entries with
   placeholder variables for qualifier values not yet computed,
   post-order qualifier vectors, and the placeholders each node issued
   resolved locally once its subtree is done (the paper's [qz]
   unification).  Only nodes that issued a placeholder get a sigma
   entry: their whole qualifier vector, keyed by node id, of which only
   the issued entries are read.  Off the spine a slot owes the entries
   it issued and those its parent reads, and a child is skipped when
   its tag passes no test the kids-demand owes and [live] finds no
   selection state for it ({!qwalk}). *)
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
  let asked = Array.make (words compiled.Compile.n_qual) 0 in
  (* Pre-order filter satisfaction: data-local tests evaluate now, path
     satisfactions become placeholders, which the slot's vector owes. *)
  let entry i e =
    issued := true;
    put asked e true;
    Formula.var (Var.Qual_at (node_id flat i, e))
  in
  let pre i d vfid tagc slot_dem =
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
      if !issued then
        for j = 0 to Array.length asked - 1 do
          slot_dem.(j) <- slot_dem.(j) lor asked.(j);
          asked.(j) <- 0
        done;
      !issued
    end
  in
  (* Below an off-spine slot only selection vectors can add answers: a
     child is walked for them while a state it reads from its parent's
     vector can still reach the end of the path within its own tags. *)
  let descend mask d = live plan (row sel (d - 1)) mask in
  let post i vec = Hashtbl.replace sigma (node_id flat i) vec in
  (* PaX2's pass charges nothing for a virtual slot's vector. *)
  let w = walk plan flat ~virtual_ops:0 ~pre ~descend ~post in
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
