(* The stage kernels over flat fragment images (docs/FLATTREE.md):
   every evaluator — the engines, the site servers, Centralized and
   Paging — evaluates a fragment or a whole document through these
   three passes.

   The qualifier and selection passes are the paper's bottom-up and
   top-down recurrences over {!Pax_xml.Flat} slots: tag tests compare
   interned int codes, text and attribute tests compare against the
   shared byte buffer in place, and traversal follows the
   [first_child]/[next_sibling] int vectors.  Off the spine a slot's
   qualifier vector is ground, so the kernels step it as a bitset and
   build no formula there; every formula they do build (spine slots,
   selection vectors, results) is built in the order a recursive walk
   of the pointer tree builds it.  That walk is kept as the reference
   in test/helpers/pointer.ml: test/test_passes.ml holds each kernel
   to it, op for op and entry for entry, on random fragmentations.  PaX2's combined pass alone skips, child by child,
   the off-spine subtrees whose entries nothing reads and where no
   selection state can reach an answer, and charges only the slots it
   walks.

   Every serving read runs the combined pass on every fragment, so the
   per-slot loop does only the work its ops count charges.  It reads
   the image's columns ({!Flat.columns}) as arrays: the dev build's
   [-opaque] keeps a call to a [Flat] accessor from ever being inlined.
   Its scratch is int and formula buffers, one row per depth, sized
   once per call from the image's depth, so a slot off the spine
   allocates nothing.  Liveness is computed once per parent whose
   children are walked, not once per child.  Comparisons are int-typed
   (shadowed below) and the placeholder table is int-keyed, so no slot
   goes through the runtime's generic compare or hash.

   Slots are the only way the kernels name a node: answers and
   candidates leave as slot indices, and the caller builds shipped
   answers from the image ([Wire.answer_of_slot]).  The [#document]
   wrapper an absolute query puts above the root fragment is slot -1,
   evaluated by the same per-slot code as every other slot.

   The per-node recurrence ([fsat], [feval_entries]) is the only one in
   the library: it reads a node's leaf tests through a [source] fixed
   once per walk, so {!Stream_eval}'s elements and ParBoX's root check
   run it too. *)

module Flat = Pax_xml.Flat
module Intern = Pax_xml.Intern
module Compile = Pax_xpath.Compile
module Ast = Pax_xpath.Ast
module Formula = Pax_bool.Formula
module Var = Pax_bool.Var

(* Int-typed comparisons.  The kernels compare nothing but ints, and a
   polymorphic comparison goes through the runtime's generic
   [compare_val]; shadowing Stdlib's keeps one from coming back
   unnoticed: it no longer type-checks on anything but ints. *)
let ( = ) (a : int) b = a = b
let ( <> ) (a : int) b = a <> b
let ( < ) (a : int) b = a < b
let ( > ) (a : int) b = a > b
let ( <= ) (a : int) b = a <= b
let ( >= ) (a : int) b = a >= b
let[@warning "-32"] compare (a : int) b = Stdlib.compare a b
let[@warning "-32"] min (a : int) b = if a <= b then a else b
let max (a : int) b = if a >= b then a else b

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

let sel_items plan = plan.fsel

(* ------------------------------------------------------------------ *)
(* slots, the #document wrapper included                              *)
(* ------------------------------------------------------------------ *)

(* An absolute query evaluates the root fragment under a [#document]
   wrapper: slot -1, the parent of slot 0.  No XPath label can spell its
   tag, so only wildcard tests match it ([-3] is neither a tag code nor
   the never-interned [-1]).  It has no text (reads as [""]), no number,
   no attributes, and node id -1; its subtree is the whole fragment, so
   its spine bit and tag mask are slot 0's.  The kernels read slots
   through these accessors, so the wrapper runs the same per-slot code
   as every other slot; [next_sibling] is only asked of real slots.
   The structural ones read the image's columns ({!Flat.columns}). *)
let node_id flat i = if i < 0 then -1 else Flat.node_id flat i

let text_equals flat i s =
  if i < 0 then String.equal s "" else Flat.text_equals flat i s

let num flat i = if i < 0 then None else Flat.num flat i

let attr_test flat i ~key ~expected =
  i >= 0 && Flat.attr_test flat i ~key ~expected

let[@inline] id_at (c : Flat.columns) i = if i < 0 then -1 else c.ids.(i)
let[@inline] tag_at (c : Flat.columns) i = if i < 0 then -3 else c.tag.(i)

let[@inline] first_child_at (c : Flat.columns) i =
  if i < 0 then 0 else c.first_child.(i)

let[@inline] vfid_at (c : Flat.columns) i = if i < 0 then -1 else c.vfid.(i)
let[@inline] spine_at (c : Flat.columns) i = c.spine.(max i 0)
let[@inline] mask_at (c : Flat.columns) i = c.mask.(max i 0)

(* Where a fragment's evaluation starts: the wrapper for the root
   fragment of an absolute query, the fragment root otherwise. *)
let start plan ~is_root =
  if is_root && plan.compiled.Compile.absolute then -1 else 0

(* ------------------------------------------------------------------ *)
(* qualifier satisfaction over a slot                                 *)
(* ------------------------------------------------------------------ *)

(* A lowered tag test [code] passes on tag code [tagc]. *)
let[@inline] tag_matches code ~tagc = code = -2 || code = tagc

(* Where the recurrence reads a slot's three leaf tests: a flat image's
   slots here, a streamed element in {!Stream_eval}.  A source is built
   once per walk, so [fsat] and [feval_entries] serve both. *)
type 'slot source = {
  text_equals : 'slot -> string -> bool;
  num : 'slot -> float option;
  attr_test : 'slot -> key:int -> expected:string option -> bool;
}

let image_source flat =
  {
    text_equals = (fun i s -> text_equals flat i s);
    num = (fun i -> num flat i);
    attr_test = (fun i ~key ~expected -> attr_test flat i ~key ~expected);
  }

(* The qualifier recurrence of paper §3.1, written once.  [fsat src i
   entry q] is the satisfaction of filter [q] at slot [i]: [entry i e]
   reads qualifier entry [e] of the slot — its own vector in the
   qualifier step, the resolved vector in [sel_run], a placeholder in
   [combined_run]. *)
let rec fsat src i entry = function
  | FSat_empty -> Formula.true_
  | FSat e -> entry i e
  | FText_eq s -> Formula.bool (src.text_equals i s)
  | FVal_cmp (op, n) ->
      Formula.bool
        (match src.num i with
        | Some f -> Ast.compare_num op f n
        | None -> false)
  | FAttr_test (key, expected) -> Formula.bool (src.attr_test i ~key ~expected)
  | FNot q -> Formula.not_ (fsat src i entry q)
  | FAnd (a, b) -> Formula.conj (fsat src i entry a) (fsat src i entry b)
  | FOr (a, b) -> Formula.disj (fsat src i entry a) (fsat src i entry b)

(* One element slot's qualifier vector, path by path (nested paths
   first: compile order gives them the smaller indices) and, within a
   path, suffix-position descending, so every read hits an entry
   already written.  [kids.(ko + e)] is the disjunction of entry [e]
   over the slot's children, folded left in child order as the pointer
   reference folds it. *)
let feval_entries plan src i ~tagc (kids : Formula.t array) ko :
    Formula.t array =
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
            (* B(j): the slot matches the move and the rest holds below. *)
            vec.(p.fstep.(j)) <-
              (if tag_matches code ~tagc then a_next else Formula.false_);
            (* A(j): some child matches the move. *)
            vec.(p.fsat.(j)) <- kids.(ko + p.fstep.(j))
        | FDos ->
            (* D(j+1) = A(j+1) or some child's D(j+1); A(j) = D(j+1). *)
            let d =
              if j + 1 = k then Formula.true_
              else begin
                let e = p.fdesc.(j + 1) in
                vec.(e) <- Formula.disj a_next kids.(ko + e);
                vec.(e)
              end
            in
            vec.(p.fsat.(j)) <- d
        | FFilter q ->
            vec.(p.fsat.(j)) <-
              (if a_next == Formula.false_ then Formula.false_
               else Formula.conj (fsat src i own q) a_next)
      done)
    plan.fpaths;
  vec

(* The all-variables vector of a virtual slot for fragment [fid]: every
   entry is the fresh variable [Var.Qual (fid, e)], which the
   coordinator's unification later grounds. *)
let virtual_vec compiled fid =
  Array.init compiled.Compile.n_qual (fun e -> Formula.var (Var.Qual (fid, e)))

(* ------------------------------------------------------------------ *)
(* ground qualifier vectors: bitsets off the spine                    *)
(* ------------------------------------------------------------------ *)

(* Off the spine ([spine] in {!Flat.columns}) a slot's subtree holds no virtual
   slot, so every entry of its qualifier vector is [True] or [False]:
   the kernels hold it as a bitset of 63-bit words and step it with
   word operations.  [ground_entries] is [feval_entries] with bits for
   formulas — [conj]/[disj] of constants are [&&]/[||] — and
   [ground_sat] is [fsat] on the slot's own bits.

   A bitset is a row of a per-depth buffer ({!walk}): [bit a o e] and
   [put a o e b] read and write entry [e] of the row at offset [o]. *)

let words n_qual = (n_qual + 62) / 63

let[@inline] bit (a : int array) o e =
  (a.(o + (e / 63)) lsr (e mod 63)) land 1 <> 0

let[@inline] put (a : int array) o e b =
  let j = o + (e / 63) and m = 1 lsl (e mod 63) in
  a.(j) <- (if b then a.(j) lor m else a.(j) land lnot m)

let rec ground_sat flat own oo i = function
  | FSat_empty -> true
  | FSat e -> bit own oo e
  | FText_eq s -> text_equals flat i s
  | FVal_cmp (op, n) -> (
      match num flat i with Some f -> Ast.compare_num op f n | None -> false)
  | FAttr_test (key, expected) -> attr_test flat i ~key ~expected
  | FNot q -> not (ground_sat flat own oo i q)
  | FAnd (a, b) -> ground_sat flat own oo i a && ground_sat flat own oo i b
  | FOr (a, b) -> ground_sat flat own oo i a || ground_sat flat own oo i b

(* Slot [i]'s ground vector into the row at [o] of [own], from its
   children's OR, the row at [o] of [kids]; rows are [width] words. *)
let ground_entries plan flat i ~tagc ~width ~(kids : int array)
    ~(own : int array) o =
  for j = 0 to width - 1 do
    own.(o + j) <- 0
  done;
  let paths = plan.fpaths in
  for pi = 0 to Array.length paths - 1 do
    let p = paths.(pi) in
    let k = Array.length p.fitems in
    for j = k - 1 downto 0 do
      let a_next = j + 1 = k || bit own o p.fsat.(j + 1) in
      match p.fitems.(j) with
      | FMove code ->
          put own o p.fstep.(j) ((code = -2 || code = tagc) && a_next);
          put own o p.fsat.(j) (bit kids o p.fstep.(j))
      | FDos ->
          let d =
            j + 1 = k
            ||
            let e = p.fdesc.(j + 1) in
            let b = a_next || bit kids o e in
            put own o e b;
            b
          in
          put own o p.fsat.(j) d
      | FFilter q -> put own o p.fsat.(j) (a_next && ground_sat flat own o i q)
    done
  done

(* A ground vector, the row at [o] of [bits], as the formulas it
   stands for, at a kernel's edge.  A qualifier-free query's vectors
   are all [[||]], which needs no [Array.make] (a C call) per slot. *)
let formulas_of_bits n_qual bits o =
  if n_qual = 0 then [||]
  else begin
    let vec = Array.make n_qual Formula.false_ in
    for e = 0 to n_qual - 1 do
      if bit bits o e then vec.(e) <- Formula.true_
    done;
    vec
  end

(* One post-order qualifier walk, shared by [qual_run] and
   [combined_run].  [pre i d vfid tagc] runs on slot [i] at depth [d]
   before its children — [vfid] is its virtual fragment id ([-1] for an
   element), [tagc] an element's tag code — and answers whether [post]
   wants the slot's vector; the entries it issued as placeholders, in
   [asked], join the slot's demand.  [qual_run] walks [every] child and
   demands every entry.  [combined_run] walks a child of an off-spine
   slot only when its tag can pass a test the kids-demand owes, or when
   a selection state it reads from its parent's vector, the row of
   [sel] at the parent's depth, is live for it ({!live_needs}).

   Scratch is sized once per call from the image's depth
   ({!Flat.columns}): row [d] of a [k]-wide buffer is
   [d * k .. d * k + k - 1], reused by every slot at depth [d] for the
   rest of the call, so a slot off the spine allocates nothing.  Each
   call owns its buffers, so pooled domains share nothing. *)
type walk = {
  w_plan : plan;
  w_flat : Flat.t;
  src : int source;  (* [w_flat]'s slots, for the spine's [feval_entries] *)
  cols : Flat.columns;
  n_qual : int;
  width : int;  (* words of a bitset row *)
  mutable ops : int;
  virtual_ops : int;  (* charged per virtual slot *)
  own : int array;  (* row d: ground vector of the slot last done there *)
  kids : int array;  (* row d: OR of the open slot's children, ground *)
  fkids : Formula.t array;  (* the same OR under a spine slot, [n_qual] wide *)
  dem : int array;  (* row d: entries demanded of the slot open there *)
  kdem : int array;  (* row d: entries it demands of its children *)
  mutable owed : int;  (* tag bits [close] last found the kids-demand owes *)
  asked : int array;  (* entries [pre] issued as placeholders, one row *)
  every : bool;  (* walk every child, demand every entry: [qual_run] *)
  sel : Formula.t array;  (* row d: selection vector, [n_sel] wide *)
  needs : int array;  (* row d: live states' tag needs, [s_watch] wide *)
  pre : int -> int -> int -> int -> bool;
  post : int -> Formula.t array -> unit;
}

let walk plan flat ~src cols ~every ~sel ~asked ~virtual_ops ~pre ~post =
  let n_qual = plan.compiled.Compile.n_qual in
  let width = words n_qual and depths = cols.Flat.levels + 1 in
  let ints k = Array.make (depths * k) 0 in
  {
    w_plan = plan;
    w_flat = flat;
    src;
    cols;
    n_qual;
    width;
    ops = 0;
    virtual_ops;
    own = ints width;
    kids = ints width;
    fkids = Array.make (depths * n_qual) Formula.false_;
    dem = ints width;
    kdem = ints width;
    owed = 0;
    asked;
    every;
    sel;
    needs = (if every then [||] else ints (Array.length plan.s_watch));
    pre;
    post;
  }

(* Demand (docs/FLATTREE.md): the qualifier entries of a slot's vector
   that something reads.  [close] extends the demand, row [o] of
   [w.dem], of a slot tagged [tagc] by the entries of its own vector
   that demanded entries read, and puts the entries of its children's
   vectors that they read in row [o] of [w.kdem].  A step entry whose
   tag test fails is [False] whatever the children hold, so it reads
   nothing; a children's step entry whose tag has no bit in the slot's
   tag mask [mask] is [False] at every child, so it is not demanded.
   Answers whether a demanded entry passes its test, that is whether
   the slot computes a vector, and sets [w.owed] to the tag bits of the
   tests the kids-demand owes: all ones when it owes an untested
   entry. *)
let close w ~tagc ~mask o =
  let plan = w.w_plan and dem = w.dem and kdem = w.kdem in
  let any = ref 0 in
  for j = 0 to w.width - 1 do
    any := !any lor dem.(o + j);
    kdem.(o + j) <- 0
  done;
  let owed = ref 0 and holds = ref false in
  if !any <> 0 then begin
    let order = plan.q_order in
    for k = 0 to Array.length order - 1 do
      let e = order.(k) in
      let t = plan.q_test.(e) in
      if bit dem o e && (t = -2 || t = tagc) then begin
        holds := true;
        let own = plan.q_own.(e) and kids = plan.q_kids.(e) in
        for m = 0 to Array.length own - 1 do
          put dem o own.(m) true
        done;
        for m = 0 to Array.length kids - 1 do
          let s = kids.(m) in
          let ts = plan.q_test.(s) in
          let b =
            if ts = -2 then -1 else if ts = -1 then 0 else 1 lsl (ts mod 63)
          in
          if b land mask <> 0 then begin
            put kdem o s true;
            owed := !owed lor b
          end
        done
      end
    done
  end;
  w.owed <- !owed;
  !holds

(* Every entry, demanded of the walk's first slot and of spine slots. *)
let demand_all w o =
  for j = 0 to w.width - 1 do
    w.dem.(o + j) <- -1
  done

(* The placeholders [pre] just issued join the demand, row [o]. *)
let absorb_asked w o =
  let asked = w.asked in
  for j = 0 to w.width - 1 do
    w.dem.(o + j) <- w.dem.(o + j) lor asked.(j);
    asked.(j) <- 0
  done

(* Liveness, once per parent whose children are about to be walked.
   A child reads a watched state of its parent's selection vector, the
   row at depth [d] of [w.sel]; the state is live for the child when it
   is not [False] and every label move after it has its bit in the
   child's tag mask.  A child's mask is a subset of its parent's [mask],
   so row [d] of [w.needs] lists the tag needs of the states that are
   not [False] and fit [mask], and a child is live when one of them
   fits its own mask ({!fits}).  Answers how many are listed.
   Collisions mod 63 only answer yes more often. *)
let live_needs w d mask =
  let plan = w.w_plan in
  let watch = plan.s_watch and sel = w.sel and needs = w.needs in
  let n_watch = Array.length watch in
  let so = d * plan.compiled.Compile.n_sel and no = d * n_watch in
  let k = ref 0 in
  for j = 0 to n_watch - 1 do
    let ix = watch.(j) in
    let need = plan.s_need.(ix) in
    if sel.(so + ix) != Formula.false_ && need land mask = need then begin
      needs.(no + !k) <- need;
      incr k
    end
  done;
  !k

(* Does one of the [k] needs at offset [o] of [needs] fit [mask]? *)
let[@inline] fits (needs : int array) o k mask =
  let j = ref 0 in
  while
    !j < k
    &&
    let need = needs.(o + !j) in
    need land mask <> need
  do
    incr j
  done;
  !j < k

(* Slot [i]'s qualifier vector, charged as the pointer reference charges
   the work done: [virtual_ops] per virtual slot, [n_qual * (1 +
   children walked)] per element whose vector is computed.  Off the
   spine the vector is computed into row [d] of [own] only when a
   demanded entry can pass its test, and is all [False] otherwise; a
   child is walked only when its tag can pass a test the kids-demand
   owes or a selection state is live for it (or [every]); [[||]] is
   returned.  On the spine every entry is demanded and every child
   walked, and the vector is returned as formulas, from the
   {!feval_entries} step, with each off-spine child entering as
   [Formula.bool] of its bits. *)
let rec qwalk w i d =
  let c = w.cols and width = w.width in
  let o = d * width in
  if not (spine_at c i) then begin
    let tagc = tag_at c i in
    let want = w.pre i d (-1) tagc in
    if want && not w.every then absorb_asked w o;
    if w.every || d = 0 then demand_all w o;
    let mask = mask_at c i in
    let holds = close w ~tagc ~mask o in
    let owed = w.owed and kids = w.kids in
    for j = 0 to width - 1 do
      kids.(o + j) <- 0
    done;
    let n_kids = ref 0 in
    let first = first_child_at c i in
    if first >= 0 then begin
      let n_live = if w.every then 0 else live_needs w d mask in
      if w.every || owed <> 0 || n_live > 0 then begin
        let co = o + width and no = d * Array.length w.w_plan.s_watch in
        let ch = ref first in
        while !ch >= 0 do
          let ci = !ch in
          if
            w.every
            || (1 lsl (c.tag.(ci) mod 63)) land owed <> 0
            || fits w.needs no n_live c.mask.(ci)
          then begin
            (* Each walked child starts from the kids-demand. *)
            for j = 0 to width - 1 do
              w.dem.(co + j) <- w.kdem.(o + j)
            done;
            ignore (qwalk w ci (d + 1) : Formula.t array);
            for j = 0 to width - 1 do
              kids.(o + j) <- kids.(o + j) lor w.own.(co + j)
            done;
            incr n_kids
          end;
          ch := c.next_sibling.(ci)
        done
      end
    end;
    if holds then begin
      w.ops <- w.ops + (w.n_qual * (1 + !n_kids));
      ground_entries w.w_plan w.w_flat i ~tagc ~width ~kids ~own:w.own o
    end
    else
      for j = 0 to width - 1 do
        w.own.(o + j) <- 0
      done;
    if want then w.post i (formulas_of_bits w.n_qual w.own o);
    [||]
  end
  else
    let vfid = vfid_at c i in
    if vfid >= 0 then begin
      let want = w.pre i d vfid (-1) in
      w.ops <- w.ops + w.virtual_ops;
      let vec = virtual_vec w.w_plan.compiled vfid in
      if want then w.post i vec;
      vec
    end
    else begin
      let tagc = tag_at c i and n_qual = w.n_qual in
      let want = w.pre i d (-1) tagc in
      if want && not w.every then absorb_asked w o;
      demand_all w o;
      ignore (close w ~tagc ~mask:(-1) o : bool);
      let acc = w.fkids and ao = d * n_qual and co = o + width in
      for e = 0 to n_qual - 1 do
        acc.(ao + e) <- Formula.false_
      done;
      let ch = ref (first_child_at c i) and n_kids = ref 0 in
      while !ch >= 0 do
        let ci = !ch in
        for j = 0 to width - 1 do
          w.dem.(co + j) <- w.kdem.(o + j)
        done;
        let cv = qwalk w ci (d + 1) in
        if c.spine.(ci) then
          for e = 0 to n_qual - 1 do
            acc.(ao + e) <- Formula.disj acc.(ao + e) cv.(e)
          done
        else
          for e = 0 to n_qual - 1 do
            acc.(ao + e) <-
              Formula.disj acc.(ao + e) (Formula.bool (bit w.own co e))
          done;
        incr n_kids;
        ch := c.next_sibling.(ci)
      done;
      w.ops <- w.ops + (n_qual * (1 + !n_kids));
      let vec = feval_entries w.w_plan w.src i ~tagc acc ao in
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

(* The bottom-up qualifier pass from the fragment's root (its wrapper
   for fragment 0 of an absolute query).  Every slot's vector is
   materialized as formulas at the edge: PaX3 stage 2 resolves them in
   place ([qual_resolve]) and reads them per slot ([sel_run]). *)
let qual_run plan flat ~is_root : qual =
  let vecs = Array.make (Flat.length flat) [||] in
  let wrap = ref None in
  let post i vec = if i >= 0 then vecs.(i) <- vec else wrap := Some vec in
  let w =
    walk plan flat ~src:(image_source flat) (Flat.columns flat) ~every:true
      ~sel:[||] ~asked:[||]
      ~virtual_ops:plan.compiled.Compile.n_qual
      ~pre:(fun _ _ _ _ -> true)
      ~post
  in
  let s = start plan ~is_root in
  ignore (qwalk w s 0 : Formula.t array);
  {
    q_flat = flat;
    q_vecs = vecs;
    q_wrap = !wrap;
    q_root_vec = (if s >= 0 then vecs.(s) else Option.get !wrap);
    q_ops = w.ops;
  }

(* Substitute in place, counting every entry of every stored vector
   (virtual slots and wrapper included). *)
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

let blank_init compiled = Array.make compiled.Compile.n_sel Formula.false_

let symbolic_init compiled ~fid =
  Array.init compiled.Compile.n_sel (fun i ->
      Formula.var (Var.Sel_ctx (fid, i)))

(* A buffer entry is rewritten only when it changes: most entries stay
   [False] from one slot to the next, and skipping the store skips the
   write barrier. *)
let[@inline] set (a : Formula.t array) i v = if a.(i) != v then a.(i) <- v

(* Selection vectors live in one buffer of [n_sel]-wide rows per call,
   one row per depth ({!walk}): a slot at depth [d] writes row [d],
   which its children read as their parent's; the slot at depth 0 reads
   [init]. *)
let sel_rows plan (cols : Flat.columns) =
  Array.make ((cols.levels + 1) * plan.compiled.Compile.n_sel) Formula.false_

(* The parent's vector of a slot at depth [d], copied for a context. *)
let parent_vec ~init sel n d =
  if d = 0 then Array.copy init else Array.sub sel ((d - 1) * n) n

(* The pre-order selection step on element slot [i]: writes its
   vector at offset [o] of [sv] from its parent's, at offset [po] of
   [pv], charged [n_sel] by the caller.  Filters read qualifier entries
   through [entry] ({!fsat}). *)
let sel_step plan src entry i ~tagc ~is_context (pv : Formula.t array) po
    (sv : Formula.t array) o =
  set sv o (if is_context then Formula.true_ else Formula.false_);
  let fsel = plan.fsel in
  for ix = 1 to Array.length fsel do
    set sv (o + ix)
      (match fsel.(ix - 1) with
      | FMove code ->
          if tag_matches code ~tagc then pv.(po + ix - 1) else Formula.false_
      | FDos -> Formula.disj pv.(po + ix) sv.(o + ix - 1)
      | FFilter q ->
          let prev = sv.(o + ix - 1) in
          if prev == Formula.false_ then Formula.false_
          else Formula.conj prev (fsat src i entry q))
  done

(* [sel_step] on slot [i] at depth [d], the wrapper (when there is one)
   being the context node itself. *)
let sel_step_at plan src entry i ~tagc ~init ~is_root sel d =
  let n = plan.compiled.Compile.n_sel in
  if d = 0 then
    sel_step plan src entry i ~tagc ~is_context:is_root init 0 sel 0
  else
    sel_step plan src entry i ~tagc ~is_context:false sel
      ((d - 1) * n)
      sel (d * n)

(* The top-down selection pass from the fragment's root (its wrapper
   for fragment 0 of an absolute query), with qualifier satisfaction
   read from a resolved qualifier pass ([qual]), or trivially when the
   query has no qualifier entries. *)
let sel_run plan flat ~init ~is_root ~(qual : qual option) : sel_outcome =
  let n = plan.compiled.Compile.n_sel in
  let last = n - 1 in
  let cols = Flat.columns flat in
  let src = image_source flat in
  let sel = sel_rows plan cols in
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
    let vfid = vfid_at cols i in
    if vfid >= 0 then contexts := (vfid, parent_vec ~init sel n d) :: !contexts
    else begin
      ops := !ops + n;
      sel_step_at plan src entry i ~tagc:(tag_at cols i) ~init ~is_root sel d;
      let f = sel.((d * n) + last) in
      if f == Formula.true_ then answers := i :: !answers
      else if f != Formula.false_ then candidates := (i, f) :: !candidates;
      let c = ref (first_child_at cols i) in
      while !c >= 0 do
        go !c (d + 1);
        c := cols.next_sibling.(!c)
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

(* Node id -> qualifier vector, with int hashing and equality. *)
module Sigma = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash (a : int) = a land max_int
end)

(* PaX2's single traversal: pre-order selection entries with
   placeholder variables for qualifier values not yet computed,
   post-order qualifier vectors, and the placeholders each node issued
   resolved locally once its subtree is done (the paper's [qz]
   unification).  Only nodes that issued a placeholder get a sigma
   entry: their whole qualifier vector, keyed by node id, of which only
   the issued entries are read.  Off the spine a slot owes the entries
   it issued and those its parent reads, and a child is skipped when
   its tag passes no test the kids-demand owes and no selection state
   it reads is live for it ({!qwalk}). *)
let combined_run plan flat ~init ~is_root : combined_outcome =
  let compiled = plan.compiled in
  let n_sel = compiled.Compile.n_sel in
  let last = n_sel - 1 in
  let cols = Flat.columns flat in
  let src = image_source flat in
  let sel = sel_rows plan cols in
  let sigma : Formula.t array Sigma.t = Sigma.create 16 in
  let issued = ref false in
  let pending = ref [] in
  let contexts = ref [] in
  let sel_ops = ref 0 in
  let asked = Array.make (words compiled.Compile.n_qual) 0 in
  (* Pre-order filter satisfaction: data-local tests evaluate now, path
     satisfactions become placeholders, which the slot's vector owes. *)
  let entry i e =
    issued := true;
    put asked 0 e true;
    Formula.var (Var.Qual_at (id_at cols i, e))
  in
  let pre i d vfid tagc =
    if vfid >= 0 then begin
      contexts := (vfid, parent_vec ~init sel n_sel d) :: !contexts;
      false
    end
    else begin
      sel_ops := !sel_ops + n_sel;
      issued := false;
      sel_step_at plan src entry i ~tagc ~init ~is_root sel d;
      let f = sel.((d * n_sel) + last) in
      if f != Formula.false_ then pending := (i, f) :: !pending;
      !issued
    end
  in
  let post i vec = Sigma.replace sigma (id_at cols i) vec in
  (* PaX2's pass charges nothing for a virtual slot's vector. *)
  let w =
    walk plan flat ~src cols ~every:false ~sel ~asked ~virtual_ops:0 ~pre ~post
  in
  let s = start plan ~is_root in
  let vec = qwalk w s 0 in
  let root_qvec =
    if spine_at cols s then vec
    else formulas_of_bits compiled.Compile.n_qual w.own 0
  in
  let sigma_lookup = function
    | Var.Qual_at (nid, e) -> (
        match Sigma.find_opt sigma nid with
        | Some vec -> Some vec.(e)
        | None -> None)
    | Var.Qual _ | Var.Sel_ctx _ -> None
  in
  let ops = ref (!sel_ops + w.ops) in
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
