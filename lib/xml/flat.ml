(* The flat, succinct fragment image (docs/FLATTREE.md).

   A [Flat.t] is a structure-of-arrays re-encoding of one fragment's
   [Tree.node] tree in preorder: slot [i] holds node [i] of the
   document-order traversal, and all structure is int vectors —
   [parent], [first_child], [next_sibling], [subtree_size].  Tags and
   attribute keys are interned ({!Intern}); character data and
   attribute values live as offsets into one shared [Bytes] buffer.
   Virtual nodes carry their fragment id in [vfid] ([-1] for
   elements).

   The image is immutable after construction, so it is shareable
   across OCaml 5 domains without copying: a stage pass is a tight
   loop over int reads, never a heap walk.  It holds columns only — no
   pointer node survives [of_tree] — so a site that decodes a pushed
   image holds exactly what it evaluates, and an answer is built from
   the columns of its slot.

   Updates never mutate an image either.  {!edit} applies one update
   copy-on-write: it returns a new image with exactly the layout
   [of_tree] builds from the updated tree, sharing every column the
   edit leaves alone (a [Set_text] shares the structure and the id
   index).  {!Pax_frag.Update.apply} patches the coordinator's image
   this way, and a site server patches the image it holds with the
   same function when a pushed edit arrives. *)

(* The structural columns the stage kernels read in their inner loops
   (see [columns] below); the same arrays as [t]'s, never copied. *)
type columns = {
  ids : int array;
  first_child : int array;
  next_sibling : int array;
  tag : int array;
  vfid : int array;
  spine : bool array;
  mask : int array;
  levels : int;
}

type t = {
  n : int;  (* number of slots (preorder positions), >= 1 *)
  ids : int array;  (* slot -> document node id *)
  parent : int array;  (* slot -> parent slot; -1 at the root *)
  first_child : int array;  (* slot -> first child slot; -1 if leaf *)
  next_sibling : int array;  (* slot -> next sibling slot; -1 if last *)
  subtree_size : int array;  (* slot -> slots in its subtree, itself included *)
  tag : int array;  (* slot -> intern code of the tag *)
  vfid : int array;  (* slot -> virtual fragment id; -1 for elements *)
  text_off : int array;  (* slot -> offset into [buf]; -1 encodes None *)
  text_len : int array;
  attr_start : int array;  (* slot -> first row in the attr columns *)
  attr_count : int array;
  attr_key : int array;  (* attr row -> intern code of the key *)
  attr_off : int array;  (* attr row -> value offset into [buf] *)
  attr_len : int array;
  buf : Bytes.t;  (* all character data and attribute values *)
  num_some : bool array;  (* slot -> [Tree.number_of_text] succeeded *)
  num_val : float array;
  spine : bool array;  (* slot -> its subtree holds a virtual slot *)
  mask : int array;  (* slot -> OR of [1 lsl (code mod 63)] over its subtree *)
  levels : int;  (* 1 + the largest slot depth, the root at depth 0 *)
  intern : Intern.t;
  by_id : (int, int) Hashtbl.t option Atomic.t;  (* lazy id -> slot *)
  by_id_lock : Mutex.t;
}

let length t = t.n
let intern t = t.intern
let node_id t i = t.ids.(i)
let parent t i = t.parent.(i)
let subtree_size t i = t.subtree_size.(i)
let tag_name t i = Intern.name t.intern t.tag.(i)
let is_virtual t i = t.vfid.(i) >= 0
let n_attrs t = t.attr_start.(t.n - 1) + t.attr_count.(t.n - 1)

let columns (t : t) : columns =
  {
    ids = t.ids;
    first_child = t.first_child;
    next_sibling = t.next_sibling;
    tag = t.tag;
    vfid = t.vfid;
    spine = t.spine;
    mask = t.mask;
    levels = t.levels;
  }

(* ------------------------------------------------------------------ *)
(* construction                                                       *)
(* ------------------------------------------------------------------ *)

(* The numeric view of every slot's character data, read from the
   buffer: derived state, so [of_tree] and [decode] both compute it
   here with the one parser {!Tree.float_of} uses. *)
let num_columns ~n ~text_off ~text_len buf =
  let num_some = Array.make n false and num_val = Array.make n 0. in
  for i = 0 to n - 1 do
    if text_off.(i) >= 0 then
      match
        Tree.number_of_text (Bytes.sub_string buf text_off.(i) text_len.(i))
      with
      | Some f ->
          num_some.(i) <- true;
          num_val.(i) <- f
      | None -> ()
  done;
  (num_some, num_val)

(* The spine: slots whose subtree [i, i + subtree_size i) holds a
   virtual slot.  Derived state like [num_*], computed by [of_tree] and
   [decode] alike: one backward sweep tracking the first virtual slot
   at or after [i]. *)
let spine_column ~n ~subtree_size ~vfid =
  let spine = Array.make n false in
  let next_virtual = ref n in
  for i = n - 1 downto 0 do
    if vfid.(i) >= 0 then next_virtual := i;
    spine.(i) <- !next_virtual < i + subtree_size.(i)
  done;
  spine

(* The subtree tag mask: bit [code mod 63] for every tag in the slot's
   subtree, all ones at a virtual slot (whatever lies below it).  Also
   derived, and filled by [of_tree] and [decode] after the spine: a
   backward sweep ORs each slot's children, found by hopping
   [subtree_size] through [i + 1, i + subtree_size i).  The hop only
   needs [subtree_size >= 1], which [decode] has checked, so it
   terminates on any accepted image. *)
let element_mask ~mask ~subtree_size ~tag i =
  let m = ref (1 lsl (tag.(i) mod 63)) in
  let stop = i + subtree_size.(i) in
  let c = ref (i + 1) in
  while !c < stop do
    m := !m lor mask.(!c);
    c := !c + subtree_size.(!c)
  done;
  !m

let mask_column ~n ~subtree_size ~tag ~vfid =
  let mask = Array.make n 0 in
  for i = n - 1 downto 0 do
    mask.(i) <-
      (if vfid.(i) >= 0 then -1
       else element_mask ~mask ~subtree_size ~tag i)
  done;
  mask

(* The number of depths the image spans: [parent] precedes its child
   in preorder, so one forward sweep finds every slot's depth. *)
let levels_of ~n ~parent =
  let depth = Array.make n 0 and levels = ref 1 in
  for i = 1 to n - 1 do
    let d = depth.(parent.(i)) + 1 in
    depth.(i) <- d;
    if d >= !levels then levels := d + 1
  done;
  !levels

(* An image whose shipped columns are set, with its derived ones
   computed from them. *)
let derive r =
  let num_some, num_val =
    num_columns ~n:r.n ~text_off:r.text_off ~text_len:r.text_len r.buf
  in
  {
    r with
    num_some;
    num_val;
    spine = spine_column ~n:r.n ~subtree_size:r.subtree_size ~vfid:r.vfid;
    mask = mask_column ~n:r.n ~subtree_size:r.subtree_size ~tag:r.tag ~vfid:r.vfid;
    levels = levels_of ~n:r.n ~parent:r.parent;
  }

let of_tree ?(intern = Intern.create ()) (root : Tree.node) =
  let n = Tree.size root in
  let n_attrs =
    Tree.fold (fun acc nd -> acc + List.length nd.Tree.attrs) 0 root
  in
  let ids = Array.make n 0
  and parent = Array.make n (-1)
  and first_child = Array.make n (-1)
  and next_sibling = Array.make n (-1)
  and subtree_size = Array.make n 1
  and tag = Array.make n 0
  and vfid = Array.make n (-1)
  and text_off = Array.make n (-1)
  and text_len = Array.make n 0
  and attr_start = Array.make n 0
  and attr_count = Array.make n 0
  and attr_key = Array.make (max n_attrs 1) 0
  and attr_off = Array.make (max n_attrs 1) 0
  and attr_len = Array.make (max n_attrs 1) 0 in
  let bbuf = Buffer.create 1024 in
  (* Each distinct label goes to the shared table once per build. *)
  let seen = Hashtbl.create 64 in
  let code s =
    match Hashtbl.find_opt seen s with
    | Some c -> c
    | None ->
        let c = Intern.intern intern s in
        Hashtbl.add seen s c;
        c
  in
  let slot = ref 0 and attr_ix = ref 0 in
  let rec go p (nd : Tree.node) =
    let i = !slot in
    incr slot;
    ids.(i) <- nd.Tree.id;
    parent.(i) <- p;
    tag.(i) <- code nd.Tree.tag;
    (match nd.Tree.kind with
    | Tree.Virtual f -> vfid.(i) <- f
    | Tree.Element -> ());
    (match nd.Tree.text with
    | None -> ()
    | Some s ->
        text_off.(i) <- Buffer.length bbuf;
        text_len.(i) <- String.length s;
        Buffer.add_string bbuf s);
    attr_start.(i) <- !attr_ix;
    attr_count.(i) <- List.length nd.Tree.attrs;
    List.iter
      (fun (k, v) ->
        let j = !attr_ix in
        incr attr_ix;
        attr_key.(j) <- code k;
        attr_off.(j) <- Buffer.length bbuf;
        attr_len.(j) <- String.length v;
        Buffer.add_string bbuf v)
      nd.Tree.attrs;
    let prev = ref (-1) in
    List.iter
      (fun c ->
        let ci = go i c in
        if !prev < 0 then first_child.(i) <- ci
        else next_sibling.(!prev) <- ci;
        prev := ci)
      nd.Tree.children;
    subtree_size.(i) <- !slot - i;
    i
  in
  ignore (go (-1) root);
  derive
    {
      n;
      ids;
      parent;
      first_child;
      next_sibling;
      subtree_size;
      tag;
      vfid;
      text_off;
      text_len;
      attr_start;
      attr_count;
      attr_key;
      attr_off;
      attr_len;
      buf = Buffer.to_bytes bbuf;
      num_some = [||];
      num_val = [||];
      spine = [||];
      mask = [||];
      levels = 0;
      intern;
      by_id = Atomic.make None;
      by_id_lock = Mutex.create ();
    }

(* ------------------------------------------------------------------ *)
(* content accessors (allocation-free comparisons)                    *)
(* ------------------------------------------------------------------ *)

(* [vtext] semantics of the qualifier view: a missing text is [""]. *)
let text_equals t i s =
  String.length s = t.text_len.(i)
  &&
  let off = t.text_off.(i) in
  off < 0
  ||
  let rec eq j =
    j = t.text_len.(i)
    || (Bytes.unsafe_get t.buf (off + j) = String.unsafe_get s j && eq (j + 1))
  in
  eq 0

let text t i =
  if t.text_off.(i) < 0 then None
  else Some (Bytes.sub_string t.buf t.text_off.(i) t.text_len.(i))

let num t i = if t.num_some.(i) then Some t.num_val.(i) else None

(* First attribute row whose key has code [key]; -1 when absent or the
   key was never interned ([key] = -1 matches nothing). *)
let attr_row t i key =
  if key < 0 then -1
  else
    let stop = t.attr_start.(i) + t.attr_count.(i) in
    let rec go j =
      if j >= stop then -1 else if t.attr_key.(j) = key then j else go (j + 1)
    in
    go t.attr_start.(i)

(* The qualifier view's attribute test, allocation-free: [expected]
   [None] asks only for presence. *)
let attr_test t i ~key ~expected =
  let j = attr_row t i key in
  j >= 0
  &&
  match expected with
  | None -> true
  | Some s ->
      String.length s = t.attr_len.(j)
      &&
      let off = t.attr_off.(j) in
      let rec eq k =
        k = t.attr_len.(j)
        || Bytes.unsafe_get t.buf (off + k) = String.unsafe_get s k
           && eq (k + 1)
      in
      eq 0

let attrs t i =
  List.init t.attr_count.(i) (fun k ->
      let j = t.attr_start.(i) + k in
      ( Intern.name t.intern t.attr_key.(j),
        Bytes.sub_string t.buf t.attr_off.(j) t.attr_len.(j) ))

(* ------------------------------------------------------------------ *)
(* id index                                                           *)
(* ------------------------------------------------------------------ *)

(* Lazily built id -> slot table.  The [Atomic] publication means a
   racing reader either sees [None] (and builds under the lock, where
   the second check deduplicates) or a fully constructed table. *)
let index t =
  match Atomic.get t.by_id with
  | Some h -> h
  | None ->
      Mutex.lock t.by_id_lock;
      let h =
        match Atomic.get t.by_id with
        | Some h -> h
        | None ->
            let h = Hashtbl.create (2 * t.n) in
            for i = 0 to t.n - 1 do
              Hashtbl.replace h t.ids.(i) i
            done;
            Atomic.set t.by_id (Some h);
            h
      in
      Mutex.unlock t.by_id_lock;
      h

let find_index t id = Hashtbl.find_opt (index t) id

(* ------------------------------------------------------------------ *)
(* structural sanity                                                  *)
(* ------------------------------------------------------------------ *)

exception Corrupt

(* Every slot reference in range, every offset inside the buffer, so
   accessors cannot escape their arrays, and one tree in preorder: slot
   0 spans every slot, a slot's first child is the next slot, and a
   child's next sibling starts where its subtree ends, inside its
   parent's.  So the [first_child]/[next_sibling] walk the kernels make
   visits each slot once, at the depth [parent] gives it ([levels]).
   [decode] runs it on every wire image, and [edit] on every image it
   builds, so neither a hostile image nor a hostile edit yields an
   unsafe one. *)
let check t =
  let n = t.n and n_attrs = n_attrs t in
  if
    n_attrs > Array.length t.attr_key
    || n_attrs > Array.length t.attr_off
    || n_attrs > Array.length t.attr_len
  then raise Corrupt;
  let buf_len = Bytes.length t.buf in
  let slot_ok v = v >= -1 && v < n in
  for i = 0 to n - 1 do
    if
      not
        (slot_ok t.parent.(i) && slot_ok t.first_child.(i)
        && slot_ok t.next_sibling.(i))
    then raise Corrupt;
    let size = t.subtree_size.(i) in
    if size < 1 || i + size > n then raise Corrupt;
    let off = t.text_off.(i) and len = t.text_len.(i) in
    if off < -1 || len < 0 || (off >= 0 && off + len > buf_len) then
      raise Corrupt;
    let start = t.attr_start.(i) and count = t.attr_count.(i) in
    if start < 0 || count < 0 || start + count > n_attrs then raise Corrupt
  done;
  if t.parent.(0) <> -1 || t.next_sibling.(0) <> -1 || t.subtree_size.(0) <> n
  then raise Corrupt;
  for i = 0 to n - 1 do
    let stop = i + t.subtree_size.(i) in
    if stop > i + 1 then begin
      if t.first_child.(i) <> i + 1 || t.parent.(i + 1) <> i then raise Corrupt
    end
    else if t.first_child.(i) <> -1 then raise Corrupt;
    if i > 0 then begin
      let p = t.parent.(i) in
      if p < 0 || p >= i then raise Corrupt;
      let p_stop = p + t.subtree_size.(p) in
      if stop > p_stop then raise Corrupt;
      if stop < p_stop then begin
        if t.next_sibling.(i) <> stop || t.parent.(stop) <> p then raise Corrupt
      end
      else if t.next_sibling.(i) <> -1 then raise Corrupt
    end
  done;
  for j = 0 to n_attrs - 1 do
    let off = t.attr_off.(j) and len = t.attr_len.(j) in
    if off < 0 || len < 0 || off + len > buf_len then raise Corrupt
  done

(* ------------------------------------------------------------------ *)
(* copy-on-write edits                                                *)
(* ------------------------------------------------------------------ *)

type edit =
  | Set_text of int * string option
  | Insert of int * t
  | Delete of int

(* Where slot [i]'s bytes begin in [buf]: [of_tree] appends each slot's
   text and then its attribute values in preorder, so this is the first
   offset recorded at or after slot [i], or the buffer's end. *)
let content_start t i =
  let rec go j =
    if j >= t.n then Bytes.length t.buf
    else if t.text_off.(j) >= 0 then t.text_off.(j)
    else if t.attr_count.(j) > 0 then t.attr_off.(t.attr_start.(j))
    else go (j + 1)
  in
  go i

(* [buf] with [del] bytes at [at] replaced by [ins]. *)
let splice_bytes buf ~at ~del ins =
  let len = Bytes.length buf and m = Bytes.length ins in
  let r = Bytes.create (len - del + m) in
  Bytes.blit buf 0 r 0 at;
  Bytes.blit ins 0 r at m;
  Bytes.blit buf (at + del) r (at + m) (len - at - del);
  r

(* Apply [f] to every proper ancestor of slot [i], from its parent up
   to the root.  Preorder puts a parent before its child; an image
   where it does not is refused rather than walked. *)
let rec up parent i f =
  let a = parent.(i) in
  if a >= i then raise Corrupt;
  if a >= 0 then begin
    f a;
    up parent a f
  end

(* The last of [p]'s children before [stop] ([-1] for the last child
   of all): a sibling chain only moves forward. *)
let sibling_before ~first_child ~next_sibling p stop =
  let rec go c =
    let nx = next_sibling.(c) in
    if nx = stop then c else if nx <= c then raise Corrupt else go nx
  in
  go first_child.(p)

(* Only slot [i]'s text changes: a copy of the buffer holds the new
   bytes in place of the old, the offsets recorded after them (later slots' texts, and slot [i]'s own
   attribute values onward) move by the length difference, and the
   structure, the derived spine and mask, and the id index are shared. *)
let set_text t i text =
  let s = Option.value text ~default:"" in
  let old = t.text_len.(i) in
  let at = if t.text_off.(i) >= 0 then t.text_off.(i) else content_start t i in
  let delta = String.length s - old in
  let buf = splice_bytes t.buf ~at ~del:old (Bytes.unsafe_of_string s) in
  let text_off =
    Array.mapi (fun j o -> if j > i && o >= 0 then o + delta else o) t.text_off
  in
  text_off.(i) <- (if text = None then -1 else at);
  let text_len = Array.copy t.text_len in
  text_len.(i) <- String.length s;
  let first_row = t.attr_start.(i) and n_rows = n_attrs t in
  let attr_off =
    Array.mapi
      (fun r o -> if r >= first_row && r < n_rows then o + delta else o)
      t.attr_off
  in
  let num_some = Array.copy t.num_some and num_val = Array.copy t.num_val in
  (match Option.bind text Tree.number_of_text with
  | Some f ->
      num_some.(i) <- true;
      num_val.(i) <- f
  | None ->
      num_some.(i) <- false;
      num_val.(i) <- 0.);
  { t with text_off; text_len; attr_off; buf; num_some; num_val }

(* Slots [i, i + s) go: later slots move down by [s], and the bytes and
   attribute rows of the subtree are cut out.  The subtree holds no
   virtual slot, so every ancestor keeps its spine bit; their sizes
   shrink and their masks are recomputed from their children. *)
let delete t i =
  let s = t.subtree_size.(i) in
  let e = i + s and n = t.n - s in
  let src j = if j < i then j else j + s in
  let col a = Array.init n (fun j -> a.(src j)) in
  let slot v = if v >= e then v - s else v in
  let slots a = Array.init n (fun j -> slot a.(src j)) in
  let first_row = t.attr_start.(i) and n_rows = n_attrs t in
  let rows = (if e < t.n then t.attr_start.(e) else n_rows) - first_row in
  let at = content_start t i in
  let bytes = content_start t e - at in
  let parent = slots t.parent
  and first_child = slots t.first_child
  and next_sibling = slots t.next_sibling
  and subtree_size = col t.subtree_size
  and tag = col t.tag
  and mask = col t.mask in
  let p = t.parent.(i) and next = slot t.next_sibling.(i) in
  if p < 0 || p >= i then raise Corrupt;
  if first_child.(p) = i then first_child.(p) <- next
  else next_sibling.(sibling_before ~first_child ~next_sibling p i) <- next;
  subtree_size.(p) <- subtree_size.(p) - s;
  up parent p (fun a -> subtree_size.(a) <- subtree_size.(a) - s);
  mask.(p) <- element_mask ~mask ~subtree_size ~tag p;
  up parent p (fun a -> mask.(a) <- element_mask ~mask ~subtree_size ~tag a);
  let n_rows' = n_rows - rows in
  let row_col shift a =
    Array.init (max n_rows' 1) (fun r ->
        if r >= n_rows' then 0
        else if r < first_row then a.(r)
        else a.(r + rows) - shift)
  in
  {
    t with
    n;
    ids = col t.ids;
    parent;
    first_child;
    next_sibling;
    subtree_size;
    tag;
    vfid = col t.vfid;
    text_off =
      Array.init n (fun j ->
          let o = t.text_off.(src j) in
          if j >= i && o >= 0 then o - bytes else o);
    text_len = col t.text_len;
    attr_start =
      Array.init n (fun j ->
          let a = t.attr_start.(src j) in
          if j >= i then a - rows else a);
    attr_count = col t.attr_count;
    attr_key = row_col 0 t.attr_key;
    attr_off = row_col bytes t.attr_off;
    attr_len = row_col 0 t.attr_len;
    buf = splice_bytes t.buf ~at ~del:bytes Bytes.empty;
    num_some = col t.num_some;
    num_val = col t.num_val;
    spine = col t.spine;
    mask;
    levels = levels_of ~n ~parent;
    by_id = Atomic.make None;
    by_id_lock = Mutex.create ();
  }

(* [u]'s slots become the last child subtree of slot [p]: they land at
   [q], the end of [p]'s subtree, with their bytes and attribute rows
   at the matching place in [t]'s buffer and rows, and every later slot
   moves up by [u]'s length.  [u] holds no virtual slot, so spine bits
   stay; [p] and its ancestors grow and OR in [u]'s mask.  Codes are
   renamed into [t]'s intern table when [u] was built over another. *)
let insert t p u =
  let m = u.n in
  let q = p + t.subtree_size.(p) and n = t.n + m in
  let code =
    if u.intern == t.intern then Fun.id
    else fun c -> Intern.intern t.intern (Intern.name u.intern c)
  in
  let utag = Array.map code u.tag in
  let umask =
    if u.intern == t.intern then u.mask
    else mask_column ~n:m ~subtree_size:u.subtree_size ~tag:utag ~vfid:u.vfid
  in
  let n_rows = n_attrs t and u_rows = n_attrs u in
  let first_row = if q < t.n then t.attr_start.(q) else n_rows in
  let at = content_start t q and bytes = Bytes.length u.buf in
  (* result slot [j]: [t]'s slot [j] before [q], [u]'s slot [j - q],
     then [t]'s slot [j - m] *)
  let pick old fresh =
    Array.init n (fun j ->
        if j < q then old j else if j < q + m then fresh (j - q) else old (j - m))
  in
  let col a b = pick (Array.get a) (Array.get b) in
  let slot v = if v >= q then v + m else v in
  let uslot v = if v >= 0 then v + q else v in
  let parent =
    pick
      (fun k -> slot t.parent.(k))
      (fun k -> if k = 0 then p else uslot u.parent.(k))
  and first_child =
    pick (fun k -> slot t.first_child.(k)) (fun k -> uslot u.first_child.(k))
  and next_sibling =
    pick
      (fun k -> slot t.next_sibling.(k))
      (fun k -> if k = 0 then -1 else uslot u.next_sibling.(k))
  and subtree_size = col t.subtree_size u.subtree_size
  and mask = col t.mask umask in
  if first_child.(p) < 0 then first_child.(p) <- q
  else next_sibling.(sibling_before ~first_child ~next_sibling p (-1)) <- q;
  let grow a =
    subtree_size.(a) <- subtree_size.(a) + m;
    mask.(a) <- mask.(a) lor umask.(0)
  in
  grow p;
  up parent p grow;
  let n_rows' = n_rows + u_rows in
  let row_col old fresh =
    Array.init (max n_rows' 1) (fun r ->
        if r >= n_rows' then 0
        else if r < first_row then old r
        else if r < first_row + u_rows then fresh (r - first_row)
        else old (r - u_rows))
  in
  let shifted a j = if j >= q && a.(j) >= 0 then a.(j) + bytes else a.(j) in
  {
    t with
    n;
    ids = col t.ids u.ids;
    parent;
    first_child;
    next_sibling;
    subtree_size;
    tag = col t.tag utag;
    vfid = col t.vfid u.vfid;
    text_off =
      pick (shifted t.text_off) (fun k ->
          let o = u.text_off.(k) in
          if o >= 0 then o + at else o);
    text_len = col t.text_len u.text_len;
    attr_start =
      pick
        (fun k -> if k >= q then t.attr_start.(k) + u_rows else t.attr_start.(k))
        (fun k -> u.attr_start.(k) + first_row);
    attr_count = col t.attr_count u.attr_count;
    attr_key = row_col (Array.get t.attr_key) (fun r -> code u.attr_key.(r));
    attr_off =
      row_col
        (fun r -> if r >= first_row then t.attr_off.(r) + bytes else t.attr_off.(r))
        (fun r -> u.attr_off.(r) + at);
    attr_len = row_col (Array.get t.attr_len) (Array.get u.attr_len);
    buf = splice_bytes t.buf ~at ~del:0 u.buf;
    num_some = col t.num_some u.num_some;
    num_val = col t.num_val u.num_val;
    spine = col t.spine u.spine;
    mask;
    levels = levels_of ~n ~parent;
    by_id = Atomic.make None;
    by_id_lock = Mutex.create ();
  }

(* The element slot holding node [id]. *)
let element_slot t id =
  match find_index t id with
  | Some i when not (is_virtual t i) -> Some i
  | _ -> None

(* Total on any image [decode] accepts: an edit that names no element
   slot, would cut a virtual slot out, or meets a malformed structure
   is refused, and every result passes [decode]'s checks. *)
let edit t e =
  let edited () =
    match e with
    | Set_text (id, text) ->
        Option.map (fun i -> set_text t i text) (element_slot t id)
    | Delete id -> (
        match element_slot t id with
        | Some i when i > 0 && not t.spine.(i) -> Some (delete t i)
        | _ -> None)
    | Insert (id, u) -> (
        let rec fresh k =
          k = u.n || (Option.is_none (find_index t u.ids.(k)) && fresh (k + 1))
        in
        match element_slot t id with
        | Some p when u.subtree_size.(0) = u.n && (not u.spine.(0)) && fresh 0
          ->
            Some (insert t p u)
        | _ -> None)
  in
  let checked r =
    check r;
    r
  in
  match Option.map checked (edited ()) with
  | r -> r
  | exception (Corrupt | Invalid_argument _) -> None

(* ------------------------------------------------------------------ *)
(* wire image                                                         *)
(* ------------------------------------------------------------------ *)

(* The serialized image is columns, not nodes: a fixed header, an
   intern dictionary (only the codes this fragment uses), the int
   columns as little-endian u32 rows, and one blit of [buf].  Codes
   are remapped through the receiver's intern on decode, so two stores
   never need to agree on code assignment.  [num_*] is derived state
   and recomputed from the buffer ({!num_columns}); so are [spine]
   ({!spine_column}) and [mask] ({!mask_column}), which are never
   shipped. *)

let add_i32 b v = Buffer.add_int32_le b (Int32.of_int v)

let add_col b arr n =
  for i = 0 to n - 1 do
    add_i32 b arr.(i)
  done

(* The dictionary: every code that appears in the tag or attr_key
   columns, ascending. *)
let used_codes t ~n_attrs =
  let used = Hashtbl.create 64 in
  Array.iter (fun c -> Hashtbl.replace used c ()) t.tag;
  for j = 0 to n_attrs - 1 do
    Hashtbl.replace used t.attr_key.(j) ()
  done;
  List.sort compare (Hashtbl.fold (fun c () l -> c :: l) used [])

(* Header, dictionary entries, 11 node columns, 3 attribute columns and
   the byte buffer, as [encode] writes them. *)
let encoded_bytes t =
  let n_attrs = n_attrs t in
  List.fold_left
    (fun acc c -> acc + 8 + String.length (Intern.name t.intern c))
    (16 + (4 * ((11 * t.n) + (3 * n_attrs))) + Bytes.length t.buf)
    (used_codes t ~n_attrs)

let encode t =
  let b = Buffer.create (64 * t.n) in
  let n_attrs = n_attrs t in
  let codes = used_codes t ~n_attrs in
  add_i32 b t.n;
  add_i32 b n_attrs;
  add_i32 b (List.length codes);
  add_i32 b (Bytes.length t.buf);
  List.iter
    (fun c ->
      let s = Intern.name t.intern c in
      add_i32 b c;
      add_i32 b (String.length s);
      Buffer.add_string b s)
    codes;
  add_col b t.ids t.n;
  add_col b t.parent t.n;
  add_col b t.first_child t.n;
  add_col b t.next_sibling t.n;
  add_col b t.subtree_size t.n;
  add_col b t.tag t.n;
  add_col b t.vfid t.n;
  add_col b t.text_off t.n;
  add_col b t.text_len t.n;
  add_col b t.attr_start t.n;
  add_col b t.attr_count t.n;
  add_col b t.attr_key n_attrs;
  add_col b t.attr_off n_attrs;
  add_col b t.attr_len n_attrs;
  Buffer.add_bytes b t.buf;
  Buffer.contents b

let decode ?(intern = Intern.create ()) s =
  let pos = ref 0 in
  let len = String.length s in
  let get_i32 () =
    if !pos + 4 > len then raise Corrupt;
    let v = Int32.to_int (String.get_int32_le s !pos) in
    pos := !pos + 4;
    v
  in
  let get_col n =
    let a = Array.make (max n 1) 0 in
    for i = 0 to n - 1 do
      a.(i) <- get_i32 ()
    done;
    a
  in
  match
    let n = get_i32 () in
    if n < 1 || n > len then raise Corrupt;
    let n_attrs = get_i32 () in
    if n_attrs < 0 || n_attrs > len then raise Corrupt;
    let n_codes = get_i32 () in
    if n_codes < 0 || n_codes > len then raise Corrupt;
    let buf_len = get_i32 () in
    if buf_len < 0 || buf_len > len then raise Corrupt;
    (* remote code -> local code *)
    let remap = Hashtbl.create (2 * n_codes) in
    for _ = 1 to n_codes do
      let c = get_i32 () in
      let slen = get_i32 () in
      if slen < 0 || !pos + slen > len then raise Corrupt;
      let name = String.sub s !pos slen in
      pos := !pos + slen;
      Hashtbl.replace remap c (Intern.intern intern name)
    done;
    let local c =
      match Hashtbl.find_opt remap c with Some l -> l | None -> raise Corrupt
    in
    let ids = get_col n in
    let parent = get_col n in
    let first_child = get_col n in
    let next_sibling = get_col n in
    let subtree_size = get_col n in
    let tag = Array.map local (get_col n) in
    let vfid = get_col n in
    let text_off = get_col n in
    let text_len = get_col n in
    let attr_start = get_col n in
    let attr_count = get_col n in
    (* [get_col 0] yields a 1-slot dummy array; only real entries go
       through the dictionary (the padding is no code at all). *)
    let attr_key =
      Array.mapi
        (fun j c -> if j < n_attrs then local c else 0)
        (get_col n_attrs)
    in
    let attr_off = get_col n_attrs in
    let attr_len = get_col n_attrs in
    if !pos + buf_len <> len then raise Corrupt;
    let buf = Bytes.of_string (String.sub s !pos buf_len) in
    let r =
      {
        n;
        ids;
        parent;
        first_child;
        next_sibling;
        subtree_size;
        tag;
        vfid;
        text_off;
        text_len;
        attr_start;
        attr_count;
        attr_key;
        attr_off;
        attr_len;
        buf;
        num_some = [||];
        num_val = [||];
        spine = [||];
        mask = [||];
        levels = 0;
        intern;
        by_id = Atomic.make None;
        by_id_lock = Mutex.create ();
      }
    in
    (* The derived columns walk [subtree_size]: checked first. *)
    check r;
    derive r
  with
  | t -> Some t
  | exception Corrupt -> None
  | exception Invalid_argument _ -> None
