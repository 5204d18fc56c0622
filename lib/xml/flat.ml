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

   Updates never mutate an image: {!Pax_frag.Fragment} rebuilds the
   fragment's image under a generation bump (the same invalidation
   that covers the stage cache). *)

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
  intern : Intern.t;
  by_id : (int, int) Hashtbl.t option Atomic.t;  (* lazy id -> slot *)
  by_id_lock : Mutex.t;
}

let length t = t.n
let intern t = t.intern
let node_id t i = t.ids.(i)
let parent t i = t.parent.(i)
let first_child t i = t.first_child.(i)
let next_sibling t i = t.next_sibling.(i)
let subtree_size t i = t.subtree_size.(i)
let tag_code t i = t.tag.(i)
let tag_name t i = Intern.name t.intern t.tag.(i)
let virtual_fid t i = t.vfid.(i)
let is_virtual t i = t.vfid.(i) >= 0
let on_spine t i = t.spine.(i)
let tag_mask t i = t.mask.(i)

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
let mask_column ~n ~subtree_size ~tag ~vfid =
  let mask = Array.make n 0 in
  for i = n - 1 downto 0 do
    if vfid.(i) >= 0 then mask.(i) <- -1
    else begin
      let m = ref (1 lsl (tag.(i) mod 63)) in
      let stop = i + subtree_size.(i) in
      let c = ref (i + 1) in
      while !c < stop do
        m := !m lor mask.(!c);
        c := !c + subtree_size.(!c)
      done;
      mask.(i) <- !m
    end
  done;
  mask

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
  let slot = ref 0 and attr_ix = ref 0 in
  let rec go p (nd : Tree.node) =
    let i = !slot in
    incr slot;
    ids.(i) <- nd.Tree.id;
    parent.(i) <- p;
    tag.(i) <- Intern.intern intern nd.Tree.tag;
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
        attr_key.(j) <- Intern.intern intern k;
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
  let buf = Buffer.to_bytes bbuf in
  let num_some, num_val = num_columns ~n ~text_off ~text_len buf in
  let spine = spine_column ~n ~subtree_size ~vfid in
  let mask = mask_column ~n ~subtree_size ~tag ~vfid in
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
    num_some;
    num_val;
    spine;
    mask;
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

let encode t =
  let b = Buffer.create (64 * t.n) in
  (* dictionary: every code that appears in tag or attr_key columns *)
  let used = Hashtbl.create 64 in
  Array.iter (fun c -> Hashtbl.replace used c ()) t.tag;
  for j = 0 to t.attr_start.(t.n - 1) + t.attr_count.(t.n - 1) - 1 do
    Hashtbl.replace used t.attr_key.(j) ()
  done;
  let codes = List.sort compare (Hashtbl.fold (fun c () l -> c :: l) used []) in
  add_i32 b t.n;
  let n_attrs = t.attr_start.(t.n - 1) + t.attr_count.(t.n - 1) in
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

exception Corrupt

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
    (* structural sanity: every slot reference in range, offsets in
       the buffer, so accessors cannot escape their arrays *)
    let slot_ok v = v >= -1 && v < n in
    Array.iter (fun v -> if not (slot_ok v) then raise Corrupt) parent;
    Array.iter (fun v -> if not (slot_ok v) then raise Corrupt) first_child;
    Array.iter (fun v -> if not (slot_ok v) then raise Corrupt) next_sibling;
    for i = 0 to n - 1 do
      if subtree_size.(i) < 1 || i + subtree_size.(i) > n then raise Corrupt;
      if text_off.(i) < -1 || text_len.(i) < 0 then raise Corrupt;
      if text_off.(i) >= 0 && text_off.(i) + text_len.(i) > buf_len then
        raise Corrupt;
      if
        attr_start.(i) < 0 || attr_count.(i) < 0
        || attr_start.(i) + attr_count.(i) > n_attrs
      then raise Corrupt
    done;
    for j = 0 to n_attrs - 1 do
      if attr_off.(j) < 0 || attr_len.(j) < 0 then raise Corrupt;
      if attr_off.(j) + attr_len.(j) > buf_len then raise Corrupt
    done;
    let num_some, num_val = num_columns ~n ~text_off ~text_len buf in
    let spine = spine_column ~n ~subtree_size ~vfid in
    let mask = mask_column ~n ~subtree_size ~tag ~vfid in
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
      num_some;
      num_val;
      spine;
      mask;
      intern;
      by_id = Atomic.make None;
      by_id_lock = Mutex.create ();
    }
  with
  | t -> Some t
  | exception Corrupt -> None
  | exception Invalid_argument _ -> None
