(** The flat, succinct fragment image: one fragment's {!Tree.node}
    tree re-encoded as preorder-indexed structure-of-arrays — int
    vectors for structure ([parent], [first_child], [next_sibling],
    [subtree_size]), interned tags and attribute keys ({!Intern}),
    character data and attribute values as offsets into one shared
    byte buffer, and virtual-node slots carrying their fragment id.

    Built from the pointer tree, or from another image by a
    copy-on-write {!edit}, and never mutated, therefore shareable
    across OCaml 5 domains without copying; stage
    passes traverse it as tight loops over int reads.  An image holds
    columns only, no pointer node: a site evaluates, ships answers
    from, and decodes exactly these columns.  Layout, invariants and
    sharing rules: docs/FLATTREE.md. *)

type t

(** {1 Construction} *)

(** [of_tree ?intern root] builds the image, interning every tag and
    attribute key into [intern] (fresh by default; a fragment store
    passes its shared table). *)
val of_tree : ?intern:Intern.t -> Tree.node -> t

(** {1 Structure}

    Slots are preorder positions: slot [0] is the root, a node's
    subtree occupies slots [i .. i + subtree_size i - 1]. *)

val length : t -> int

val intern : t -> Intern.t

val node_id : t -> int -> int
val parent : t -> int -> int  (** [-1] at the root *)

val subtree_size : t -> int -> int
val tag_name : t -> int -> string
val is_virtual : t -> int -> bool

(** {1 Columns}

    The structural columns themselves, indexed by slot, for the stage
    kernels' inner loops ([Flat_pass]).  The build compiles with
    [-opaque] (dune's dev profile), so a call to an accessor from
    another library is never inlined; a kernel that reads these arrays
    does an array read where it would make a call.  The arrays are the
    image's own, not copies: a reader must never write to them. *)

type columns = private {
  ids : int array;  (** {!node_id} *)
  first_child : int array;  (** [-1] for a leaf *)
  next_sibling : int array;  (** [-1] for a last child *)
  tag : int array;  (** the interned tag code ({!tag_name}) *)
  vfid : int array;  (** the fragment id, [-1] for elements *)
  spine : bool array;
      (** [spine.(i)] — does slot [i]'s subtree (itself included) hold
          a virtual slot?  Off this spine every qualifier vector is
          ground, so the stage kernels evaluate such slots on bits
          without building a formula.  Derived from [subtree_size] and
          the virtual slots when the image is built or decoded; not
          part of the wire image. *)
  mask : int array;
      (** [mask.(i)] — the tags in slot [i]'s subtree (itself
          included) as one word: bit [code mod 63] for each tag code,
          all ones at a virtual slot, whose subtree lives in another
          fragment.  A superset test: a label whose bit is clear occurs
          nowhere below [i], while a set bit may come from another code
          of the same residue.  PaX2's combined pass
          ([Flat_pass.combined_run]) skips the subtrees where the rest
          of a selection path cannot match.  Derived like [spine]; not
          part of the wire image. *)
  levels : int;
      (** the depths the image spans: 1 + the largest slot depth, the
          root at depth 0.  A walk of the image from its root never
          goes deeper, so a kernel sizes its per-depth scratch once. *)
}

val columns : t -> columns

(** {1 Content}

    The comparison accessors are allocation-free: they compare against
    the shared byte buffer in place. *)

(** [text_equals t i s] — does slot [i]'s character data (missing text
    reads as [""], matching the qualifier view) equal [s]? *)
val text_equals : t -> int -> string -> bool

val text : t -> int -> string option

(** Numeric value of the character data, exactly {!Tree.float_of}
    (precomputed by {!Tree.number_of_text} at build and decode time). *)
val num : t -> int -> float option

(** [attr_test t i ~key ~expected] — slot [i] has an attribute whose
    key has intern code [key] (first occurrence wins, as
    [List.assoc_opt]); with [expected = Some v] its value must equal
    [v].  A [key] of [-1] (never interned) matches nothing. *)
val attr_test : t -> int -> key:int -> expected:string option -> bool

(** Slot [i]'s attributes as (key, value) pairs, in document order. *)
val attrs : t -> int -> (string * string) list

(** {1 Id lookup}

    Backed by a lazily built id→slot table, not a linear scan.
    Thread-safe: the table is built once under a lock and published
    atomically. *)

val find_index : t -> int -> int option

(** {1 Edits}

    An image is never mutated.  An update is applied copy-on-write: the
    result is a new image with exactly the columns {!of_tree} builds
    from the updated tree, over the same intern table, and it shares
    every column the edit leaves alone.  The coordinator patches its
    image with {!edit} ({!Pax_frag.Update.apply}), and a site server
    patches the image it holds with the same function when the edit is
    pushed to it (docs/FLATTREE.md). *)

(** One update, in the image's terms: nodes are named by document id.
    [Set_text (id, text)] replaces node [id]'s character data;
    [Insert (id, sub)] appends [sub], the image of a subtree holding no
    virtual node, as node [id]'s last child; [Delete id] removes node
    [id]'s subtree, which must hold no virtual node and must not be
    the fragment's root. *)
type edit =
  | Set_text of int * string option
  | Insert of int * t
  | Delete of int

(** [edit t e] — the edited image, or [None] when [e] does not apply:
    it names no element slot, would cut out a virtual slot or the
    root, inserts a subtree holding a virtual slot or an id [t]
    already holds, or meets a malformed image.  Total on every image
    {!decode} accepts.  Tags of an inserted image built over another
    intern table are renamed into [t]'s.  The id index is shared when
    no slot moves ([Set_text]). *)
val edit : t -> edit -> t option

(** {1 Wire image}

    Columns, not nodes: a fixed header, the intern dictionary slice
    this fragment uses, the int columns as little-endian [u32] rows
    and one blit of the byte buffer.  {!decode} remaps codes through
    the receiver's intern table and validates every slot reference and
    buffer offset, and that the structure columns describe one tree in
    preorder; [None] on corrupt input. *)

val encode : t -> string

(** [String.length (encode t)], computed from the columns without
    encoding. *)
val encoded_bytes : t -> int

val decode : ?intern:Intern.t -> string -> t option
