(** The XML tree model.

    Nodes are elements carrying a tag, optional character data (the
    concatenation of text directly under the element), attributes, and
    children in document order.  A node is identified by an integer id
    that is unique within its document; fragmentation preserves ids, so a
    query answer can be compared across evaluation strategies as a set of
    ids.

    A node whose [kind] is [Virtual fid] stands for a missing
    sub-fragment: its subtree lives in fragment [fid] on some other site
    (paper §2.1).  Complete documents contain no virtual nodes. *)

type kind = Element | Virtual of int

type node = {
  id : int;
  tag : string;
  mutable text : string option;
  attrs : (string * string) list;
  mutable children : node list;
  kind : kind;
}

type doc = { root : node; node_count : int }

(** {1 Construction} *)

(** A builder hands out fresh node ids. *)
type builder

val builder : unit -> builder

(** [builder_from n] hands out ids starting at [n]; used to keep the ids
    of freshly created virtual nodes disjoint from document ids. *)
val builder_from : int -> builder

(** [elem b tag ?text ?attrs children] creates an element node. *)
val elem :
  builder -> ?text:string -> ?attrs:(string * string) list -> string ->
  node list -> node

(** [leaf b tag text] is an element with character data and no children. *)
val leaf : builder -> string -> string -> node

(** [virtual_node b fid] creates a placeholder for fragment [fid]. *)
val virtual_node : builder -> int -> node

(** [doc_of_root root] packages a tree, computing its node count. *)
val doc_of_root : node -> doc

(** Number of ids the builder has handed out so far. *)
val allocated : builder -> int

(** {1 Predicates and access} *)

val is_virtual : node -> bool

(** [virtual_fragment n] is [Some fid] when [n] is a virtual node. *)
val virtual_fragment : node -> int option

(** Character data of [n], or [""]. *)
val text_of : node -> string

(** [number_of_text s] — the numeric value of character data [s]
    ([val()] in the paper's query class); [None] when non-numeric.  The
    one parser behind {!float_of} and {!Flat}'s number column. *)
val number_of_text : string -> float option

(** [float_of n] is {!number_of_text} of [n]'s character data; [None]
    when absent or non-numeric. *)
val float_of : node -> float option

val attr : node -> string -> string option

(** {1 Traversal} *)

(** Pre-order iteration (document order), including virtual nodes. *)
val iter : (node -> unit) -> node -> unit

val fold : ('a -> node -> 'a) -> 'a -> node -> 'a

(** Post-order iteration: children before parents. *)
val iter_post : (node -> unit) -> node -> unit

(** All nodes satisfying [p], in document order. *)
val select : (node -> bool) -> node -> node list

(** {1 Measures} *)

(** Number of nodes in the subtree (virtual nodes count as one). *)
val size : node -> int

val depth : node -> int

(** Estimated serialized size in bytes, the unit of the paper's network
    traffic and "fragment size (MB)" axes. *)
val byte_size : node -> int

(** Estimated bytes for shipping a single answer node (id, tag, text) —
    the per-element cost of the [O(|ans|)] term. *)
val answer_byte_size : node -> int

(** {1 Structural comparison} *)

(** Equality up to node ids (tags, text, attrs, structure, virtual ids). *)
val equal_structure : node -> node -> bool

(** Deep copy with identical ids, fresh mutable spine. *)
val copy : node -> node

val pp : Format.formatter -> node -> unit
