(** Tree fragmentation (paper §2.1).

    A document is decomposed into disjoint subtrees — {e fragments} —
    each of which may live on a different site.  Inside a fragment, a
    missing sub-fragment is represented by a {e virtual node} labelled
    with the sub-fragment's id.  The fragmentation induces the
    {e fragment tree} [FT]; the fragment holding the document root is
    the {e root fragment} (always id 0 here).  No constraint is placed
    on nesting, sizes or placement — the paper's fully generic setting.

    Every fragment-tree edge [(Fj, Fk)] carries its {e XPath annotation}
    (§5): the tag path from just below [root(Fj)] down to and including
    [root(Fk)] — e.g. [client/broker] when the root of [Fk] is a
    [broker] grandchild of [root(Fj)] via a [client] node.  Annotations
    are computed at fragmentation time; algorithms may ignore them (the
    "NA" configurations of §6). *)

type fragment = {
  fid : int;
  root : Pax_xml.Tree.node;  (** subtree with [Virtual] placeholders *)
  parent : int option;  (** [None] only for the root fragment *)
  ann : string list;
      (** tags from below the parent fragment's root to this root,
          inclusive; [[]] for the root fragment *)
}

(** Per-fragment generation-stamped {!Pax_xml.Flat} images; opaque —
    read through {!flat}, {!version} and {!last_edit}. *)
type flat_cache

type t = {
  fragments : fragment array;  (** indexed by fid; parents precede children *)
  children : int list array;  (** fragment-tree adjacency *)
  doc_node_count : int;
  generations : int array;
      (** per-fragment update generation, bumped by {!Update.apply} on
          every successful mutation of the fragment — cache keys derived
          from a fragment's content must embed its generation so an
          update invalidates exactly the touched fragment's entries
          (docs/SERVING.md) *)
  intern : Pax_xml.Intern.t;
      (** the store-wide tag/attribute-key symbol table shared by all
          flat images (docs/FLATTREE.md) *)
  flat_images : flat_cache;
}

(** {1 Construction} *)

(** [make ~fragments ~children ~doc_node_count] assembles a store,
    creating its intern table and prewarming every fragment's flat
    image.  {!fragmentize} and {!Store.load} go through this. *)
val make :
  fragments:fragment array ->
  children:int list array ->
  doc_node_count:int ->
  t

(** [fragmentize doc ~cuts] splits [doc] at the nodes whose ids are in
    [cuts] (each becomes the root of its own fragment).  The document
    root must not be a cut; duplicate and unknown ids are ignored.  The
    input document is not modified. *)
val fragmentize : Pax_xml.Tree.doc -> cuts:int list -> t

(** A whole document as a single (root) fragment. *)
val trivial : Pax_xml.Tree.doc -> t

(** {1 Cut strategies} *)

(** [cuts_by_size doc ~budget] chooses cut points so that every fragment
    has at most roughly [budget] nodes (a post-order greedy sweep). *)
val cuts_by_size : Pax_xml.Tree.doc -> budget:int -> int list

(** [cuts_by_tag doc ~tag] cuts at every node labelled [tag] (except the
    root). *)
val cuts_by_tag : Pax_xml.Tree.doc -> tag:string -> int list

(** {1 Access} *)

val fragment : t -> int -> fragment
val n_fragments : t -> int
val root_fragment : t -> fragment

(** Current update generation of a fragment (0 at construction). *)
val generation : t -> int -> int

(** Advance a fragment's generation; {!Update.apply} calls this on every
    successful operation, so callers normally never need to. *)
val bump_generation : t -> int -> unit

(** [commit_edit t fid edit image] — what {!Update.apply} does after
    changing fragment [fid]'s tree: bump its generation, make [image]
    (the current image patched with [edit]) the fragment's image, and
    record [edit] as its last edit, with the version of the image it
    was applied to. *)
val commit_edit : t -> int -> Pax_xml.Flat.edit -> Pax_xml.Flat.t -> unit

(** [merge_generation t fid gen] raises the fragment's generation to
    [gen] if it is behind (monotone max; a no-op otherwise).  How a
    coordinator learns about {e another} coordinator's updates: the
    coherence feed (docs/SERVING.md) delivers remote generation
    counters, and merging them here makes the stage cache's generation
    check treat the affected entries as stale. *)
val merge_generation : t -> int -> int -> unit

(** The store's shared symbol table. *)
val intern : t -> Pax_xml.Intern.t

(** [flat t fid] — the fragment's flat image at its current
    generation.  An update leaves the patched image here
    ({!commit_edit}); a generation bumped without an edit rebuilds it
    from the tree on first use.  Safe from any domain (the stamped
    image is published atomically). *)
val flat : t -> int -> Pax_xml.Flat.t

(** The identity of an image's content, [(generation, writer)]: the
    generation of the update that produced it and the store that made
    that update, [(0, 0)] for the image built at construction.  Every
    store draws its own random writer, so two stores never give one
    version to different content.  A site server holds the version of
    each image it was sent (docs/SERVING.md). *)
type version = int * int

val version : t -> int -> version

(** The update that produced fragment [fid]'s current image, with the
    version of the image it was applied to; [None] for the image built
    at construction. *)
val last_edit : t -> int -> (version * Pax_xml.Flat.edit) option

(** [spine t fid] is the tag path from the document's root element
    (inclusive) down to [root(fid)] (inclusive) — the concatenation of
    the annotations along the fragment tree.  For the root fragment this
    is just the root tag. *)
val spine : t -> int -> string list

(** Fragment ids in bottom-up (children before parents) order. *)
val bottom_up : t -> int list

(** Fragment ids in top-down (parents before children) order. *)
val top_down : t -> int list

(** {1 Reassembly and checking} *)

(** [reassemble t] splices all fragments back into a complete tree
    (fresh copy, original node ids). *)
val reassemble : t -> Pax_xml.Tree.node

(** [check t] verifies the structural invariants: virtual nodes match
    the fragment-tree edges, annotations describe real paths, fragments
    are disjoint and cover the document.  Returns an error description
    on failure. *)
val check : t -> (unit, string) result

(** {1 Measures} *)

(** Nodes per fragment (virtual placeholders excluded). *)
val fragment_node_count : fragment -> int

(** Serialized bytes per fragment (the paper's "fragment size"). *)
val fragment_byte_size : fragment -> int

val pp : Format.formatter -> t -> unit

(** Graphviz rendering of the (annotated) fragment tree — the picture of
    the paper's Fig. 2/Fig. 6. *)
val to_dot : t -> string
