(** Updates on a fragmented tree — the paper's first future-work topic
    (§8): "the application of partial evaluation to processing XML
    updates … in distributed systems".

    Updates are routed to the single site holding the target node (one
    visit, no data movement of other fragments); the fragment tree's
    structural invariants are maintained, so queries keep working
    unchanged afterwards.

    Three primitive operations:
    - [Insert (parent_id, subtree)] — append a new subtree under an
      existing node (new node ids must be fresh, use
      {!Pax_xml.Tree.builder_from});
    - [Delete node_id] — remove a subtree; refused if the subtree spans
      other fragments (contains virtual nodes), if the node is the
      document root, or a fragment root (those would change the
      fragmentation itself);
    - [Set_text (node_id, text)] — replace the character data.

    All operations mutate the fragment store in place and return the
    fragment id that was touched.  The fragment's flat image is patched
    copy-on-write ({!Pax_xml.Flat.edit}), not rebuilt, and the edit is
    recorded for the site holding the fragment ({!Fragment.last_edit}). *)

type op =
  | Insert of int * Pax_xml.Tree.node
  | Delete of int
  | Set_text of int * string

type error =
  | Node_not_found of int
  | Would_detach_fragments of int  (** subtree spans other fragments *)
  | Is_fragment_root of int
  | Duplicate_ids of int  (** inserted subtree reuses an existing id *)

val error_to_string : error -> string

(** [apply ft op] performs the update; on success returns the id of the
    fragment that was modified and bumps that fragment's
    {!Fragment.generation}, invalidating any cache entries keyed by the
    old generation (see {!Fragment.t} and docs/SERVING.md). *)
val apply : Fragment.t -> op -> (int, error) result

(** [locate ft node_id] — which fragment holds a node. *)
val locate : Fragment.t -> int -> (int * Pax_xml.Tree.node) option

(** [node_count ft] — current number of (non-virtual) nodes, recomputed
    after updates. *)
val node_count : Fragment.t -> int
