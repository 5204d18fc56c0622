(** The engines' stage kernels: the qualifier pass, the selection pass
    and PaX2's combined traversal over flat fragment images
    ({!Pax_xml.Flat}, docs/FLATTREE.md).  PaX2, PaX3, ParBoX, Count,
    Batch, Paging and the site servers all evaluate fragments here.

    The qualifier and selection passes keep {!Qual_pass} and
    {!Sel_pass}'s recurrences and operation counting — only the node
    representation changes: tag tests compare interned int codes,
    text/attribute tests read the shared byte buffer in place,
    traversal follows int vectors.  Off the spine
    ({!Pax_xml.Flat.on_spine}) a qualifier vector is ground and held as
    a bitset, so no formula is built there; every formula the kernels
    do build — on spine slots, in selection vectors, and in every
    result they return — is built in the pointer passes' construction
    order.  Those pointer passes are the kernel-level reference
    (test/test_passes.ml checks parity per fragment, test/test_flat.ml
    the combined pass against the two passes); the engines are checked
    end to end against the centralized evaluator and the set-based
    semantics.

    Nodes are named by slot only: answers and candidates are slot
    indices of the image passed in, and the caller builds what it ships
    from that image ({!Pax_wire.Wire.answer_of_slot}).  The [#document]
    wrapper of an absolute query is slot [-1], the parent of slot [0]:
    only wildcard tests match its tag, it has no text, number or
    attributes, and its node id is [-1].  It is never shipped as an
    answer. *)

module Formula = Pax_bool.Formula

(** {1 Plans} *)

(** A compiled query lowered against one store's intern table: tag
    tests and attribute-key names as int codes.  Build once per run
    (the table is store-wide, so one plan serves every fragment). *)
type plan

(** [make_plan compiled intern] looks codes up without inserting; a
    label the store never interned matches no node. *)
val make_plan : Pax_xpath.Compile.t -> Pax_xml.Intern.t -> plan

(** [node_id flat i] — slot [i]'s document node id; [-1] for the
    wrapper slot [-1]. *)
val node_id : Pax_xml.Flat.t -> int -> int

(** {1 Qualifier pass} — {!Qual_pass.run} over a flat image. *)

type qual = {
  q_flat : Pax_xml.Flat.t;
  q_vecs : Formula.t array array;  (** slot → qualifier vector *)
  q_wrap : Formula.t array option;
      (** the wrapper's vector, when the eval root was wrapped *)
  q_root_vec : Formula.t array;  (** eval root's vector (wrapper if any) *)
  q_ops : int;
}

(** [qual_run plan flat ~is_root] — bottom-up qualifier vectors for
    every slot; [is_root] marks fragment 0, whose root an absolute
    query wraps in a [#document] node. *)
val qual_run : plan -> Pax_xml.Flat.t -> is_root:bool -> qual

(** [qual_resolve q lookup] substitutes boundary variables in every
    stored vector in place (wrapper included), returning the operation
    count — same as {!Qual_pass.resolve}. *)
val qual_resolve : qual -> (Pax_bool.Var.t -> Formula.t option) -> int

(** {1 Selection pass} — {!Sel_pass.run} over a flat image. *)

(** One fragment's selection-pass result, as {!Sel_pass.outcome} with
    slots for nodes. *)
type sel_outcome = {
  answers : int list;
      (** certain slots, the wrapper included as {!Sel_pass} includes
          the document node; {!Pax_wire.Wire.answers_of_slots} drops it *)
  candidates : (int * Formula.t) list;
  contexts : (int * Formula.t array) list;  (** sub-fragment fid → ctx *)
  ops : int;
}

(** [sel_run plan flat ~init ~is_root ~qual] — the top-down pass, with
    qualifier satisfaction read from a resolved [qual] (or trivially
    when [None]: no qualifier entries).  [is_root] plays the role of
    [root_is_context] and selects [#document] wrapping for absolute
    queries. *)
val sel_run :
  plan ->
  Pax_xml.Flat.t ->
  init:Formula.t array ->
  is_root:bool ->
  qual:qual option ->
  sel_outcome

(** {1 Combined pass} — PaX2's single interleaved traversal. *)

(** One fragment's combined-pass result. *)
type combined_outcome = {
  root_qvec : Formula.t array;  (** eval root's qualifier vector *)
  answers : int list;  (** slots certain already; never the wrapper *)
  candidates : (int * Formula.t) list;
  contexts : (int * Formula.t array) list;  (** per sub-fragment *)
  ops : int;
}

(** [combined_run plan flat ~init ~is_root] — pre-order selection with
    placeholder qualifiers interleaved with post-order qualifier
    vectors, local placeholders resolved before returning: what is left
    symbolic mentions boundary variables only.  [is_root] plays the role
    of [root_is_context] and selects [#document] wrapping for absolute
    queries.

    Demand-driven: the pass walks an off-spine slot's children only
    while one of them owes a qualifier entry that something reads (a
    placeholder, the parent's vector, the root vector), or while a
    selection state they read is live and every label move after it
    is in the slot's {!Pax_xml.Flat.tag_mask}.  Spine slots and the
    evaluation root compute every entry, so [root_qvec], [contexts],
    answers and candidates are exactly the two passes' (test/test_flat.ml).
    [ops] charges the work done: [n_sel] per slot whose selection step
    ran, [n_qual * (1 + children walked)] per slot whose vector was
    computed, one per pending entry — never more than a walk of every
    slot charges, so the auditor's bound still holds (docs/FLATTREE.md). *)
val combined_run :
  plan ->
  Pax_xml.Flat.t ->
  init:Formula.t array ->
  is_root:bool ->
  combined_outcome

(** {1 Candidate resolution} *)

(** [resolve_candidates cands lookup] substitutes [lookup] into every
    candidate's formula and returns the answer slots and the operation
    count, one per candidate.  A wrapper candidate is resolved, charged
    and dropped.  Raises [Invalid_argument] if a formula stays
    symbolic: [lookup] must cover every boundary variable. *)
val resolve_candidates :
  (int * Formula.t) list ->
  (Pax_bool.Var.t -> Formula.t option) ->
  int list * int
