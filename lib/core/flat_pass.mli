(** The stage kernels: the qualifier pass, the selection pass and
    PaX2's combined traversal over flat images ({!Pax_xml.Flat},
    docs/FLATTREE.md).  Every evaluator runs them: PaX2, PaX3, ParBoX,
    Count, Batch and the site servers on each fragment, {!Paging} on
    each fragment it swaps in, and {!Centralized} on one image of the
    whole document.

    The qualifier and selection passes are the paper's bottom-up
    ({!feval_entries} per node) and top-down recurrences, with its
    operation counting, over flat slots: tag tests compare interned
    int codes, text/attribute tests read the shared byte buffer in
    place, traversal follows int vectors.  Off the spine ([spine] in
    {!Pax_xml.Flat.columns}) a qualifier vector is ground and held as a
    bitset, so no formula is built there; every formula the kernels do
    build — on spine slots, in selection vectors, and in every result
    they return — is built in the order a recursive walk of the pointer
    tree builds it.  That walk, test/helpers/pointer.ml, is the
    kernel-level reference (test/test_passes.ml checks parity per
    fragment, test/test_flat.ml the combined pass against the two
    passes); the engines are checked end to end against it and against
    the set-based semantics.

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

(** {1 The qualifier recurrence}

    The paper's §3.1 recurrence over one node, written once: the passes
    below run it on flat slots, {!Stream_eval} on each element it
    closes, and ParBoX's root check on slot 0 of the root fragment. *)

(** A filter lowered against the plan's intern table. *)
type fqual =
  | FSat_empty  (** a path with no items: trivially true *)
  | FSat of int  (** a path's satisfaction: qualifier entry [e] *)
  | FText_eq of string
  | FVal_cmp of Pax_xpath.Ast.cmp * float
  | FAttr_test of int * string option  (** attribute key code, value *)
  | FNot of fqual
  | FAnd of fqual * fqual
  | FOr of fqual * fqual

(** A lowered path item.  A tag test is an int: [-2] matches any tag,
    [-1] (a label the table never interned) matches none, a code
    matches exactly that tag. *)
type fitem = FMove of int | FDos | FFilter of fqual

(** The selection path's lowered items. *)
val sel_items : plan -> fitem array

(** [tag_matches code ~tagc] — does the tag test [code] pass on a node
    whose tag code is [tagc]? *)
val tag_matches : int -> tagc:int -> bool

(** Where the recurrence reads a node's three leaf tests.  Built once
    per walk, never per node. *)
type 'slot source = {
  text_equals : 'slot -> string -> bool;
  num : 'slot -> float option;
  attr_test : 'slot -> key:int -> expected:string option -> bool;
}

(** A flat image's slots, the wrapper slot [-1] included. *)
val image_source : Pax_xml.Flat.t -> int source

(** [fsat src i entry q] — satisfaction of filter [q] at node [i],
    where [entry i e] reads qualifier entry [e] of [i]'s vector.
    Ground when every entry read is. *)
val fsat :
  'slot source -> 'slot -> ('slot -> int -> Formula.t) -> fqual -> Formula.t

(** [feval_entries plan src i ~tagc kids ko] — element [i]'s qualifier
    vector, where [i]'s tag code is [tagc] and [kids.(ko + e)] is the
    disjunction of entry [e] over [i]'s children. *)
val feval_entries :
  plan -> 'slot source -> 'slot -> tagc:int -> Formula.t array -> int ->
  Formula.t array

(** The all-variables vector of a virtual node for fragment [fid]:
    entry [e] is [Var.Qual (fid, e)]. *)
val virtual_vec : Pax_xpath.Compile.t -> int -> Formula.t array

(** {1 Qualifier pass} — bottom-up, every slot's vector. *)

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
    count: one per entry of every stored vector.  Used at the start of
    the selection pass, once the coordinator has unified the boundary
    values. *)
val qual_resolve : qual -> (Pax_bool.Var.t -> Formula.t option) -> int

(** {1 Selection pass} — top-down, procedure [topDown] (paper §3.2). *)

(** All-false parent vector: the selection pass's [init] at the
    document's root. *)
val blank_init : Pax_xpath.Compile.t -> Formula.t array

(** Symbolic [init] for fragment [fid]: [Sel_ctx (fid, i)] variables,
    which the coordinator's context unification later grounds. *)
val symbolic_init : Pax_xpath.Compile.t -> fid:int -> Formula.t array

(** One fragment's selection-pass result: certain answers, candidates
    whose last entry is residual, and for every virtual slot the vector
    of its parent (the paper's [returnSet]). *)
type sel_outcome = {
  answers : int list;
      (** certain slots in pre-order, the wrapper included;
          {!Pax_wire.Wire.answers_of_slots} drops it *)
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

    Demand-driven, per child: the pass walks a child of an off-spine
    slot only when the child's tag can pass a test that the
    qualifier entries read of the children owe (entries read by a
    placeholder, the parent's vector or the root vector; a test whose
    tag is missing from the slot's tag mask ([mask] in
    {!Pax_xml.Flat.columns}) is owed by
    no child), or when a selection state the child reads is live and
    every label move after it is in the child's own tag mask.  A slot
    whose demanded entries all fail their tests on its own tag
    computes no vector.  Spine slots and the evaluation root compute
    every entry, so [root_qvec], [contexts], answers and candidates
    are exactly the two passes' (test/test_flat.ml).
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
