(** Bottom-up qualifier evaluation over one fragment — the extension of
    ParBoX that forms Stage 1 of PaX3 (paper §3.1) and the post-order
    half of PaX2's combined traversal.

    One pass computes, for every node of the fragment, its qualifier
    vector (the [A]/[B]/[D] entries of {!Pax_xpath.Compile}).  At a
    virtual node every entry is a fresh variable [Var.Qual (fid, e)];
    those variables flow into the vectors of the node's ancestors, making
    them residual Boolean formulas that the coordinator later unifies. *)

module Formula = Pax_bool.Formula

type t = {
  vectors : (int, Formula.t array) Hashtbl.t;  (** node id → vector *)
  root_vec : Formula.t array;  (** the fragment root's vector, shipped *)
  ops : int;  (** vector-entry operations performed *)
}

(** [run compiled root] evaluates all qualifier entries bottom-up.
    Returns empty vectors when the query has no qualifier entries. *)
val run : Pax_xpath.Compile.t -> Pax_xml.Tree.node -> t

(** One node's vector from its children's vectors — the post-order step,
    exposed so PaX2's combined traversal can interleave it with the
    pre-order selection step. *)
val eval_node :
  Pax_xpath.Compile.t -> ops:int ref -> Pax_xml.Tree.node ->
  Formula.t array list -> Formula.t array

(** [sat compiled vec node q] — satisfaction of a filter at [node] given
    the node's qualifier vector.  Ground when the vector is ground. *)
val sat :
  Pax_xpath.Compile.t -> Formula.t array -> Pax_xml.Tree.node ->
  Pax_xpath.Compile.qual -> Formula.t

(** {1 Kernel over abstract node views}

    The recurrence itself does not need a built tree — only a
    node's tag, text, numeric value and attributes, plus the
    child-disjunction of each entry.  The streaming engine
    ({!Stream_eval}) reuses it through this interface. *)

type view = {
  vtag : string;
  vtext : string;
  vnum : float option;
  vattr : string -> string option;
}

val view_of_node : Pax_xml.Tree.node -> view

val sat_view :
  Pax_xpath.Compile.t -> Formula.t array -> view -> Pax_xpath.Compile.qual ->
  Formula.t

(** [eval_entries compiled view ~exists_child] — one node's vector,
    where [exists_child e] is the OR of entry [e] over its children. *)
val eval_entries :
  Pax_xpath.Compile.t -> view -> exists_child:(int -> Formula.t) ->
  Formula.t array

(** The all-variables vector of a virtual node for fragment [fid]. *)
val virtual_vec : Pax_xpath.Compile.t -> int -> Formula.t array

(** [resolve t lookup] substitutes boundary variables in every stored
    vector (in place), returning the operation count.  Used at the start
    of Stage 2, once the coordinator has shipped the unified values. *)
val resolve : t -> (Pax_bool.Var.t -> Formula.t option) -> int
