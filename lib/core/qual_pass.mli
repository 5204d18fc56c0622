(** The qualifier recurrence over one node (paper §3.1), written over
    an abstract node view.

    A node's qualifier vector holds the [A]/[B]/[D] entries of
    {!Pax_xpath.Compile}; at a virtual node every entry is a fresh
    variable [Var.Qual (fid, e)], which flows into the vectors of the
    node's ancestors and makes them residual Boolean formulas that the
    coordinator later unifies.  The engines run this recurrence over
    flat images ({!Flat_pass}); the streaming engine ({!Stream_eval})
    runs it here, over the elements it has open, and ParBoX's root
    check reads {!sat} on the root node. *)

module Formula = Pax_bool.Formula

(** The recurrence needs no built tree, only a node's tag, text,
    numeric value and attributes, plus the child-disjunction of each
    entry. *)
type view = {
  vtag : string;
  vtext : string;
  vnum : float option;
  vattr : string -> string option;
}

val view_of_node : Pax_xml.Tree.node -> view

(** [sat_view compiled vec view q] — satisfaction of a filter at a node
    given the node's qualifier vector.  Ground when the vector is
    ground. *)
val sat_view :
  Pax_xpath.Compile.t -> Formula.t array -> view -> Pax_xpath.Compile.qual ->
  Formula.t

(** {!sat_view} on a tree node. *)
val sat :
  Pax_xpath.Compile.t -> Formula.t array -> Pax_xml.Tree.node ->
  Pax_xpath.Compile.qual -> Formula.t

(** [eval_entries compiled view ~exists_child] — one node's vector,
    where [exists_child e] is the OR of entry [e] over its children. *)
val eval_entries :
  Pax_xpath.Compile.t -> view -> exists_child:(int -> Formula.t) ->
  Formula.t array

(** The all-variables vector of a virtual node for fragment [fid]. *)
val virtual_vec : Pax_xpath.Compile.t -> int -> Formula.t array
