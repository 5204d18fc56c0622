(** Top-down selection-path evaluation over one fragment — procedure
    [topDown] of the paper (§3.2).

    A single depth-first pass computes, for every node [v], the vector
    [SV_v] of selection-path prefixes reaching [v].  The stack of the
    paper is the recursion: each call receives its parent's vector,
    which already summarizes all ancestors.  The traversal starts from
    the [init] vector — ground for the root fragment (and for annotated
    fragments whose context is certain), symbolic [Sel_ctx] variables
    otherwise.

    Outcome per fragment:
    - [answers]: nodes whose last entry is the constant [true] — certain
      answers, shipped immediately;
    - [candidates]: nodes whose last entry is a residual formula —
      resolved in the final stage;
    - [contexts]: for every virtual node, the vector of its parent (the
      information the sub-fragment's [Sel_ctx] variables stand for);
      this is the [returnSet] shipped to the coordinator. *)

module Formula = Pax_bool.Formula

type outcome = {
  answers : Pax_xml.Tree.node list;
  candidates : (Pax_xml.Tree.node * Formula.t) list;
  contexts : (int * Formula.t array) list;  (** sub-fragment fid → ctx *)
  ops : int;
}

(** [run compiled ~init ~root_is_context ~sat root]:
    - [init] — the vector of the fragment root's parent ([n_sel] long);
    - [root_is_context] — true when [root] is the query's context node
      (the root element of a relative query);
    - [sat v q] — qualifier satisfaction at [v] (ground in PaX3 Stage 2;
      placeholder variables in PaX2's pre-order). *)
val run :
  Pax_xpath.Compile.t ->
  init:Formula.t array ->
  root_is_context:bool ->
  sat:(Pax_xml.Tree.node -> Pax_xpath.Compile.qual -> Formula.t) ->
  Pax_xml.Tree.node ->
  outcome

(** All-false parent vector (used with [root_is_context:true]). *)
val blank_init : Pax_xpath.Compile.t -> Formula.t array

(** Symbolic init for fragment [fid]: [Sel_ctx (fid, i)] variables. *)
val symbolic_init : Pax_xpath.Compile.t -> fid:int -> Formula.t array

(** [context_root compiled root] — where evaluation of the root fragment
    starts: for an absolute query, a synthetic document node (id -1,
    tag ["#document"]) wrapping [root]; for a relative query, [root]
    itself.  The second component is [root_is_context].  The document
    node never counts as an answer (negative id). *)
val context_root :
  Pax_xpath.Compile.t -> Pax_xml.Tree.node -> Pax_xml.Tree.node * bool
