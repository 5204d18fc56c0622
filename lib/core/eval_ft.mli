(** Procedure [evalFT]: the coordinator's unification over the fragment
    tree (paper §3.1–3.3).

    Two directions:
    - {b qualifiers resolve bottom-up}: the vector a leaf fragment ships
      is ground; substituting it into the parent's vector grounds the
      parent's variables, and so on up to the root fragment;
    - {b selection contexts resolve top-down}: the root fragment's
      context is known; substituting it into the context vectors the
      root fragment shipped for its sub-fragments grounds those, and so
      on down.

    Fragments ids are topologically ordered (parents smaller), so both
    resolutions are single array sweeps.

    A fragment for which no vector is available (pruned by the
    annotation optimization, §5) resolves to all-[false]; the pruning
    analysis guarantees those values cannot influence any answer. *)

module Formula = Pax_bool.Formula

(** [resolve_quals ft ~root_vecs] — ground qualifier vector of every
    fragment root.  [root_vecs fid] is the shipped vector, [None] if the
    fragment was pruned. *)
val resolve_quals :
  Pax_frag.Fragment.t ->
  root_vecs:(int -> Formula.t array option) ->
  bool array array

(** Substitution source for [Var.Qual] variables. *)
val qual_lookup : bool array array -> Pax_bool.Var.t -> Formula.t option

(** [resolve_contexts ft ~root_ctx ~ctx_of ~qual_lookup] — ground
    context vector (the meaning of the [Sel_ctx] variables) of every
    fragment.  [root_ctx] is the root fragment's real initial vector;
    [ctx_of fid] the raw context shipped by [fid]'s parent ([None] if
    pruned); [qual_lookup] resolves any embedded [Var.Qual] (PaX2 ships
    contexts before qualifiers are unified). *)
val resolve_contexts :
  Pax_frag.Fragment.t ->
  root_ctx:bool array ->
  ctx_of:(int -> Formula.t array option) ->
  qual_lookup:(Pax_bool.Var.t -> Formula.t option) ->
  bool array array

(** [unify_contexts ft ~n_sel ~contexts ~qual_lookup] — the top-down
    unification as every evaluator runs it: [contexts.(fid)] lists the
    [(sub, ctx)] pairs fragment [fid]'s selection pass shipped, one per
    sub-fragment ([[]] if the pass did not run), and the root
    fragment's context is all-[false] ([n_sel] entries).  Gathers the
    raw contexts and {!resolve_contexts} them. *)
val unify_contexts :
  Pax_frag.Fragment.t ->
  n_sel:int ->
  contexts:(int * Formula.t array) list array ->
  qual_lookup:(Pax_bool.Var.t -> Formula.t option) ->
  bool array array

(** Substitution source for [Var.Sel_ctx] variables. *)
val ctx_lookup : bool array array -> Pax_bool.Var.t -> Formula.t option

(** Combined lookup over both directions. *)
val full_lookup :
  quals:bool array array -> ctxs:bool array array ->
  Pax_bool.Var.t -> Formula.t option
