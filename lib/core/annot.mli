(** The XPath-annotation optimization (paper §5).

    Every fragment-tree edge carries the tag path between fragment
    roots, so the full tag path ("spine") from the document root to any
    fragment root is known to the coordinator without touching data.
    Two uses:

    1. {b Pruning.}  Walking a fragment's spine through the query's
       selection automaton under three-valued logic (tags on the spine
       are known; text values and off-spine data are not) tells whether
       the fragment can possibly (a) contain answer nodes, or (b) hold
       data some qualifier of a possible answer looks at.  Fragments
       that can do neither are ruled out: PaX3 skips them in Stage 2,
       PaX2 does not run its combined pass on them at all.

    2. {b Concrete stack initialization.}  When the three-valued context
       vector of a fragment contains no "maybe", the top-down pass can
       start from ground Booleans instead of [Sel_ctx] variables; every
       answer inside the fragment is then identified with certainty and
       the final resolution stage is skipped for it.  (For
       qualifier-free queries this is the paper's observation; entries
       are grounded individually, so mixed vectors still help.) *)

type tri = F | T | M

type analysis = {
  ctx : tri array array;
      (** per fid: three-valued context vector (at the fragment root's
          parent), [n_sel] entries *)
  relevant_sel : bool array;
      (** fragment can contain answer nodes (prunes PaX3 Stage 2) *)
  relevant : bool array;
      (** fragment can contain answer nodes {e or} influence a
          qualifier of one (prunes PaX2's combined pass) *)
}

val analyze : Pax_xpath.Compile.t -> Pax_frag.Fragment.t -> analysis

(** [init_of_ctx compiled ~fid ctx] — the initial vector for a
    fragment's top-down pass: ground entries where the three-valued
    context is definite, [Sel_ctx] variables where it is [M]. *)
val init_of_ctx :
  Pax_xpath.Compile.t -> fid:int -> tri array -> Pax_bool.Formula.t array

(** [shipped_init compiled analysis fid] — the initial vector a
    coordinator ships with fragment [fid]'s selection visit: [None]
    without an analysis (the site derives it: {!Flat_pass.blank_init} at
    the root, {!Flat_pass.symbolic_init} elsewhere), else the
    annotation-derived vector (blank at the root). *)
val shipped_init :
  Pax_xpath.Compile.t -> analysis option -> int ->
  Pax_bool.Formula.t array option

val pp_tri : Format.formatter -> tri -> unit
