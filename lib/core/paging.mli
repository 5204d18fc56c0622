(** The paper's secondary use case (§1, §8): evaluating a query on a
    document too large for main memory by fragmenting it and swapping
    one fragment in at a time.

    Partial evaluation pays off exactly as in the distributed setting:
    the combined PaX2 traversal needs each fragment in memory {e once},
    leaving only residual formulas behind, whereas a conventional
    two-pass evaluator must page every fragment back in for the
    selection pass (and once more for candidate resolution).  Swap-ins
    and bytes paged are the costs reported, counted when a fragment is
    brought in.

    Both strategies evaluate a fragment's flat image with the engines'
    kernels ({!Flat_pass}) and unify with evalFT ({!Eval_ft}), as the
    distributed engines do. *)

type result = {
  answer_ids : int list;
  swap_ins : int;  (** how many times a fragment was brought into memory *)
  bytes_loaded : int;
  n_fragments : int;
  peak_fragment_nodes : int;  (** largest working set, in nodes *)
}

(** [run ~memory_budget q doc] — partial-evaluation strategy: fragment
    into ≤[memory_budget]-node pieces, one swap-in per fragment, each
    evaluated by {!Flat_pass.combined_run}. *)
val run : memory_budget:int -> Pax_xpath.Query.t -> Pax_xml.Tree.doc -> result

(** [run_two_pass ~memory_budget q doc] — the conventional strategy:
    one swap-in per fragment per pass ({!Flat_pass.qual_run}, skipped
    for a query without qualifiers, then {!Flat_pass.sel_run}), and one
    more for each fragment with candidates. *)
val run_two_pass :
  memory_budget:int -> Pax_xpath.Query.t -> Pax_xml.Tree.doc -> result
