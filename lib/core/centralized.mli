(** Centralized two-pass evaluation on an unfragmented tree — the
    [O(|T| |Q|)] baseline the paper compares total computation against
    (Gottlob et al. style: one bottom-up qualifier pass, one top-down
    selection pass).

    It builds one flat image of the whole tree and runs the engines'
    kernels on it: {!Flat_pass.qual_run} (skipped for a query without
    qualifiers), then {!Flat_pass.sel_run}.  Both passes visit every
    node, so [qual_ops] and [sel_ops] are the full two-pass cost; PaX2's
    combined pass, which skips subtrees, is not the baseline.

    This is the engine {!Naive} runs after shipping and reassembling all
    fragments, and the single-site special case of PaX. *)

type result = {
  answers : Pax_xml.Tree.node list;  (** in document order *)
  answer_ids : int list;  (** sorted ids *)
  qual_ops : int;
  sel_ops : int;
}

(** [run query root] — [root] must contain no virtual nodes.
    @raise Invalid_argument on a tree with virtual nodes. *)
val run : Pax_xpath.Query.t -> Pax_xml.Tree.node -> result

(** [eval_ids query root] — just the sorted answer ids. *)
val eval_ids : Pax_xpath.Query.t -> Pax_xml.Tree.node -> int list
