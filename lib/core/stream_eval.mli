(** Single-pass streaming evaluation over a SAX event stream — the
    centralized cousin of PaX2's combined traversal, and the §8 remark
    about large documents taken to its limit: no tree is built
    at all.

    The engine keeps one frame per {e open} element (the ancestor
    stack): the frame's selection vector uses placeholder variables for
    the qualifiers of still-open ancestors, and closing an element
    computes its qualifier vector from accumulated child disjunctions
    and locally unifies the placeholders it issued — exactly the
    pre-order/post-order split of PaX2, driven by events.

    Memory: O(depth · |Q|) for the stack plus the not-yet-decidable
    answer candidates (a node can be reported only once every qualifier
    above and below it is known).  Events are consumed as the scanner
    produces them ({!Pax_xml.Sax.iter_string}); no event list is held.

    The per-element recurrence is the kernels' own
    ({!Flat_pass.fsat}, {!Flat_pass.feval_entries}), over the query's
    plan lowered against a table holding the query's labels: an element
    whose tag the query never names matches wildcards only.  What is
    the stream's alone is the deferral: at an open tag a filter that
    needs the element's subtree or text becomes a placeholder, decided
    at the close tag.

    Answers are reported as pre-order indices (the document's root
    element is index 0), since there are no node ids without a tree. *)

type result = {
  matches : int list;  (** pre-order indices of answer elements, sorted *)
  elements : int;  (** total elements seen *)
  max_depth : int;
  peak_pending : int;  (** high-water mark of undecided candidates *)
}

(** [over_string q xml] — evaluate in one pass over the serialized
    document, driven by the scanner's events as they come.
    @raise Pax_xml.Sax.Parse_error on malformed input. *)
val over_string : Pax_xpath.Query.t -> string -> result

(** Pre-order indices of [Centralized] answers, for cross-checking. *)
val indices_of_answers :
  Pax_xml.Tree.node -> Pax_xml.Tree.node list -> int list
