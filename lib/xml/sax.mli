(** Event-based (SAX-style) XML scanning: the substrate for single-pass
    streaming evaluation, where no tree is ever built.

    Events follow the conventions of {!Parser}: character data is
    whitespace-trimmed per segment, whitespace-only segments are
    dropped, CDATA is passed through raw, comments / PIs / prolog are
    skipped (fragment placeholder PIs are {e not} supported in streams —
    a stream is a complete document). *)

type event =
  | Open of string * (string * string) list  (** tag, attributes *)
  | Text of string
  | Close of string

exception Parse_error of { pos : int; msg : string }

(** [fold_string s ~init ~f] scans the document once, threading the
    accumulator through every event.  Raises {!Parse_error} on malformed
    input (including mismatched tags). *)
val fold_string : string -> init:'a -> f:('a -> event -> 'a) -> 'a

(** [iter_string s ~f] — imperative variant. *)
val iter_string : string -> f:(event -> unit) -> unit

(** All events as a list (testing convenience; defeats streaming). *)
val events_of_string : string -> event list
