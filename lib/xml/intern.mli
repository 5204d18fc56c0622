(** A string <-> small-int symbol table, one per fragment store.

    Tags and attribute keys are interned once when a flat fragment
    image ({!Flat}) is built; stage passes then compare tags by int
    code.  Every operation is safe to call from any domain: {!intern}
    and {!find} take the table's lock, and {!name} and {!size} read a
    published snapshot without it (codes are only ever appended).  The
    hot loops never call in here — they carry pre-resolved codes (see
    docs/FLATTREE.md). *)

type t

val create : unit -> t

(** [intern t s] — the code for [s], assigning a fresh one on first
    sight.  Codes are dense, starting at 0. *)
val intern : t -> string -> int

(** [find t s] — the code for [s], or [-1] if it was never interned.
    Used when compiling a query against a store: a tag the store has
    never seen matches no node, and [-1] encodes exactly that. *)
val find : t -> string -> int

(** [name t c] — inverse of {!intern}; takes no lock.
    @raise Invalid_argument on an unknown code. *)
val name : t -> int -> string

val size : t -> int
