(** A packed, immutable bit vector: bit [i] is bit [i mod 8] of byte
    [i / 8], least significant first — the layout a Resolution section
    ships ({!Codec.bools}).  A decoded vector stays packed, one byte per
    eight bits, so a section's bits never cost more memory than its
    bytes. *)

type t

val of_array : bool array -> t
val length : t -> int

(** [get t i] — bit [i]; [false] at or past {!length}, as a
    sub-fragment pruned by the annotations ships an empty vector that
    reads false everywhere. *)
val get : t -> int -> bool

(** [of_bytes n s] — [n] bits packed in [s], which holds
    [(n + 7) / 8] bytes; bits of the last byte past [n] are cleared.
    @raise Invalid_argument on a length mismatch. *)
val of_bytes : int -> string -> t

(** The packed bytes, [(length t + 7) / 8] of them. *)
val bytes : t -> string
