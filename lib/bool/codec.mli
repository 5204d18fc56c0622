(** Binary wire codec for variables, formulas and vectors.

    The cost model of the simulator charges messages by their {e actual}
    encoded length; this module provides that encoding (and the decoder,
    so the round trip is testable).  Format: a compact tag byte per
    node, LEB128-style varints for integers. *)

(** {1 Encoding} *)

(** LEB128 unsigned varints — the integer primitive of every codec here,
    exposed for the higher-level wire protocol ({!Pax_wire}). *)
val encode_varint : Buffer.t -> int -> unit

val varint_bytes : int -> int
val encode_formula : Buffer.t -> Formula.t -> unit
val encode_formula_array : Buffer.t -> Formula.t array -> unit
val encode_bool_array : Buffer.t -> bool array -> unit

(** Encoded lengths without building a buffer twice. *)
val formula_bytes : Formula.t -> int

val formula_array_bytes : Formula.t array -> int
val bool_array_bytes : bool array -> int

(** {1 Decoding} *)

exception Decode_error of string

(** All decoders are {e total} up to [Decode_error]: truncated input,
    overlong varints and adversarial counts raise it (never
    [Invalid_argument] or out-of-bounds), and never allocate
    proportionally to an unvalidated count. *)

val decode_varint : string -> pos:int -> int * int

val decode_formula : string -> pos:int -> Formula.t * int
val decode_formula_array : string -> pos:int -> Formula.t array * int
val decode_bool_array : string -> pos:int -> bool array * int

(** Convenience whole-string round trips. *)
val formula_to_string : Formula.t -> string

val formula_of_string : string -> Formula.t
val formula_array_to_string : Formula.t array -> string
val formula_array_of_string : string -> Formula.t array
val bool_array_to_string : bool array -> string
val bool_array_of_string : string -> bool array

(** Total variants: [None] on any malformed, truncated or
    trailing-garbage input — no exception escapes, whatever the bytes. *)

val formula_of_string_opt : string -> Formula.t option
val formula_array_of_string_opt : string -> Formula.t array option
val bool_array_of_string_opt : string -> bool array option
