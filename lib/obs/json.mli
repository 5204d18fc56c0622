(** Minimal JSON used by the telemetry exporters and their tests.

    Not a general-purpose JSON library: emit is stable-ordered, parse
    is strict (no trailing bytes) and ASCII-oriented — exactly enough
    to write Chrome trace-event files and schema-check them back. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val int : int -> t
(** [int n] is [Num (float_of_int n)]. *)

val to_string : t -> string
(** Compact single-line rendering with keys in the order given. *)

val escape : string -> string
(** A string's body as {!to_string} writes it, without the quotes. *)

val num_repr : float -> string
(** A number as {!to_string} writes it: integers without a fraction,
    anything else to six significant digits. *)

exception Parse_error of string

val parse_exn : string -> t
(** Parse a complete JSON document; raises {!Parse_error}. *)

val parse : string -> (t, string) result

(** {2 Accessors} *)

val member : string -> t -> t option
val as_num : t -> float option
val as_str : t -> string option
val as_bool : t -> bool option
val as_list : t -> t list option
val as_obj : t -> (string * t) list option
