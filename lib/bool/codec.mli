(** Pickler combinators (Kennedy, "Pickler Combinators", JFP 2004): a
    binary format described once per type, as one value that sizes,
    writes and reads it.

    The cost model charges messages by their encoded length, and
    {!size} is that length by construction: the same description that
    writes a value also measures it, so accounting and encoding cannot
    drift apart.  Integers are LEB128 varints; a formula is a tag byte
    per node.

    Every reader is {e total} up to {!Decode_error}: truncated input,
    overlong varints, unknown tags and adversarial counts raise it
    (never [Invalid_argument] or an out-of-bounds access), and no count
    sizes an allocation before it is checked against the bytes left. *)

(** A malformed input, with the byte offset where reading failed. *)
exception Decode_error of { pos : int; reason : string }

type writer
type reader

type 'a t = {
  size : 'a -> int;  (** exactly the number of bytes [write] emits *)
  write : writer -> 'a -> unit;
  read : reader -> 'a;
}

(** Raise {!Decode_error} at the reader's position (for hand-written
    codecs). *)
val fail : reader -> string -> 'a

(** {1 Running a codec} *)

val size : 'a t -> 'a -> int

(** Encode in one pass into a growing buffer ({!size} is not run). *)
val to_string : 'a t -> 'a -> string

(** Decode a whole string; raises {!Decode_error}, also on trailing
    bytes. *)
val of_string : 'a t -> string -> 'a

val of_string_opt : 'a t -> string -> 'a option

(** {1 Counting}

    A value can be counted as it is written or read, so a caller learns
    how many of some part a message holds, and their bytes, from the
    one pass that encodes or decodes it. *)

(** The number of counters (2). *)
val counters : int

(** [counted i c] writes and reads exactly as [c].  Under
    {!to_string_counted} and {!of_string_counted} each value also adds
    one to count [2i] and its encoded length to count [2i + 1].
    @raise Invalid_argument unless [0 <= i < counters] *)
val counted : int -> 'a t -> 'a t

(** {!to_string}, with the counts ([2 * counters] slots). *)
val to_string_counted : 'a t -> 'a -> string * int array

(** {!of_string}, with the counts ([2 * counters] slots). *)
val of_string_counted : 'a t -> string -> 'a * int array

(** {1 Primitives} *)

val u8 : int t
val varint : int t

(** A varint length, then the bytes. *)
val string : string t

(** Every byte up to the end of the current bounds (the input, or the
    enclosing {!sized} section), with no length of its own. *)
val rest : string t

(** Fixed bytes (a magic number): written as given, refused on read
    unless equal. *)
val literal : string -> unit t

(** An optional value at the very end of its bounds: absent writes
    nothing, and reading finds it present iff bytes remain. *)
val trailing : 'a t -> 'a option t

(** IEEE-754 bits, big-endian: floats round-trip bit-exactly. *)
val float : float t

(** Zero bytes, read as the given value. *)
val const : 'a -> 'a t

val unit : unit t

(** {1 Combinators} *)

(** [map inj proj c] describes ['b] by its image [proj b] under [c]. *)
val map : ('a -> 'b) -> ('b -> 'a) -> 'a t -> 'b t

(** Refuse, at the value's offset, a decoded value failing the check. *)
val guard : string -> ('a -> bool) -> 'a t -> 'a t

val pair : 'a t -> 'b t -> ('a * 'b) t
val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t

(** A [u8] flag (0 or 1), then the value when present. *)
val option : 'a t -> 'a option t

(** A varint count, then the elements. *)
val list : 'a t -> 'a list t

val array : 'a t -> 'a array t

(** A recursive codec: [fix (fun self -> ...)]. *)
val fix : ('a t -> 'a t) -> 'a t

(** {1 Tagged unions}

    A union is a tag byte, then the body of the case it names.  Each
    case is a body codec and the constructor that builds the value from
    it; the union's [view] function names the case of a value and its
    body.  An unknown tag is a {!Decode_error} at the tag's offset. *)

type ('a, 'b) case = { tag : int; body : 'b t; inj : 'b -> 'a }
type 'a any_case = Case : ('a, 'b) case -> 'a any_case
type 'a view = View : ('a, 'b) case * 'b -> 'a view

val case : int -> 'b t -> ('b -> 'a) -> ('a, 'b) case

(** [union what cases view]; [what] names the tag in errors
    (["unknown <what> <tag>"]). *)
val union : string -> 'a any_case list -> ('a -> 'a view) -> 'a t

(** One case alone: its tag, then its body; any other tag is
    ["expected <what>"]. *)
val expect : string -> ('a, 'b) case -> 'b t

(** [flags what ~bits flags_of body]: a byte of [bits] flags computed
    from the value, then the value under [body flags] — for fields
    present only when a flag is set ({!if_set}).  Other flag bytes are
    errors. *)
val flags : string -> bits:int -> ('a -> int) -> (int -> 'a t) -> 'a t

(** Under {!flags}: [c] when the flag is set, else nothing (and
    [None]). *)
val if_set : bool -> 'a t -> 'a option t

(** Tag 0 and the value, or tag 1 and the error. *)
val result : 'a t -> 'e t -> ('a, 'e) result t

(** {1 Sections} *)

(** A [u24] big-endian payload length, then the payload, written in
    place and read within its bounds (which it must fill exactly).
    Writing a payload over 16 MiB is [Invalid_argument]. *)
val sized : 'a t -> 'a t

(** {1 Formulas and vectors} *)

(** A tag byte per node; variables carry two varints.  Decoding
    rebuilds through {!Formula}'s smart constructors. *)
val formula : Formula.t t

val formulas : Formula.t array t

(** A varint count, then the bits packed eight to a byte, least
    significant first.  Decoded vectors stay packed ({!Bits}). *)
val bools : Bits.t t
