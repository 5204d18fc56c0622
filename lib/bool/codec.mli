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

(** Decode a whole string, read in place; raises {!Decode_error}, also
    on trailing bytes. *)
val of_string : 'a t -> string -> 'a

val of_string_opt : 'a t -> string -> 'a option

(** {2 Writers owned by their caller}

    A connection encodes every frame into one writer it keeps: values
    are appended behind what it holds, and its bytes go to the socket
    from its buffer, with no copy in between. *)

(** An empty writer, with the counts of {!counted}. *)
val writer : unit -> writer

(** Forget what the writer holds.  A buffer grown past 64 KiB (a
    fragment image) is dropped for a small one. *)
val clear : writer -> unit

(** The bytes written since the last {!clear}. *)
val length : writer -> int

(** The writer's buffer: its first {!length} bytes are what was
    written.  Valid until the next write or {!clear}. *)
val buffer : writer -> Bytes.t

(** [append w c x] writes [x] behind what [w] holds, in one pass, and
    restarts the counts, so {!counts} then holds [x]'s. *)
val append : writer -> 'a t -> 'a -> unit

(** The counts of the value last appended ([2 * counters] slots), until
    the next {!append}. *)
val counts : writer -> int array

(** {1 Counting}

    A value can be counted as it is written or read, so a caller learns
    how many of some part a message holds, and their bytes, from the
    one pass that encodes or decodes it. *)

(** The number of counters (2). *)
val counters : int

(** [counted i c] writes and reads exactly as [c].  Under {!append}
    and {!of_slice_counted} each value also adds one to count [2i] and
    its encoded length to count [2i + 1].
    @raise Invalid_argument unless [0 <= i < counters] *)
val counted : int -> 'a t -> 'a t

(** [of_slice_counted c b off len] decodes exactly the [len] bytes of
    [b] from [off], in place, as {!of_string} decodes a string, and
    returns the counts ([2 * counters] slots).  Nothing decoded aliases
    [b] (strings are copied out), so [b] may be reused as soon as it
    returns.  Error offsets count from [off].
    @raise Invalid_argument if the slice is not inside [b] *)
val of_slice_counted : 'a t -> Bytes.t -> int -> int -> 'a * int array

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

(** {1 Records}

    A record is its fields in order, each sized and written from its
    projection of the value; reading passes the fields to the
    constructor as arguments, so no tuple stands between the wire and
    the record. *)

type ('r, 'a) field

(** [field get c]: the field [get r] of a record [r], under [c]. *)
val field : ('r -> 'a) -> 'a t -> ('r, 'a) field

val record2 : ('r, 'a) field -> ('r, 'b) field -> ('a -> 'b -> 'r) -> 'r t

val record4 :
  ('r, 'a) field ->
  ('r, 'b) field ->
  ('r, 'c) field ->
  ('r, 'd) field ->
  ('a -> 'b -> 'c -> 'd -> 'r) ->
  'r t

val record7 :
  ('r, 'a) field ->
  ('r, 'b) field ->
  ('r, 'c) field ->
  ('r, 'd) field ->
  ('r, 'e) field ->
  ('r, 'f) field ->
  ('r, 'g) field ->
  ('a -> 'b -> 'c -> 'd -> 'e -> 'f -> 'g -> 'r) ->
  'r t

(** {1 Tagged unions}

    A union is a tag byte, then the body of the case it names.  Each
    case is a body codec, the constructor that builds the value from
    its body, and the projection that takes the body back out of a
    value of that case.  The union's [case_of] function names the case
    of a value; dispatch allocates nothing.  An unknown tag is a
    {!Decode_error} at the tag's offset. *)

type ('a, 'b) case = {
  tag : int;
  body : 'b t;
  inj : 'b -> 'a;
  proj : 'a -> 'b;  (** called only on values of this case *)
}

type 'a any_case = Case : ('a, 'b) case -> 'a any_case [@@unboxed]

(** [case tag body inj proj]. *)
val case : int -> 'b t -> ('b -> 'a) -> ('a -> 'b) -> ('a, 'b) case

(** [union what cases case_of]; [what] names the tag in errors
    (["unknown <what> <tag>"]). *)
val union : string -> 'a any_case list -> ('a -> 'a any_case) -> 'a t

(** One case alone: its tag, then its body; any other tag is
    ["expected <what>"]. *)
val expect : string -> ('a, 'b) case -> 'b t

(** Tag 0 and the value, or tag 1 and the error. *)
val result : 'a t -> 'e t -> ('a, 'e) result t

(** {1 Flags}

    A record field present only when a flag is set rides behind a flags
    byte computed from the record: [field flags_of (flags what ~bits)],
    then the optional fields under {!if_flag}, {!nonempty} and
    {!flag}.  The reader keeps the last flags byte read, so no other
    flags byte may be read between a flags byte and the fields it
    governs, and [flags_of] must set a field's bit exactly when the
    field is present. *)

(** The flags byte; one with a bit at or above [bits] is an error
    (["unknown <what> <byte>"]). *)
val flags : string -> bits:int -> int t

(** No bytes: the value of the flag [bit] of the last flags byte. *)
val flag : int -> bool t

(** [c] when flag [bit] is set, else nothing (and [None]). *)
val if_flag : int -> 'a t -> 'a option t

(** A list under [c] when flag [bit] is set (the sender sets it exactly
    when the list is non-empty), else nothing, read as [[]]. *)
val nonempty : int -> 'a list t -> 'a list t

(** {1 Sections} *)

(** A [u24] big-endian payload length, then the payload, written in
    place and read within its bounds (which it must fill exactly).
    Writing a payload over 16 MiB is [Invalid_argument]. *)
val sized : 'a t -> 'a t

(** {!sized} with a [u32] length: a frame as {!Pax_net.Sockio} sends it,
    its length filled in place once the payload is written. *)
val framed : 'a t -> 'a t

(** {1 Element lists} *)

(** [element_list ~id ~tag ~text ~attrs mk]: a varint count, then per
    element its id (a varint), tag (a string), optional text ({!option}
    over {!string}) and attributes ({!list} of {!string} pairs) — the
    bytes the combinators would write, by a tight loop.  An element's
    tag, or an attribute name at the same position as in the previous
    element, that repeats the previous element's is shared, not copied:
    decoded strings alias no input either way, and strings are
    immutable. *)
val element_list :
  id:('e -> int) ->
  tag:('e -> string) ->
  text:('e -> string option) ->
  attrs:('e -> (string * string) list) ->
  (int -> string -> string option -> (string * string) list -> 'e) ->
  'e list t

(** {1 Formulas and vectors} *)

(** A tag byte per node; variables carry two varints.  Decoding
    rebuilds through {!Formula}'s smart constructors.  Like
    {!element_list}, the walks are tight loops: no closure call or
    allocation per node beyond the decoded formula. *)
val formula : Formula.t t

val formulas : Formula.t array t

(** A varint count, then the bits packed eight to a byte, least
    significant first.  Decoded vectors stay packed ({!Bits}). *)
val bools : Bits.t t
