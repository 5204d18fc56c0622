(** Socket plumbing shared by the site server and the coordinator
    client: addresses, connect/listen, and framed reads/writes (a
    big-endian [u32] length prefix before every {!Wire} payload). *)

type addr =
  | Unix_path of string  (** Unix-domain socket at this path *)
  | Tcp of string * int  (** host, port *)

(** ["unix:/path"], ["/abs/path"] (leading [/] or [.]), or
    ["host:port"]. *)
val addr_of_string : string -> (addr, string) result

val addr_to_string : addr -> string

(** Bind + listen (unlinking a stale Unix-socket path first).
    @raise Unix.Unix_error on failure. *)
val listen : ?backlog:int -> addr -> Unix.file_descr

val connect : addr -> Unix.file_descr

(** Raised by {!read_frame} when [timeout] elapses without a whole
    frame.  Nothing is lost: bytes of a partly received frame stay in
    the {!reader}, and the next call resumes it. *)
exception Timeout

(** Frames longer than this (64 MiB) are refused. *)
val max_frame : int

(** [poll_readable fd t] waits at most [t] seconds for [fd] to become
    readable; [false] on timeout.  The site server's accept loop polls
    its listening socket with this. *)
val poll_readable : Unix.file_descr -> float -> bool

(** A buffered per-connection reader.  Each [read] takes whatever the
    kernel holds, so several frames that arrive together cost one
    syscall; frames already buffered are returned without one.  The
    buffer starts at a few KiB, grows to fit a larger frame and shrinks
    back once drained.  A connection has exactly one reader: bytes it
    buffered past one frame belong to the next.

    A frame's payload is handed to a [decode] function as a slice of
    the buffer, [decode buf off len], before the buffer is refilled:
    [decode] must not keep [buf], and what it returns must not alias it
    ({!Pax_bool.Codec.of_slice_counted} copies out every string). *)
type reader

val reader : Unix.file_descr -> reader

(** [read_frame_with ?timeout r decode] decodes the next frame's
    payload where it lies; [None] on orderly EOF between frames.  It
    waits ([select]) only when no complete frame is buffered, and with
    no [timeout] it blocks in [read] alone.
    @raise Unix.Unix_error on connection errors
    @raise Timeout after [timeout] seconds (default: none)
    @raise Failure on EOF inside a frame, or on a length above
    {!max_frame} (as soon as its header is in, before anything is
    allocated for it) *)
val read_frame_with :
  ?timeout:float -> reader -> (Bytes.t -> int -> int -> 'a) -> 'a option

(** {!read_frame_with}, returning a copy of the payload. *)
val read_frame : ?timeout:float -> reader -> string option

(** [read_available r decode] — for a caller that knows the socket is
    readable: the frames already buffered if there are any, else the
    frames completed by one [read] (possibly none, when only part of a
    frame came in), each decoded in order.  [None] on orderly EOF
    between frames.
    @raise Unix.Unix_error on connection errors
    @raise Failure as {!read_frame_with} does *)
val read_available : reader -> (Bytes.t -> int -> int -> 'a) -> 'a list option

(** [write_bytes fd b len] writes the first [len] bytes of [b], as
    frames a caller encoded there ({!Pax_wire.Wire.encode_frame}),
    with one [write] unless the kernel takes them in parts.  Callers
    sharing a connection must serialize whole writes (they do: the
    client's per-site send lock, the server's per-connection write
    lock).
    @raise Unix.Unix_error on connection errors (EPIPE included;
    [SIGPIPE] is disabled process-wide on first use of this module) *)
val write_bytes : Unix.file_descr -> Bytes.t -> int -> unit

(** [write_frame fd payload] writes one payload under its length
    prefix, with one [write]. *)
val write_frame : Unix.file_descr -> string -> unit
