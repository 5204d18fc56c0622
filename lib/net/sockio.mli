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
    buffered past one frame belong to the next. *)
type reader

val reader : Unix.file_descr -> reader

(** [read_frame ?timeout r] returns the next frame's payload (copied
    once out of the buffer); [None] on orderly EOF between frames.  It
    waits ([select]) only when no complete frame is buffered, and with
    no [timeout] it blocks in [read] alone.
    @raise Unix.Unix_error on connection errors
    @raise Timeout after [timeout] seconds (default: none)
    @raise Failure on EOF inside a frame, or on a length above
    {!max_frame} (as soon as its header is in, before anything is
    allocated for it) *)
val read_frame : ?timeout:float -> reader -> string option

(** [read_available r] — for a caller that knows the socket is
    readable: the frames already buffered if there are any, else the
    frames completed by one [read] (possibly none, when only part of a
    frame came in).  [None] on orderly EOF between frames.
    @raise Unix.Unix_error on connection errors
    @raise Failure as {!read_frame} does *)
val read_available : reader -> string list option

(** [write_frames fd payloads] writes each payload under its length
    prefix, all with one [write]: everything is copied into one buffer
    first.  Callers sharing a connection must serialize whole writes
    (they do: the client's per-site send lock, the server's
    per-connection write lock).
    @raise Unix.Unix_error on connection errors (EPIPE included;
    [SIGPIPE] is disabled process-wide on first use of this module) *)
val write_frames : Unix.file_descr -> string list -> unit

(** [write_frame fd payload] is [write_frames fd [payload]]. *)
val write_frame : Unix.file_descr -> string -> unit
