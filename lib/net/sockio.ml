type addr = Unix_path of string | Tcp of string * int

let addr_of_string s =
  match String.index_opt s ':' with
  | _ when s = "" -> Error "empty address"
  | _ when s.[0] = '/' || s.[0] = '.' -> Ok (Unix_path s)
  | Some 4 when String.sub s 0 4 = "unix" ->
      let path = String.sub s 5 (String.length s - 5) in
      if path = "" then Error "empty unix socket path" else Ok (Unix_path path)
  | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 ->
          Ok (Tcp ((if host = "" then "127.0.0.1" else host), p))
      | _ -> Error (Printf.sprintf "bad port in %S" s))
  | None -> Error (Printf.sprintf "bad address %S (want unix:PATH or HOST:PORT)" s)

let addr_to_string = function
  | Unix_path p -> "unix:" ^ p
  | Tcp (h, p) -> Printf.sprintf "%s:%d" h p

(* A peer closing mid-write must surface as EPIPE (mapped to a retry),
   not kill the process.  An atomic flag rather than a lazy cell:
   Lazy.force from concurrent threads can raise Undefined, and sockets
   are opened from scheduler workers. *)
let sigpipe_ignored = Atomic.make false

let ignore_sigpipe () =
  if not (Atomic.exchange sigpipe_ignored true) then
    if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let sockaddr_of = function
  | Unix_path p -> Unix.ADDR_UNIX p
  | Tcp (host, port) ->
      let ip =
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found -> Unix.inet_addr_of_string host
      in
      Unix.ADDR_INET (ip, port)

let domain_of = function
  | Unix_path _ -> Unix.PF_UNIX
  | Tcp _ -> Unix.PF_INET

let listen ?(backlog = 16) addr =
  ignore_sigpipe ();
  (match addr with
  | Unix_path p when Sys.file_exists p -> ( try Unix.unlink p with _ -> ())
  | _ -> ());
  let fd = Unix.socket (domain_of addr) Unix.SOCK_STREAM 0 in
  (match addr with
  | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
  | Unix_path _ -> ());
  Unix.bind fd (sockaddr_of addr);
  Unix.listen fd backlog;
  fd

let connect addr =
  ignore_sigpipe ();
  let fd = Unix.socket (domain_of addr) Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (sockaddr_of addr)
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  fd

exception Timeout

let max_frame = 64 * 1024 * 1024

(* Deadlines are computed on the monotonic clock, so a wall-clock step
   (NTP, VM migration) can neither fire a timeout early nor postpone it
   indefinitely. *)
let rec wait_readable fd deadline =
  match deadline with
  | None -> ()
  | Some dl -> (
      let remaining = dl -. Pax_obs.Clock.now () in
      if remaining <= 0. then raise Timeout;
      match Unix.select [ fd ] [] [] remaining with
      | [], _, _ -> raise Timeout
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) ->
          wait_readable fd deadline)

let poll_readable fd timeout =
  match Unix.select [ fd ] [] [] timeout with
  | [], _, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

(* Per-connection read state: bytes read from the socket but not yet
   returned live in [rd_buf.[rd_pos .. rd_len - 1]].  One [read] takes
   whatever the kernel holds, so a burst of replies costs one syscall,
   and every complete frame already buffered is returned without one.
   The buffer starts at [initial_buffer] bytes, grows to fit a frame
   larger than that (a fragment image), and drops back once it is
   drained, so an idle connection holds a few KiB whatever it carried
   last.  A payload is handed to its decoder as a slice of the buffer,
   before the buffer is refilled: the codec reads within its own
   bounds and copies out every string it returns, so nothing decoded
   aliases the buffer and no payload is copied. *)
type reader = {
  rd_fd : Unix.file_descr;
  mutable rd_buf : Bytes.t;
  mutable rd_pos : int;
  mutable rd_len : int;
}

let initial_buffer = 4096

let reader fd =
  { rd_fd = fd; rd_buf = Bytes.create initial_buffer; rd_pos = 0; rd_len = 0 }

(* The bytes the frame at [rd_pos] needs from [rd_pos], its header
   included: the frame is complete when that many are buffered.  An
   over-long length is refused as soon as its header is in, before
   anything is sized by it. *)
let frame_need r =
  if r.rd_len - r.rd_pos < 4 then 4
  else
    let n =
      Int32.to_int (Bytes.get_int32_be r.rd_buf r.rd_pos) land 0xFFFF_FFFF
    in
    if n > max_frame then failwith "Sockio: oversized frame" else 4 + n

(* Step past the complete frame at [rd_pos], [need] bytes, and decode
   its payload where it lies. *)
let take_frame r decode need =
  let off = r.rd_pos + 4 in
  r.rd_pos <- r.rd_pos + need;
  decode r.rd_buf off (need - 4)

(* Make room after [rd_len] for the [need] bytes the frame at [rd_pos]
   needs: restart a drained buffer at offset 0 and at its initial size,
   then slide a partial frame to the front, growing the buffer if the
   frame is larger than it. *)
let make_room r need =
  let live = r.rd_len - r.rd_pos in
  if live = 0 then begin
    if Bytes.length r.rd_buf > initial_buffer then
      r.rd_buf <- Bytes.create initial_buffer;
    r.rd_pos <- 0;
    r.rd_len <- 0
  end;
  if r.rd_pos + need > Bytes.length r.rd_buf then begin
    let b =
      if need > Bytes.length r.rd_buf then
        Bytes.create (max need (2 * Bytes.length r.rd_buf))
      else r.rd_buf
    in
    Bytes.blit r.rd_buf r.rd_pos b 0 live;
    r.rd_buf <- b;
    r.rd_pos <- 0;
    r.rd_len <- live
  end

let read_frame_with ?timeout r decode =
  let deadline = Option.map (fun t -> Pax_obs.Clock.now () +. t) timeout in
  let rec go () =
    let need = frame_need r in
    if need <= r.rd_len - r.rd_pos then Some (take_frame r decode need)
    else begin
      make_room r need;
      wait_readable r.rd_fd deadline;
      match
        Unix.read r.rd_fd r.rd_buf r.rd_len (Bytes.length r.rd_buf - r.rd_len)
      with
      | 0 ->
          if r.rd_len = r.rd_pos then None
          else failwith "Sockio: connection closed mid-frame"
      | k ->
          r.rd_len <- r.rd_len + k;
          go ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    end
  in
  go ()

let read_frame ?timeout r = read_frame_with ?timeout r Bytes.sub_string

(* The frames already buffered, decoded in order, and the bytes the one
   at [rd_pos] still needs. *)
let rec take_buffered r decode acc =
  let need = frame_need r in
  if need <= r.rd_len - r.rd_pos then
    take_buffered r decode (take_frame r decode need :: acc)
  else (List.rev acc, need)

let read_available r decode =
  match take_buffered r decode [] with
  | (_ :: _ as frames), _ -> Some frames
  | [], need -> (
      make_room r need;
      match
        Unix.read r.rd_fd r.rd_buf r.rd_len (Bytes.length r.rd_buf - r.rd_len)
      with
      | 0 ->
          if r.rd_len = r.rd_pos then None
          else failwith "Sockio: connection closed mid-frame"
      | k ->
          r.rd_len <- r.rd_len + k;
          Some (fst (take_buffered r decode []))
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> Some [])

(* Every writer of a shared connection serializes whole writes (the
   client's per-site send lock, the server's per-connection write
   lock). *)
let write_bytes fd b len =
  let rec go off =
    if off < len then
      match Unix.write fd b off (len - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let write_frame fd payload =
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  write_bytes fd b (4 + n)
