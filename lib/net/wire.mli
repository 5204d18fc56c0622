(** The binary wire protocol spoken between the coordinator and site
    servers (docs/NETWORK.md).

    A {e frame} is a big-endian [u32] payload length followed by the
    payload ({!Pax_net.Sockio} reads and writes frames); a payload is a
    version byte, a varint {e correlation id}, a message tag and a
    tag-specific body.  The correlation id (new in protocol v2, see
    docs/SERVING.md) is stamped on requests and echoed on replies so
    many in-flight runs can share one socket; [0] means uncorrelated.
    Inside bodies, every quantity the simulator's cost model charges
    for travels as a {e section}: a kind byte (one per
    {!Pax_dist.Cluster.msg_kind}), a [u24] payload length and the
    payload — exactly [4 + payload] bytes.  The cluster accounts a
    round's traffic from the sections of its calls and replies
    ({!call_sections}, {!reply_sections}), so summed section bytes of a
    run equal its accounted traffic to the byte.  All remaining bytes
    (frame header, envelope fields, per-fragment structure) are
    {e framing overhead}, bounded by {!frame_overhead},
    {!frag_overhead} and {!section_overhead}.

    Every type is described once, as a {!Pax_bool.Codec} value that
    sizes, writes and reads it, so accounted bytes are encoded bytes by
    construction.  {!decode_payload_corr} is total: corrupt input
    yields [Error _], never an exception. *)

module Formula = Pax_bool.Formula
module Tree = Pax_xml.Tree

val version : int

(** {1 Answers}

    Answer elements ship shallow: id, tag, character data and
    attributes of the answer node itself — the per-element unit of the
    paper's [O(|ans|)] term (children are part of other answers or not
    part of the answer at all). *)

type answer = {
  a_id : int;
  a_tag : string;
  a_text : string option;
  a_attrs : (string * string) list;
}

val answer_of_node : Tree.node -> answer

(** [answer_of_slot fl i] — the answer for slot [i] of a flat image,
    read from its columns; equal to {!answer_of_node} of the node the
    slot encodes.  Site servers and the in-process engines both ship
    answers through it. *)
val answer_of_slot : Pax_xml.Flat.t -> int -> answer

(** [answer_of_slot] over a slot list, dropping slot [-1] (the
    [#document] wrapper of an absolute query, never an answer). *)
val answers_of_slots : Pax_xml.Flat.t -> int list -> answer list

(** A childless [Element] node carrying the shipped fields; the id is
    the server-assigned one, so answer sets compare across transports. *)
val node_of_answer : answer -> Tree.node

(** {1 Sections} *)

type section =
  | Query of string  (** query source text *)
  | Vectors of Formula.t array  (** residual-formula vectors *)
  | Resolution of Pax_bool.Bits.t  (** unified ground vectors *)
  | Answers of answer list  (** shipped answer elements *)
  | Tree_data of string  (** a printed XML (sub)document *)
  | Frag_flat of Pax_xml.Flat.t
      (** a flat fragment image ({!Pax_xml.Flat.encode}): the columnar
          buffers blitted as-is, for shipping prebuilt fragments
          between processes.  NaiveCentralized's [Ship] reply carries
          one per fragment; no other engine stage ships one. *)

(** The section codec: a kind byte, then the payload under a [u24]
    length, written in place. *)
val section : section Pax_bool.Codec.t

(** Serialized size of a section including its 4-byte header — the
    byte count accounting charges: {!section}'s [size]. *)
val section_bytes : section -> int

(** {1 Visit calls}

    One request per (site, round): the engine-stage payload for every
    fragment the site holds.  [fe_init] is [None] when the site can
    derive the initial vector itself (blank for the root fragment,
    symbolic otherwise); annotated runs ship the pruned vector
    explicitly. *)

type frag_eval = {
  fe_fid : int;
  fe_is_root : bool;
  fe_init : Formula.t array option;
}

(** Unified qualifier values for a fragment's sub-fragments. *)
type sub_resolution = (int * Pax_bool.Bits.t) list

type call =
  | Pax2_stage1 of { query : string; frags : frag_eval list }
  | Pax2_stage2 of { frags : (int * Pax_bool.Bits.t * sub_resolution) list }
  | Pax3_stage1 of { query : string; fids : int list }
  | Pax3_stage2 of { query : string; frags : (frag_eval * sub_resolution) list }
  | Pax3_stage3 of { frags : (int * Pax_bool.Bits.t) list }
  | Reach_stage1 of { query : string; fids : int list }
      (** distributed graph reachability ([lib/graph/]): one local
          partial evaluation per listed graph fragment; the reply is
          [Frag_results] with one residual-formula vector per fragment
          (one formula per boundary in-node, plus one for the source
          when the fragment owns it) *)
  | Calls of call list
      (** several calls answered in one visit, element [i] against the
          site's [i]-th per-query state (Batch: one call per query);
          the reply is [Replies] in the same order *)
  | Count of call
      (** the wrapped call, answered with its answer elements counted,
          not shipped (Count): the reply is [Counted].  [Calls] and
          [Count] are wrappers over plain calls: a wrapper inside a
          wrapper is [Corrupt] on decode and [Invalid_argument] on
          encode *)
  | Ship of { fids : int list }
      (** ship the listed fragments whole (NaiveCentralized); the reply
          is [Images] *)

(** Per-fragment stage result.  [fr_vec] is the root qualifier (or
    selection) vector when the stage ships one; [fr_cands] the number
    of unresolved candidates kept at the site. *)
type frag_result = {
  fr_fid : int;
  fr_vec : Formula.t array option;
  fr_ctxs : (int * Formula.t array) list;
  fr_answers : answer list;
  fr_cands : int;
  fr_ops : int;
}

type reply =
  | Frag_results of frag_result list
  | Final_answers of { answers : answer list; ops : int }
  | Replies of reply list  (** a [Calls] call's replies, in order *)
  | Counted of { reply : reply; counts : int list }
      (** a [Count] call's reply: the wrapped call's reply with every
          answer list emptied, and the lengths of those lists in wire
          order.  The counts ride as framing, like [fr_cands] *)
  | Images of (int * Pax_xml.Flat.t) list
      (** a [Ship] call's fragments, each as a [Frag_flat] section *)

(** {1 Fragment images}

    Elastic sharding ships whole fragments between sites as opaque,
    kind-tagged byte strings: tree fragments as their
    {!Pax_xml.Flat.encode} image (total-decoding, intern-remapping at
    the receiver), graph fragments as their [Gfrag.encode] image.
    pax_wire cannot depend on pax_graph, so image payloads are
    validated at install time by the receiving server, not here. *)

type frag_kind = Tree_frag | Graph_frag

type frag_image = { fi_kind : frag_kind; fi_bytes : string }

(** Prefix of the typed stale-epoch rejection carried in a
    [Visit_reply] error string: a visit stamped with a placement epoch
    at or past the fragment's retirement is refused with this marker,
    and the client routes it through the retry budget (the placement
    table may still be converging) instead of raising a permanent
    remote failure. *)
val stale_epoch_prefix : string

val stale_epoch_error : fid:int -> retired:int -> epoch:int -> string
val is_stale_epoch : string -> bool

(** {1 Pushed updates}

    After an update, the coordinator pushes it to the site holding the
    fragment, as the edit alone or as the whole image.  A [version] is
    the content identity [(generation, writer)] of
    {!Pax_frag.Fragment.version}. *)

type version = int * int

type frag_change =
  | Edit of { base : version; edit : Pax_xml.Flat.edit }
      (** patch the held image, which must be at version [base] *)
  | Image of string
      (** replace the held image with this {!Pax_xml.Flat.encode}
          image, decoded over the site's intern table *)

(** Prefix of the typed refusal a site answers an [Edit] with when it
    cannot show it holds the edit's base: it holds another version, no
    version (after a restart or a [Frag_install]), or an image the
    edit does not apply to.  The sender then pushes the whole image. *)
val stale_base_prefix : string

val stale_base_error : fid:int -> held:version option -> base:version -> string
val is_stale_base : string -> bool

(** {1 Messages} *)

type msg =
  | Visit_request of {
      run : int;
      round : int;
      site : int;
      epoch : int;
          (** coordinator's placement epoch when the run was admitted;
              lets a site that retired a fragment refuse visits routed
              under metadata the sender should already have seen
              ({!stale_epoch_prefix}) while still serving older
              in-flight runs from kept data *)
      label : string;
      call : call;
      parent : int option;
          (** trace context: the coordinator's rpc-span id, appended
              as a single trailing varint when (and only when) the
              sender traces — the site parent-links its own spans to
              it.  Control plane: never tallied, absent frames are
              byte-identical to pre-extension builds, and decoders
              accept both forms (back-compat). *)
    }
  | Visit_reply of { run : int; round : int; reply : (reply, string) result }
  | Ping
  | Pong
  | Shutdown
  | Stats_request
      (** ask a site server for its telemetry counters *)
  | Stats_reply of (string * float) list
      (** sorted [(series, value)] pairs as {!Pax_obs.Metrics.pairs}
          flattens them; values travel as IEEE-754 bits, so counters
          compare byte-exactly across the wire.  Stats frames carry no
          sections and are excluded from accounted traffic. *)
  | Run_done of { run : int }
      (** the coordinator is finished with a run: the server may evict
          every per-run state it kept (stage vectors, reply memos).
          Best-effort session control — no reply, no sections; losing it
          only delays eviction until the server's LRU bound kicks in. *)
  | Frag_fetch of { fid : int; kind : frag_kind; parent : int option }
      (** ask the site holding [fid] for its wire image; answered by
          [Frag_image].  [parent] is the trace-context extension, as
          on [Visit_request]. *)
  | Frag_image of { fid : int; image : (frag_image, string) result }
  | Frag_install of {
      fid : int;
      epoch : int;
      image : frag_image;
      parent : int option;
    }
      (** install [image] as fragment [fid] at the receiving site,
          effective at placement epoch [epoch]; idempotent (replaying
          an install is a no-op in effect), clears any retirement fence
          for [fid]; answered by [Admin_reply] *)
  | Frag_retire of {
      fid : int;
      epoch : int;
      kind : frag_kind;
      parent : int option;
    }
      (** fence fragment [fid] at the source site: visits stamped with
          an epoch [>= epoch] are refused with the typed stale-epoch
          error, while older in-flight runs keep being served from the
          retained data (drain-free migration); answered by
          [Admin_reply] *)
  | Admin_reply of { reply : (string, string) result }
      (** acknowledgment for [Frag_install]/[Frag_retire].  Migration
          frames are control plane: like stats traffic they carry no
          sections and are excluded from per-query accounted traffic
          (the admin byte volume is surfaced via pax_obs counters). *)
  | Spans_fetch
      (** drain a site server's span ring (answered by [Spans_reply]);
          raw telemetry IO like [Stats_request] — never counted, never
          tallied *)
  | Spans_reply of { server_now : float; spans : Pax_obs.Span.span list }
      (** the drained spans plus the server's {!Pax_obs.Clock.now}
          reading taken while building the reply: paired with the
          client's send/receive readings it yields the per-site clock
          offset used to align tracks in the merged Perfetto export
          (docs/OBSERVABILITY.md).  Clock readings travel as IEEE-754
          bits so alignment is byte-exact and deterministic under
          [Clock.Fake]. *)
  | Gen_publish of {
      kind : frag_kind;
      gens : (int * int) list;
      parent : int option;
    }
      (** a coordinator announces fragment generation counters
          ([(fid, generation)] pairs) after a local [Update.apply] or
          migration: the site max-merges them into its own table,
          answers [Admin_reply], and pushes a [Gen_event] to every
          live connection — the streamed invalidation feed that keeps
          every coordinator's stage cache coherent (docs/SERVING.md).
          Control plane like the migration frames: empty tally,
          [parent] is the trace-context extension. *)
  | Gen_event of { kind : frag_kind; gens : (int * int) list }
      (** server→client push (correlation id 0, no reply expected):
          fragment generations changed — receivers max-merge into
          their local {!Pax_fragment.Fragment.t}, which the existing
          cache generation check then treats as invalidation.
          Max-merging makes duplicates and reordering harmless. *)
  | Gen_fetch of { kind : frag_kind; parent : int option }
      (** pull the site's full generation vector (answered by
          [Gen_reply]) — startup sync for a coordinator that joins
          after updates have happened *)
  | Gen_reply of { kind : frag_kind; gens : (int * int) list }
      (** every [(fid, generation)] the site knows with a nonzero
          generation *)
  | Frag_update of {
      fid : int;
      epoch : int;
      version : version;
      change : frag_change;
      parent : int option;
    }
      (** an update of tree fragment [fid], pushed by the coordinator
          that made it: the site patches ([Edit]) or replaces
          ([Image]) the image it holds, records [version] as its
          version and clears [fid]'s retirement fence, as
          [Frag_install] does at placement [epoch]; answered by
          [Admin_reply], an [Edit] whose base the site cannot show with
          the typed stale-base error.  Control plane: empty tally,
          [parent] is the trace-context extension. *)

type error =
  | Bad_version of int
  | Corrupt of string  (** the reason and the payload offset it names *)

val pp_error : Format.formatter -> error -> unit

(** A payload — what travels after the [u32] length prefix.  [corr]
    defaults to [0] (uncorrelated). *)
val encode_payload : ?corr:int -> msg -> string

(** The payload's codec: the version byte, the correlation id and the
    message. *)
val envelope : (int * int * msg) Pax_bool.Codec.t

(** Total decoder of a payload, with its envelope correlation id — what
    the demultiplexing client reads first.  Never raises: a wrong
    version byte is [Bad_version], anything malformed (truncated
    included) [Corrupt]. *)
val decode_payload_corr : string -> (int * msg, error) result

(** {1 Accounting}

    One walk over a call's or a reply's sections, in wire order, with
    the label accounting gives each: ["Q"] for the query,
    ["QV(F<fid>)"] for a fragment's root qualifier vector,
    ["SV(F<sub>)"] for a context vector, ["ans(F<fid>)"] for a
    fragment's answers and ["ans"] for [Final_answers]'s,
    ["SV*(F<fid>)"] and ["QV*(F<sub>)"] for unified context and
    qualifier values, ["init(F<fid>)"] for a shipped initial vector and
    ["F<fid>"] for a flat image.  Wrappers ([Calls], [Count],
    [Replies], [Counted]) yield their elements' sections. *)

val call_sections : (string -> section -> unit) -> call -> unit
val reply_sections : (string -> section -> unit) -> reply -> unit

(** A frame's accounted section bytes and the counts of the structures
    that generate framing overhead: the sections {!call_sections} and
    {!reply_sections} yield, and the fragment entries.  Counted by the
    encoder or decoder as it passes them, so tallying costs no second
    walk.  Only visit calls and replies hold any. *)
type tally = { sections : int; section_bytes : int; frag_entries : int }

(** [encode_frame w ?corr m] appends one frame to [w]: the [u32]
    length, then {!encode_payload}'s bytes, written in one pass with the
    length filled in place.  Returns the frame's tally.  The frame is
    the last [4 + payload] bytes of [w]. *)
val encode_frame : Pax_bool.Codec.writer -> ?corr:int -> msg -> tally

(** [decode_slice b off len] decodes the payload in the [len] bytes of
    [b] from [off], in place, as {!decode_payload_corr} decodes a
    string, with the frame's tally.  Nothing decoded aliases [b]. *)
val decode_slice : Bytes.t -> int -> int -> (int * msg * tally, error) result

(** The tally of [m]'s frame, as {!encode_frame} returns it. *)
val tally : msg -> tally

(** Worst-case framing overhead (structure bytes outside sections):
    per frame, per fragment entry, and per section (the varint
    identifiers adjacent to a section).  docs/NETWORK.md derives the
    constants; the differential test holds measured traffic to
    [accounted + frames·frame + frags·frag + sections·section]. *)

val frame_overhead : int

val frag_overhead : int
val section_overhead : int
