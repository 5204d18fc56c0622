(** Structured event log of one distributed evaluation.

    Every visit, message transmission, retry and site crash/restart is
    recorded as an event, in order.  The paper's §6 cost model — visit
    counts, and the [O(|Q||FT| + |ans|)] communication bound — is then
    assertable {e post hoc} from the log instead of from live counters,
    and stays assertable when a fault plan ({!Fault}) forces
    retransmissions:

    - a {e logical} visit is one (site, round) pair the coordinator
      engaged, no matter how many delivery attempts it took; the paper's
      ≤ 2 / ≤ 3 bounds are stated over logical visits;
    - a {e logical} message is one [Cluster.send], no matter how many
      times the transport had to put it on the wire; the communication
      bound is stated over logical bytes.

    Physical counts (every attempt, every transmission) are also
    recoverable, for measuring the overhead a fault schedule induced. *)

type endpoint = Coordinator | Site of int

type msg_kind = Query | Vectors | Resolution | Answers | Tree_data

type delivery =
  | Delivered
  | Dropped  (** put on the wire, never arrived; a retry follows *)
  | Duplicated  (** delivered, plus a spurious second copy *)
  | Delayed of float  (** delivered after this many simulated seconds *)

type event =
  | Round_start of { round : int; label : string }
  | Visit of { site : int; round : int; attempt : int; replay : bool }
      (** the site actually executed the visit's work; [replay] marks a
          re-execution after a lost reply *)
  | Message of {
      src : endpoint;
      dst : endpoint;
      kind : msg_kind;
      bytes : int;
      label : string;
      attempt : int;  (** 1 = the logical transmission *)
      status : delivery;
    }
  | Retry of { site : int; round : int; attempt : int; reason : string }
  | Site_down of { site : int; round : int; attempt : int }
  | Site_restart of { site : int; round : int; attempt : int }
  | Gave_up of { site : int; round : int; attempts : int }

type t

val create : unit -> t
val clear : t -> unit
val add : t -> event -> unit

(** Events in emission order. *)
val events : t -> event list

val length : t -> int

(** {1 Post-hoc analysis} *)

(** Distinct rounds in which the coordinator engaged the site (whether
    or not any attempt succeeded). *)
val logical_visits : t -> site:int -> int

(** Max over sites of {!logical_visits} — the quantity bounded by ≤ 2
    (PaX2) / ≤ 3 (PaX3). *)
val max_logical_visits : t -> int

(** Number of times the site actually executed visit work, counting
    replays. *)
val physical_visits : t -> site:int -> int

val max_physical_visits : t -> int

(** Total [Retry] events (visit and message retries alike). *)
val retries : t -> int

(** Number of rounds started. *)
val rounds : t -> int

(** Logical message count: one per [Cluster.send] (attempt-1 records
    only), however many retransmissions or duplicate copies followed. *)
val logical_messages : t -> int

(** Wire transmissions: every attempt counts (a [Dropped] copy was
    sent, just never arrived) and a [Duplicated] delivery counts twice
    for its spurious second copy. *)
val physical_messages : t -> int

(** Copies one [Message] record put on the wire: 2 for a [Duplicated]
    delivery, else 1 (the rule {!physical_messages} counts by). *)
val physical_of_status : delivery -> int

(** Bytes of the given kind that crossed the wire, weighting each
    record by its transmission count (see {!physical_messages}). *)
val physical_bytes : t -> kind:msg_kind -> int

(** Bytes of the given kind, counting each logical message once
    (attempt 1 only — retransmissions and duplicates excluded). *)
val logical_bytes : t -> kind:msg_kind -> int

(** Logical bytes of the control kinds: [Query] + [Vectors] +
    [Resolution] — everything but answers and shipped fragments. *)
val logical_control_bytes : t -> int

(** Stable lower-case name of a message kind (["query"], ["vectors"],
    …) — used as a metric label by {!Cluster} and the net client. *)
val kind_name : msg_kind -> string

val pp_event : Format.formatter -> event -> unit
val pp : Format.formatter -> t -> unit
