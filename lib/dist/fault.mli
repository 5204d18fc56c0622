(** Deterministic, seedable fault injection for the cluster, in-process
    or over sockets.

    A fault plan is a pure decision function consulted by {!Cluster} at
    every visit attempt and every message transmission, on either
    backend.  Decisions depend only on the plan and on the (site, round,
    attempt) or message context — never on wall-clock time, global RNG
    state or the order visits run in — so any schedule replays
    identically at any pool degree, which is what makes failing
    schedules shrinkable and reportable.

    Faults injected on attempt [n] leave later attempts alone unless the
    plan says otherwise, so a plan built from [?times:k] rules is always
    survivable by a retry policy allowing more than [k] attempts. *)

type visit_fate =
  | Visit_ok
  | Lost_request  (** the visit request never reaches the site *)
  | Lost_reply
      (** the site executes the visit, but its reply is lost — the
          coordinator re-delivers and the site {e replays} the visit *)
  | Down  (** the site is crashed; nothing executes *)

type msg_ctx = {
  m_src : Trace.endpoint;
  m_dst : Trace.endpoint;
  m_kind : Trace.msg_kind;
  m_label : string;
  m_round : int;
  m_attempt : int;  (** 1-based transmission attempt *)
}

type action = Deliver | Drop | Duplicate | Delay of float

type t

(** The empty plan: every visit succeeds, every message is delivered. *)
val none : t

val on_message : t -> msg_ctx -> action
val on_visit : t -> site:int -> round:int -> attempt:int -> visit_fate

(** {1 Constructors} *)

val make :
  ?message:(msg_ctx -> action) ->
  ?visit:(site:int -> round:int -> attempt:int -> visit_fate) ->
  unit ->
  t

(** [seeded ~seed ()] draws every decision from a hash of [(seed,
    context)]: [drop]/[dup]/[delay] are per-transmission probabilities
    for messages, [lose] the probability a visit request or reply is
    lost, and [crash] the probability a (site, round) starts with the
    site down for one or two attempts.  All faults are transient, so a
    run under the default retry policy terminates (almost always with
    answers, occasionally with [Cluster.Site_unreachable] when a
    message exhausts its attempts — never with a wrong answer). *)
val seeded :
  ?drop:float ->
  ?dup:float ->
  ?delay:float ->
  ?lose:float ->
  ?crash:float ->
  seed:int ->
  unit ->
  t

(** [drop_message pred] drops the first [times] (default 1)
    transmission attempts of every message matching [pred]. *)
val drop_message : ?times:int -> (msg_ctx -> bool) -> t

(** Deliver matching messages twice (on their first attempt). *)
val duplicate_message : (msg_ctx -> bool) -> t

(** Deliver matching messages after [seconds] of simulated delay. *)
val delay_message : seconds:float -> (msg_ctx -> bool) -> t

(** [crash_site ~site ~round ()] crashes the site for the first
    [down_for] visit attempts of the given round; with the default
    [down_for = max_int] the site never restarts and the run must end
    in [Cluster.Site_unreachable]. *)
val crash_site : ?down_for:int -> site:int -> round:int -> unit -> t

(** Lose the reply of the first [times] (default 1) visit attempts of
    the given (site, round): the site executes, the coordinator
    re-delivers, the site replays. *)
val lose_reply : ?times:int -> site:int -> round:int -> unit -> t

(** The first plan's decision that is not [Deliver]/[Visit_ok] wins. *)
val all : t list -> t
