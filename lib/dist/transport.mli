(** The transport seam under {!Cluster.run_round}: how a round of site
    visits is actually executed.  The engines describe each visit as a
    {!Pax_wire.Wire.call} and read the {!Pax_wire.Wire.reply} back; the
    transport delivers the calls.  Two backends: {!local} answers them
    in process, on a {!Pool} of domains, and {!Pax_net.Client} moves
    them over sockets to site servers.

    Failure contract: [visit_round] reports every delivery failure
    (connection refused, EOF, timeout) through [retry] — once per
    failed attempt — and retries the visit when [retry] returns.  The
    cluster owns the retry budget: when it is exhausted, [retry] raises
    {!Cluster.Site_unreachable}, which aborts the round.  A reply
    carrying a server-side error raises {!Remote_failure} instead
    (retrying a deterministic failure cannot help). *)

module Wire = Pax_wire.Wire

(** Cumulative byte accounting over the transport's lifetime, both
    directions.  [section_bytes]/[sections]/[frag_entries] come from
    {!Wire.tally} and tie measured traffic to the simulator's accounted
    traffic (docs/NETWORK.md). *)
type stats = {
  sent_bytes : int;
  received_bytes : int;
  section_bytes : int;
  sections : int;
  frag_entries : int;
  frames : int;
}

val zero_stats : stats

(** [diff_stats cur base] — per-field subtraction (a run's delta). *)
val diff_stats : stats -> stats -> stats

exception Remote_failure of { site : int; message : string }

type t = {
  describe : string;  (** for banners and traces, e.g. ["unix:/tmp/s0"] *)
  visit_round :
    round:int ->
    label:string ->
    retry:(site:int -> attempt:int -> reason:string -> unit) ->
    (int * Wire.call) list ->
    (int * Wire.reply * float) list;
      (** Execute one round: send every request (pipelined across
          sites), then collect replies.  Results follow the input order;
          the float is the per-site wall-clock seconds spent. *)
  stats : unit -> stats;
  reset_run : unit -> unit;
      (** Start a fresh run (new run id): called by {!Cluster.reset}. *)
  close : unit -> unit;
}

(** A run's site procedure in process: [handler site ~round call] is
    site [site]'s reply to [call] in round [round]. *)
type handler = int -> round:int -> Wire.call -> Wire.reply

(** [local ?obs ~domains ~service_delay handler] — the in-process
    backend.  [visit_round] calls [handler] once per listed site, on
    the shared pool of degree [domains] ([obs] instruments its tasks),
    and passes the replies on as values, never encoded.  A site's
    seconds are the handler's wall-clock time plus [service_delay].  It
    never calls [retry]; a handler's exception propagates from the
    first failing site in input order.  [stats] stay zero. *)
val local :
  ?obs:Pax_obs.Sink.t -> domains:int -> service_delay:float -> handler -> t
