(** The engine-agnostic partial-evaluation contract (docs/ENGINES.md).

    A {e PE engine} is anything that answers queries over data
    fragmented across the sites of a {!Pax_dist.Cluster}: it parses
    query text, builds a cluster wired to its placement, evaluates by
    local partial evaluation plus coordinator unification, and states
    its own performance guarantees as an audit report.  The XPath
    engines (PaX2/PaX3/ParBoX, [lib/core/Engines]) and the graph
    reachability engine ([lib/graph/Reach]) are the two instantiations;
    the serving layer, CLI coordinator and benches depend only on this
    interface.

    The placement — which data, how many sites, which fragment lives
    where — is baked into an engine {e instance} at construction time
    (the constructors live with the engines, e.g.
    [Engines.pax3 ftree ~n_sites ~assign]).  Callers above the seam
    never see fragment trees or graph partitions. *)

module Cluster = Pax_dist.Cluster

(** What one evaluation produced, in engine-neutral terms.

    [answer_keys] identifies the answer set for bit-identity checks
    across transports and schedulers: sorted node ids for XPath
    engines, [[|1|]]/[[||]] for Boolean engines.  The serving layer
    keeps outcomes after the run, so an outcome holds values only: the
    cluster's event trace, which its next run clears, stays with the
    cluster ({!Cluster.trace}, reached through [run_text]'s [tune]). *)
type outcome = {
  engine : string;
  query : string;  (** canonical query text, as the engine echoes it *)
  answer_keys : int array;
  report : Cluster.report;
  audit : Pax_obs.Audit.report;
}

module type S = sig
  type query

  val name : string
  (** stable identifier, e.g. ["pax3-xa"], ["reach"] *)

  val parse : string -> (query, string) result
  (** Total: malformed text yields [Error msg], never an exception. *)

  val make_cluster :
    ?domains:int -> ?transport:Pax_dist.Transport.t -> unit -> Cluster.t
  (** A fresh cluster over this instance's placement.  Each call is
      independent; the serving layer makes one per backend (in-process)
      or one per run (sockets). *)

  val run : Cluster.t -> query -> outcome
  (** Evaluate on a cluster obtained from {!make_cluster} (resets it
      first).  May raise {!Cluster.Site_unreachable} or
      {!Pax_dist.Transport.Remote_failure} when the transport gives
      out; never raises on valid input over a healthy cluster. *)
end

type packed = (module S)

val name : packed -> string

(** [validate e text] — parse-check without running (the serving layer
    rejects malformed queries before scheduling). *)
val validate : packed -> string -> (unit, string) result

(** [run_text e ?domains ?transport ?tune text] — the one-call path:
    parse, build a cluster, apply [tune] (stage caches, fault plans,
    service delay — anything {!Cluster} exposes), run.

    @raise Invalid_argument if [text] does not parse — callers that
    take untrusted input must {!validate} first. *)
val run_text :
  packed ->
  ?domains:int ->
  ?transport:Pax_dist.Transport.t ->
  ?tune:(Cluster.t -> unit) ->
  string ->
  outcome
