(** The cache-coherence feed (docs/SERVING.md): keeps N coordinators'
    stage caches coherent through the site servers' generation-vector
    relay.

    Each coordinator {!attach}es its socket mux to its local fragment
    tree: every [Gen_event] the servers push is max-merged into the
    tree's generation counters, and the {!Cache}'s per-lookup
    generation check then treats the affected entries as stale — no
    cache surgery, staleness stays exact.  A coordinator that mutates
    a fragment ({!Pax_frag.Update.apply}, a migration) calls
    {!publish}; the servers acknowledge, merge, and fan the event out
    to every live connection.

    With an enabled sink: counters [pax_feed_events_total],
    [pax_feed_invalidations_total], [pax_feed_publishes_total],
    [pax_feed_full_pushes_total]. *)

type t

(** Hook the mux's [Gen_event] stream (replacing any previous hook)
    and merge every delivered tree-fragment generation into [ft].  The
    hook runs on whichever mux thread reads the push. *)
val attach :
  ?sink:Pax_obs.Sink.t -> mux:Pax_net.Client.t -> Pax_frag.Fragment.t -> t

(** Announce the listed fragments' current local generations to every
    site (best-effort per site).  Call after {!Pax_frag.Update.apply}
    (with the touched fid) or after a migration. *)
val publish : t -> fids:int list -> unit

(** {!publish} every fragment whose local generation is nonzero —
    what a coordinator calls after a bulk change (rebalance). *)
val publish_all : t -> unit

(** Pull and merge every site's generation vector — startup sync for
    a coordinator joining after updates have happened. *)
val sync : t -> unit

(** Push fragment [fid]'s last update to [site]: how an updating
    coordinator propagates post-[Update.apply] {e data} (not just
    invalidation) to the server that evaluates stages on it.  The edit
    travels alone ([Frag_update] with [Edit]) when the site holds the
    version it patched; otherwise the site answers with the typed
    stale-base error and the whole image follows at the fragment's
    version (counted as [pax_feed_full_pushes_total]).  Either form
    clears the site's retirement fence for [fid], as the migration
    install at placement [epoch] does. *)
val push_fragment :
  t -> site:int -> fid:int -> epoch:int -> (string, string) result
