(* The coherence feed (docs/SERVING.md): the glue between a
   coordinator's local fragment tree and the generation-vector relay
   the site servers run.

   Receiving side: [attach] hooks the mux's [Gen_event] stream and
   max-merges every delivered (fid, generation) pair into the local
   Fragment.t — the stage cache checks generations on every lookup, so
   the merge *is* the invalidation.  Publishing side: after a local
   Update.apply or migration, [publish] announces the touched
   fragments' generations to every site; each site acknowledges,
   max-merges, and fans a [Gen_event] back out to every live
   connection — including other coordinators', which is the point.
   Data side: [push_fragment] ships an update to the site holding the
   fragment, as the edit alone when the site holds its base. *)

module Wire = Pax_wire.Wire
module Client = Pax_net.Client
module Fragment = Pax_frag.Fragment

type t = {
  mux : Client.t;
  ft : Fragment.t;
  lock : Mutex.t;
      (* threads reading different sites may deliver events
         concurrently; the fragment tree's generation array is plain
         mutable state, so the read-modify-write max is serialized *)
  sink : Pax_obs.Sink.t;
}

let merge t gens =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      let invalidated = ref 0 in
      List.iter
        (fun (fid, gen) ->
          if fid >= 0 && fid < Fragment.n_fragments t.ft then begin
            if gen > Fragment.generation t.ft fid then incr invalidated;
            Fragment.merge_generation t.ft fid gen
          end)
        gens;
      !invalidated)

let attach ?(sink = Pax_obs.Sink.noop) ~mux ft =
  let t = { mux; ft; lock = Mutex.create (); sink } in
  Client.on_gen_event mux (fun kind gens ->
      match kind with
      | Wire.Tree_frag ->
          Pax_obs.Sink.count t.sink "pax_feed_events_total";
          let invalidated = merge t gens in
          if invalidated > 0 then
            Pax_obs.Sink.count t.sink
              ~by:(float_of_int invalidated)
              "pax_feed_invalidations_total"
      | Wire.Graph_frag ->
          (* Graph fragments carry no generation-checked cache yet;
             count and drop. *)
          Pax_obs.Sink.count t.sink "pax_feed_events_total");
  t

(* Announce to every site (any one would relay to all connected
   coordinators, but coordinators connect to all sites, and a site
   down for one publish must still learn the generation for its own
   [Gen_fetch] answers), in one round: every site gets the frame
   before any reply is awaited.  Best-effort per site: an unreachable
   site misses the publish; its next [Gen_fetch] from any coordinator
   that heard it resyncs nothing — the publisher's own ft stays the
   authority and re-publishing is idempotent (max-merge). *)
let publish t ~fids =
  let gens =
    List.filter_map
      (fun fid ->
        if fid >= 0 && fid < Fragment.n_fragments t.ft then
          Some (fid, Fragment.generation t.ft fid)
        else None)
      (List.sort_uniq compare fids)
  in
  if gens <> [] then begin
    Pax_obs.Sink.count t.sink "pax_feed_publishes_total";
    ignore (Client.publish_gens t.mux ~kind:Wire.Tree_frag gens)
  end

let publish_all t =
  let fids = ref [] in
  for fid = Fragment.n_fragments t.ft - 1 downto 0 do
    if Fragment.generation t.ft fid > 0 then fids := fid :: !fids
  done;
  publish t ~fids:!fids

(* Startup sync: pull every site's generation vector and merge — a
   coordinator joining after updates have happened starts coherent
   instead of serving stale cache entries until the first event. *)
let sync t =
  for site = 0 to Client.n_sites t.mux - 1 do
    match Client.fetch_gens t.mux ~site ~kind:Wire.Tree_frag with
    | gens -> ignore (merge t gens)
    | exception _ -> ()
  done

(* Update propagation for replicated stores: after a local
   Update.apply, push the update to the site that owns the fragment
   (the servers evaluate stages on their own copy — without this they
   would keep answering from pre-update data).  The fragment's last
   edit travels alone, named against the version it patched.  A site
   that cannot show that version (restarted, installed by a migration,
   pushed to by another coordinator, or two edits behind) refuses it
   with the typed stale-base error, and the whole image follows at the
   fragment's version: the one recovery path.  So does an update with
   no recorded edit.  Either form clears [fid]'s retirement fence, as
   the migration install does at [epoch]. *)
let push_fragment t ~site ~fid ~epoch =
  let version = Fragment.version t.ft fid in
  let push change = Client.frag_update t.mux ~site ~fid ~epoch ~version change in
  let whole () =
    push (Wire.Image (Pax_xml.Flat.encode (Fragment.flat t.ft fid)))
  in
  match Fragment.last_edit t.ft fid with
  | None -> whole ()
  | Some (base, edit) -> (
      match push (Wire.Edit { base; edit }) with
      | Error e when Wire.is_stale_base e ->
          Pax_obs.Sink.count t.sink "pax_feed_full_pushes_total";
          whole ()
      | reply -> reply)
