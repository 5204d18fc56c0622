(* Bench-side instrumentation.  Every number here comes from wrapping a
   public entry point of a layer from outside: a [Pe.S] module that
   delegates to the real engine (execution start and end), the
   [Transport.t] handed to its [make_cluster] (one rpc span per
   [visit_round]), and the cluster's [Stage_cache.t] (lookup and hit
   counts).  Nothing inside the program records anything for the
   benchmark. *)

module Cluster = Pax_dist.Cluster
module Transport = Pax_dist.Transport
module Stage_cache = Pax_dist.Stage_cache
module Pe = Pax_engine.Pe

(* One engine execution: from [make_cluster] (the first call a
   scheduler worker makes for an admitted run) to the end of [run].
   The rpc and cache fields are filled only when the run is traced. *)
type exec = {
  x_start : float;
  x_traced : bool;
  mutable x_end : float;
  mutable x_rpcs : (float * float) list;  (** one span per visit round *)
  mutable x_retries : int;
  mutable x_lookups : int;
  mutable x_hits : int;
}

let rpc_seconds x = List.fold_left (fun s (t0, t1) -> s +. (t1 -. t0)) 0. x.x_rpcs

let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* Whether a run starting at the given time is traced.  Set once per
   benchmark run, before the load starts. *)
let traced_at : (float -> bool) ref = ref (fun _ -> false)

(* The execution in progress on each worker thread: [make_cluster],
   the mount's [tune] and [run] of one query all happen on the same
   scheduler worker. *)
let current : (int, exec) Hashtbl.t = Hashtbl.create 8
let current_exec () = locked (fun () -> Hashtbl.find current (Thread.id (Thread.self ())))

(* Finished executions waiting for their caller, keyed by the physical
   outcome value the engine returned: the coordinator hands that same
   value back through the scheduler's ticket. *)
let finished : (Pe.outcome * exec) list ref = ref []

let claim (o : Pe.outcome) =
  locked (fun () ->
      match List.partition (fun (o', _) -> o' == o) !finished with
      | [ (_, x) ], rest ->
          finished := rest;
          x
      | _ -> failwith "perfbench: outcome without an engine execution")

let wrap_transport x (tr : Transport.t) =
  {
    tr with
    Transport.visit_round =
      (fun ~round ~label ~retry reqs ->
        let retry ~site ~attempt ~reason =
          x.x_retries <- x.x_retries + 1;
          retry ~site ~attempt ~reason
        in
        let t0 = Mono.now () in
        let replies = tr.Transport.visit_round ~round ~label ~retry reqs in
        x.x_rpcs <- (t0, Mono.now ()) :: x.x_rpcs;
        replies);
  }

(* [engine inner] — the same engine under the same name, timed. *)
let engine (inner : Pe.packed) : Pe.packed =
  let module I = (val inner) in
  (module struct
    type query = I.query

    let name = I.name
    let parse = I.parse

    let make_cluster ?domains ?transport () =
      let start = Mono.now () in
      let x =
        {
          x_start = start;
          x_traced = !traced_at start;
          x_end = start;
          x_rpcs = [];
          x_retries = 0;
          x_lookups = 0;
          x_hits = 0;
        }
      in
      locked (fun () -> Hashtbl.replace current (Thread.id (Thread.self ())) x);
      let transport =
        if x.x_traced then Option.map (wrap_transport x) transport
        else transport
      in
      I.make_cluster ?domains ?transport ()

    let run cl q =
      let x = current_exec () in
      let o = I.run cl q in
      x.x_end <- Mono.now ();
      locked (fun () -> finished := (o, x) :: !finished);
      o
  end)

(* The mount's [tune] hook: runs after the coordinator installed its
   stage cache, so a traced run counts that cache's traffic. *)
let tune cl =
  let x = current_exec () in
  if x.x_traced then begin
    let c = Cluster.stage_cache cl in
    Cluster.set_stage_cache cl
      {
        c with
        Stage_cache.lookup =
          (fun ~qkey ~fid ->
            let r = c.Stage_cache.lookup ~qkey ~fid in
            x.x_lookups <- x.x_lookups + 1;
            if r <> None then x.x_hits <- x.x_hits + 1;
            r);
      }
  end
