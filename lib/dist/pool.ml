(* Fixed-size domain pool.  One batch at a time: the driver publishes
   {n; run_one} under the mutex and bumps [generation]; workers (and the
   driver itself) claim task indices from an atomic counter until it
   runs dry, then report how many tasks they completed.  The batch is
   done when the completion count reaches [n] — only then can every
   claimed index also have finished. *)

type batch = { n : int; run_one : int -> unit; next : int Atomic.t }

type t = {
  deg : int;
  mutex : Mutex.t;
  wake : Condition.t;  (* new batch published, or shutdown *)
  finished_cv : Condition.t;  (* completion count reached n *)
  mutable batch : batch option;
  mutable generation : int;
  mutable finished : int;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

(* Claim and run tasks until the counter is exhausted, then account the
   completions in one mutex section. *)
let chew t (b : batch) =
  let rec loop k =
    let i = Atomic.fetch_and_add b.next 1 in
    if i < b.n then begin
      b.run_one i;
      loop (k + 1)
    end
    else k
  in
  let k = loop 0 in
  if k > 0 then begin
    Mutex.lock t.mutex;
    t.finished <- t.finished + k;
    if t.finished = b.n then Condition.broadcast t.finished_cv;
    Mutex.unlock t.mutex
  end

let worker_loop t =
  let last_gen = ref 0 in
  let rec loop () =
    Mutex.lock t.mutex;
    while (not t.stop) && t.generation = !last_gen do
      Condition.wait t.wake t.mutex
    done;
    if t.stop then Mutex.unlock t.mutex
    else begin
      last_gen := t.generation;
      let b = t.batch in
      Mutex.unlock t.mutex;
      (match b with Some b -> chew t b | None -> ());
      loop ()
    end
  in
  loop ()

let create ~domains =
  if domains < 1 then invalid_arg "Pool.create: need domains >= 1";
  let t =
    {
      deg = domains;
      mutex = Mutex.create ();
      wake = Condition.create ();
      finished_cv = Condition.create ();
      batch = None;
      generation = 0;
      finished = 0;
      stop = false;
      workers = [];
    }
  in
  t.workers <-
    List.init (domains - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let degree t = t.deg

(* With an enabled sink, each task gets a span on its worker's track
   plus a queue-wait observation (publish -> claim).  The wrapper is
   built once per batch; with the no-op sink [run_one] is untouched, so
   instrumentation costs the disabled path nothing. *)
let instrument obs run_one =
  if not obs.Pax_obs.Sink.enabled then run_one
  else begin
    let published = Pax_obs.Clock.now () in
    fun i ->
      let t0 = Pax_obs.Clock.now () in
      Pax_obs.Sink.observe obs "pax_pool_queue_wait_seconds" (t0 -. published);
      let finish () =
        Pax_obs.Sink.record obs ~cat:"pool"
          ~track:(Printf.sprintf "pool worker %d" (Domain.self () :> int))
          (Printf.sprintf "task %d" i)
          ~t0
          ~t1:(Pax_obs.Clock.now ())
      in
      match run_one i with
      | () -> finish ()
      | exception e ->
          finish ();
          raise e
  end

let run ?(obs = Pax_obs.Sink.noop) t ~n run_one =
  let run_one = instrument obs run_one in
  if n > 0 then
    if t.deg = 1 || n = 1 then
      for i = 0 to n - 1 do
        run_one i
      done
    else begin
      let b = { n; run_one; next = Atomic.make 0 } in
      Mutex.lock t.mutex;
      t.batch <- Some b;
      t.finished <- 0;
      t.generation <- t.generation + 1;
      Condition.broadcast t.wake;
      Mutex.unlock t.mutex;
      chew t b;
      Mutex.lock t.mutex;
      while t.finished < n do
        Condition.wait t.finished_cv t.mutex
      done;
      t.batch <- None;
      Mutex.unlock t.mutex
    end

let map ?obs t f xs =
  let n = Array.length xs in
  if t.deg = 1 || n <= 1 then Array.map f xs
  else begin
    let out = Array.make n None in
    run ?obs t ~n (fun i ->
        out.(i) <-
          Some
            (match f xs.(i) with
            | v -> Ok v
            | exception e -> Error (e, Printexc.get_raw_backtrace ())));
    (* In-order traversal re-raises the smallest failed index first. *)
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false)
      out
  end

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.wake;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

(* Process-wide pools, one per degree: tests and benchmarks create many
   short-lived clusters and must not spawn domains for each. *)
let registry : (int, t) Hashtbl.t = Hashtbl.create 4
let registry_mutex = Mutex.create ()

let shared ~domains =
  if domains < 1 then invalid_arg "Pool.shared: need domains >= 1";
  Mutex.lock registry_mutex;
  let pool =
    match Hashtbl.find_opt registry domains with
    | Some p -> p
    | None ->
        let p = create ~domains in
        Hashtbl.add registry domains p;
        p
  in
  Mutex.unlock registry_mutex;
  pool
