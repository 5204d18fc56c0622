(* The admission cost predictor (docs/SERVING.md): turns the paper's
   pre-run-predictable computation bound into seconds the scheduler can
   weigh against a deadline.

   The auditor's comp bound |Q|·|T| is known before a query executes —
   that is the paper's point — and the PR 9 cost ledger shows its
   predicted/actual ratio is stable per deployment.  So the predictor
   keeps, per (engine, query): the comp-bound op budget from the last
   audited run, and globally: an EWMA of observed seconds-per-op (the
   deployment's calibration constant).  Predicted cost = ops × sec/op.
   A query never seen before falls back to the EWMA of whole-run
   seconds; a completely cold predictor predicts nothing (cost 0 — the
   deadline is then checked against queue depth alone, which is the
   only honest estimate available).

   The budget is the bound, not the ops the last run actually charged.
   PaX2's combined pass skips the subtrees a query cannot reach
   (lib/core/flat_pass.ml), so actual ops differ by up to two orders
   of magnitude across query shapes (Q1 charges about 1% of what Q3
   does), while every run also pays a fixed cost — rounds, rpc, unify —
   that its ops do not count.  The queries that skip most are nearly
   all fixed cost, so one seconds-per-op constant fitted to actual ops
   comes out inflated and overprices the rest: on perfbench's traced
   serve-cpu run (seed 1) it moved the median predicted/actual ratio
   from 1.29 to 7.15.  The bound grows with the query and the tree,
   not with what a pass skips, and keeps that ratio near 1. *)

type t = {
  lock : Mutex.t;
  alpha : float;  (* EWMA weight of the newest observation *)
  sink : Pax_obs.Sink.t;
  known : (string * string, float) Hashtbl.t;
      (* (engine, query) -> comp-bound op budget from the last audit *)
  mutable sec_per_op : float;
  mutable mean_seconds : float;
  mutable runs : int;
}

let create ?(alpha = 0.2) ?(sink = Pax_obs.Sink.noop) () =
  if not (alpha > 0. && alpha <= 1.) then
    invalid_arg "Admit.create: need 0 < alpha <= 1";
  {
    lock = Mutex.create ();
    alpha;
    sink;
    known = Hashtbl.create 64;
    sec_per_op = 0.;
    mean_seconds = 0.;
    runs = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let comp_ops (report : Pax_obs.Audit.report) =
  List.find_map
    (fun (b : Pax_obs.Audit.bound) ->
      if b.Pax_obs.Audit.b_name = "comp" then Some b.Pax_obs.Audit.b_limit
      else None)
    report.Pax_obs.Audit.bounds

let ewma ~alpha ~first old x = if first then x else (alpha *. x) +. ((1. -. alpha) *. old)

let observe t ~engine ~query ~(audit : Pax_obs.Audit.report) ~seconds =
  if seconds >= 0. then
    locked t (fun () ->
        let first = t.runs = 0 in
        t.runs <- t.runs + 1;
        t.mean_seconds <- ewma ~alpha:t.alpha ~first t.mean_seconds seconds;
        (match comp_ops audit with
        | Some ops when ops > 0. ->
            Hashtbl.replace t.known (engine, query) ops;
            let spo = seconds /. ops in
            t.sec_per_op <-
              ewma ~alpha:t.alpha ~first:(t.sec_per_op = 0.) t.sec_per_op spo
        | _ -> ());
        Pax_obs.Sink.set t.sink "pax_admit_sec_per_op" t.sec_per_op;
        Pax_obs.Sink.set t.sink "pax_admit_runs" (float_of_int t.runs))

let predict t ~engine ~query =
  locked t (fun () ->
      match Hashtbl.find_opt t.known (engine, query) with
      | Some ops when t.sec_per_op > 0. -> Some (ops *. t.sec_per_op)
      | _ -> if t.runs > 0 then Some t.mean_seconds else None)

let runs t = locked t (fun () -> t.runs)
let sec_per_op t = locked t (fun () -> t.sec_per_op)
