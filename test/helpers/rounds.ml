(* Closure-driven rounds for the cluster's unit tests, over the real
   in-process transport: [install cl work] makes [work site ~round] what
   a site executes on each delivery, and [run cl ~label ~sites] returns
   its result per site.  The result travels back in a final-answers
   reply's op field. *)

module Cluster = Pax_dist.Cluster
module Wire = Pax_wire.Wire

let install cl work =
  Cluster.reset cl ~handler:(fun site ~round _ ->
      Wire.Final_answers { answers = []; ops = work site ~round })

let result = function
  | Wire.Final_answers { ops; _ } -> ops
  | _ -> invalid_arg "Rounds.result: not a test reply"

let remote parse =
  {
    Cluster.build = (fun _ -> Wire.Ship { fids = [] });
    parse = (fun site reply -> parse site (result reply));
  }

let run cl ~label ~sites =
  Cluster.run_round cl ~label ~sites (remote (fun _ v -> v))

(* [run_parsed ~parse] — [parse site result] on the cluster's side of
   the round, as an engine's parse callback. *)
let run_parsed ~parse cl ~label ~sites =
  Cluster.run_round cl ~label ~sites (remote parse)
