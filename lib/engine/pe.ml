module Cluster = Pax_dist.Cluster

type outcome = {
  engine : string;
  query : string;
  answer_keys : int array;
  report : Cluster.report;
  audit : Pax_obs.Audit.report;
}

module type S = sig
  type query

  val name : string
  val parse : string -> (query, string) result

  val make_cluster :
    ?domains:int -> ?transport:Pax_dist.Transport.t -> unit -> Cluster.t

  val run : Cluster.t -> query -> outcome
end

type packed = (module S)

let name (module E : S) = E.name

let validate (module E : S) text =
  match E.parse text with Ok _ -> Ok () | Error e -> Error e

let run_text (module E : S) ?domains ?transport ?(tune = ignore) text =
  match E.parse text with
  | Error msg ->
      invalid_arg (Printf.sprintf "Pe.run_text: %s: %s" E.name msg)
  | Ok q ->
      let cl = E.make_cluster ?domains ?transport () in
      tune cl;
      E.run cl q
