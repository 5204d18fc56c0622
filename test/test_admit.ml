(* The admission cost predictor (lib/serve/admit.ml): what it predicts
   cold, for a query it has not seen, and for one it has, and which
   EWMA weights it accepts. *)

module Admit = Pax_serve.Admit
module Audit = Pax_obs.Audit

(* An audit whose comp bound allows [ops] operations. *)
let audit ~ops =
  Audit.of_bounds
    [ Audit.bound ~name:"comp" ~formula:"test" ~actual:1. ~limit:ops ]

let no_comp = Audit.of_bounds []
let close_to = Alcotest.(option (float 1e-12))

let test_cold () =
  let a = Admit.create () in
  Alcotest.(check close_to) "nothing seen" None
    (Admit.predict a ~engine:"pax2" ~query:"/a")

(* A query without a known budget is priced at the EWMA of whole-run
   seconds, over every run seen. *)
let test_mean_fallback () =
  let a = Admit.create ~alpha:0.5 () in
  Admit.observe a ~engine:"pax2" ~query:"/a" ~audit:no_comp ~seconds:1.;
  Admit.observe a ~engine:"pax2" ~query:"/b" ~audit:(audit ~ops:100.)
    ~seconds:3.;
  Alcotest.(check close_to) "unseen query" (Some 2.)
    (Admit.predict a ~engine:"pax2" ~query:"/c");
  Alcotest.(check close_to) "seen without a comp bound" (Some 2.)
    (Admit.predict a ~engine:"pax2" ~query:"/a");
  Alcotest.(check close_to) "same text, other engine" (Some 2.)
    (Admit.predict a ~engine:"pax3" ~query:"/b");
  Alcotest.(check int) "runs" 2 (Admit.runs a)

(* A known query is priced at its comp-bound budget times the EWMA of
   seconds per bound op, whatever its own last run took. *)
let test_known () =
  let a = Admit.create ~alpha:0.25 () in
  Admit.observe a ~engine:"pax2" ~query:"/a" ~audit:(audit ~ops:1000.)
    ~seconds:0.5;
  Alcotest.(check close_to) "one run" (Some 0.5)
    (Admit.predict a ~engine:"pax2" ~query:"/a");
  Admit.observe a ~engine:"pax2" ~query:"/b" ~audit:(audit ~ops:4000.)
    ~seconds:1.;
  let spo = (0.25 *. (1. /. 4000.)) +. (0.75 *. (0.5 /. 1000.)) in
  Alcotest.(check (float 1e-15)) "sec_per_op" spo (Admit.sec_per_op a);
  Alcotest.(check close_to) "budget x sec_per_op" (Some (1000. *. spo))
    (Admit.predict a ~engine:"pax2" ~query:"/a");
  Alcotest.(check close_to) "other budget" (Some (4000. *. spo))
    (Admit.predict a ~engine:"pax2" ~query:"/b")

let test_alpha_range () =
  List.iter
    (fun alpha ->
      match Admit.create ~alpha () with
      | _ -> Alcotest.failf "alpha %g accepted" alpha
      | exception Invalid_argument _ -> ())
    [ 0.; -0.1; 1.5; Float.nan ];
  List.iter
    (fun alpha -> ignore (Admit.create ~alpha () : Admit.t))
    [ 1e-3; 1. ]

let () =
  Alcotest.run "admit"
    [
      ( "admit",
        [
          Alcotest.test_case "cold predictor predicts nothing" `Quick test_cold;
          Alcotest.test_case "unknown query: whole-run mean" `Quick
            test_mean_fallback;
          Alcotest.test_case "known query: bound ops x sec_per_op" `Quick
            test_known;
          Alcotest.test_case "alpha outside (0, 1] rejected" `Quick
            test_alpha_range;
        ] );
    ]
