(* Standalone entry point for the multicore scaling benchmark:

     dune exec bench/scaling_main.exe            full (280 paper-MB)
     PAX_BENCH_QUICK=1 dune exec ...             smoke scale
     PAX_BENCH_OUT=path ...                      where the JSON goes
                                 (default bench-results/BENCH_PR2.json)

   The @bench-smoke alias runs this in quick mode and schema-checks the
   emitted JSON with bench/validate_bench.ml. *)

let () = Scaling.run ()
