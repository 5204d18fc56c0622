(* Bechamel micro-benchmarks of the evaluation kernels every evaluator
   runs (the flat bottom-up qualifier pass, top-down selection pass and
   PaX2's combined traversal), the centralized and streaming
   evaluators, query compilation and formula operations. *)

open Bechamel
open Toolkit

module Tree = Pax_xml.Tree
module Query = Pax_xpath.Query
module Formula = Pax_bool.Formula
module Var = Pax_bool.Var

let doc = Pax_xmark.Xmark.doc ~seed:5 ~total_nodes:8_000 ~n_sites:1
let q3 = Query.of_string Pax_xmark.Xmark.q3
let compiled = q3.Query.compiled

let q1 = Query.of_string Pax_xmark.Xmark.q1

(* The flat image and plan, built once as a store does at load; the
   flat sel/combined rows run with [is_root:true], which for the
   absolute Q3 adds the one-node #document wrapper — noise at 8k
   nodes, same shape as the engines' fragment-0 stage. *)
let ft = Pax_frag.Fragment.trivial doc
let fl = Pax_frag.Fragment.flat ft 0
let fplan = Pax_core.Flat_pass.make_plan compiled (Pax_frag.Fragment.intern ft)
let fq = Pax_core.Flat_pass.qual_run fplan fl ~is_root:false

let residual =
  Formula.or_
    (List.init 8 (fun i ->
         Formula.conj
           (Formula.var (Var.Qual (i, 0)))
           (Formula.not_ (Formula.var (Var.Sel_ctx (i, 1))))))

let tests =
  Test.make_grouped ~name:"kernels"
    [
      Test.make ~name:"qualifier-pass flat (8k nodes)"
        (Staged.stage (fun () ->
             Pax_core.Flat_pass.qual_run fplan fl ~is_root:false));
      Test.make ~name:"selection-pass flat (8k nodes)"
        (Staged.stage (fun () ->
             Pax_core.Flat_pass.sel_run fplan fl
               ~init:(Pax_core.Flat_pass.blank_init compiled)
               ~is_root:true ~qual:(Some fq)));
      Test.make ~name:"combined-pass flat (8k nodes)"
        (Staged.stage (fun () ->
             Pax_core.Flat_pass.combined_run fplan fl
               ~init:(Pax_core.Flat_pass.blank_init compiled)
               ~is_root:true));
      Test.make ~name:"centralized Q3 (8k nodes)"
        (Staged.stage (fun () -> Pax_core.Centralized.run q3 doc.Tree.root));
      (let xml = Pax_xml.Printer.to_string doc.Tree.root in
       Test.make ~name:"streaming Q3 (8k nodes, incl. scan)"
         (Staged.stage (fun () -> Pax_core.Stream_eval.over_string q3 xml)));
      Test.make ~name:"centralized Q1 (8k nodes)"
        (Staged.stage (fun () -> Pax_core.Centralized.run q1 doc.Tree.root));
      Test.make ~name:"query compile (Q3)"
        (Staged.stage (fun () -> Query.of_string Pax_xmark.Xmark.q3));
      Test.make ~name:"formula subst (8-way residual)"
        (Staged.stage (fun () ->
             Formula.subst
               (fun v ->
                 match v with
                 | Var.Qual (i, _) -> Some (Formula.bool (i mod 2 = 0))
                 | Var.Sel_ctx _ | Var.Qual_at _ -> None)
               residual));
    ]

let run () =
  Setup.header "Micro-benchmarks (Bechamel, monotonic clock)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second (if Setup.quick then 0.25 else 1.0))
      ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  Printf.printf "%-42s %15s\n" "kernel" "ns/run";
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> Printf.printf "%-42s %15.0f\n" name est
      | Some _ | None -> Printf.printf "%-42s %15s\n" name "-")
    (List.sort compare rows)
