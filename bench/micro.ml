(* Bechamel micro-benchmarks of the evaluation kernels every evaluator
   runs (the flat bottom-up qualifier pass, top-down selection pass and
   PaX2's combined traversal), the flat image build a store pays per
   fragment at load, the centralized and streaming evaluators, query
   compilation and formula operations; then the wire codec on a stage-1
   reply, in microseconds and minor words. *)

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
      (* Into the store's table, which holds every label already, as a
         rebuild after an update does. *)
      Test.make ~name:"flat image build (8k nodes)"
        (Staged.stage (fun () ->
             Pax_xml.Flat.of_tree ~intern:(Pax_frag.Fragment.intern ft)
               doc.Tree.root));
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

(* A stage-1 reply as a site ships it: one fragment's root qualifier
   vector, one context vector and 100 answers (the first [name]
   elements of the 8k-node document, as [Wire.answer_of_slot] builds
   them), in a [Visit_reply] frame. *)
module Wire = Pax_wire.Wire
module Codec = Pax_bool.Codec

let stage1_reply =
  let fl = Pax_frag.Fragment.flat ft 0 in
  let names =
    List.filter
      (fun i -> Pax_xml.Flat.tag_name fl i = "name")
      (List.init (Pax_xml.Flat.length fl) Fun.id)
  in
  let vec =
    Array.init 6 (fun i ->
        if i mod 2 = 0 then Formula.var (Var.Qual (1, i)) else Formula.true_)
  in
  Wire.Frag_results
    [
      {
        Wire.fr_fid = 3;
        fr_vec = Some vec;
        fr_ctxs = [ (4, vec) ];
        fr_answers =
          Wire.answers_of_slots fl (List.filteri (fun i _ -> i < 100) names);
        fr_cands = 0;
        fr_ops = 1234;
      };
    ]

(* Microseconds and minor words per operation, over [n] runs after a
   warm-up run. *)
let per_op n f =
  ignore (Sys.opaque_identity (f ()));
  let w0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (f ()))
  done;
  let t1 = Unix.gettimeofday () and w1 = Gc.minor_words () in
  ((t1 -. t0) *. 1e6 /. float_of_int n, (w1 -. w0) /. float_of_int n)

let codec_rows () =
  let msg =
    Wire.Visit_reply { run = 123_456_789; round = 1; reply = Ok stage1_reply }
  in
  let w = Codec.writer () in
  let encode () =
    Codec.clear w;
    Wire.encode_frame w ~corr:7 msg
  in
  ignore (encode ());
  let frame = Bytes.sub (Codec.buffer w) 0 (Codec.length w) in
  let decode () = Wire.decode_slice frame 4 (Bytes.length frame - 4) in
  let size () =
    let n = ref 0 in
    Wire.reply_sections (fun _ sec -> n := !n + Wire.section_bytes sec)
      stage1_reply;
    !n
  in
  let n = if Setup.quick then 2_000 else 50_000 in
  Printf.printf "\n%-42s %10s %12s\n"
    (Printf.sprintf "codec, stage-1 reply (%d B frame)" (Bytes.length frame))
    "us/op" "words/op";
  List.iter
    (fun (name, f) ->
      let us, words = per_op n f in
      Printf.printf "%-42s %10.2f %12.0f\n" name us words)
    [
      ("encode into the connection's writer", fun () -> ignore (encode ()));
      ("decode in place", fun () -> ignore (decode ()));
      ("size its sections (accounting)", fun () -> ignore (size ()));
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
    (List.sort compare rows);
  codec_rows ()
