(* Pointer reference vs flat stage kernels (the flat hot-path claim):

     dune exec bench/flat_main.exe               full sweep
     PAX_BENCH_QUICK=1 dune exec ...             smoke scale
     PAX_BENCH_OUT=path ...                      where the JSON goes
                                 (default bench-results/BENCH_PR7.json)

   Each row times one stage loop — the bottom-up qualifier pass or the
   top-down selection pass — over the same single-fragment XMark
   document, once through the pointer reference kernels
   (test/helpers/pointer.ml) and once through the flat image
   (Pax_core.Flat_pass, every evaluator's only path), best-of-N wall
   time.  The queries are the relative forms of the XMark workload so
   both sides run the pure in-fragment loop with the root as context
   and no #document wrapper.  Outcomes are cross-checked for
   bit-identity before a row is emitted; the flat image build (paid
   once at load, not per query) is reported separately as
   "flat_build_s".  PaX2's combined traversal has no pointer
   reference, so it has no row.

   The @bench-smoke alias runs this quick and schema-checks the JSON
   with bench/validate_bench.ml; the committed BENCH_PR7.json comes
   from a full run. *)

module Tree = Pax_xml.Tree
module Flat = Pax_xml.Flat
module Query = Pax_xpath.Query
module Fragment = Pax_frag.Fragment
module Formula = Pax_bool.Formula
module Qual_pass = Test_helpers.Pointer.Qual_pass
module Sel_pass = Test_helpers.Pointer.Sel_pass
module Flat_pass = Pax_core.Flat_pass
module J = Bench_json

let quick = Sys.getenv_opt "PAX_BENCH_QUICK" <> None
let nodes = if quick then 8_000 else 120_000
let repeats = if quick then 3 else 7

(* Relative forms: context at the fragment root, no wrapping. *)
let queries =
  [
    "site/people/person";
    "site/open_auctions//annotation";
    "site/people/person[profile/age > 20 and address/country = \"US\"]/creditcard";
  ]

let time_best f =
  let best = ref infinity in
  for _ = 1 to repeats do
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    let t1 = Unix.gettimeofday () in
    if t1 -. t0 < !best then best := t1 -. t0
  done;
  !best

let ids ns = List.map (fun (n : Tree.node) -> n.Tree.id) ns

let () =
  let doc = Pax_xmark.Xmark.doc ~seed:7 ~total_nodes:nodes ~n_sites:4 in
  let root = doc.Tree.root in
  let ft = Fragment.trivial doc in
  (* The store prewarms its images at load, so [Fragment.flat] is a
     cache hit; time a fresh build for the amortized-cost honesty
     line. *)
  let t0 = Unix.gettimeofday () in
  ignore (Flat.of_tree ~intern:(Fragment.intern ft) root : Flat.t);
  let build_s = Unix.gettimeofday () -. t0 in
  let fl = Fragment.flat ft 0 in
  let rows = ref [] in
  let row ~query ~kernel ~pointer_s ~flat_s ~agree =
    Printf.printf "%-10s %-72s pointer %8.4fs  flat %8.4fs  x%.2f%s\n" kernel
      query pointer_s flat_s (pointer_s /. flat_s)
      (if agree then "" else "  DISAGREES");
    rows :=
      J.Obj
        [
          ("query", J.Str query);
          ("kernel", J.Str kernel);
          ("pointer_s", J.Num pointer_s);
          ("flat_s", J.Num flat_s);
          ("speedup", J.Num (pointer_s /. flat_s));
          ("agree", J.Bool agree);
        ]
      :: !rows
  in
  List.iter
    (fun qs ->
      let q = Query.of_string qs in
      let compiled = q.Query.compiled in
      let plan = Flat_pass.make_plan compiled (Fragment.intern ft) in
      (* Qualifier pass (Stage 1 of PaX3). *)
      let qp = Qual_pass.run compiled root in
      let fq = Flat_pass.qual_run plan fl ~is_root:false in
      row ~query:qs ~kernel:"qual"
        ~pointer_s:(time_best (fun () -> Qual_pass.run compiled root))
        ~flat_s:(time_best (fun () -> Flat_pass.qual_run plan fl ~is_root:false))
        ~agree:
          (qp.Qual_pass.ops = fq.Flat_pass.q_ops
          && qp.Qual_pass.root_vec = fq.Flat_pass.q_root_vec);
      (* Selection pass (Stage 2 of PaX3), qualifiers ground. *)
      let init = Sel_pass.blank_init compiled in
      let sat (v : Tree.node) filter =
        Qual_pass.sat compiled
          (Hashtbl.find qp.Qual_pass.vectors v.Tree.id)
          v filter
      in
      let sp =
        Sel_pass.run compiled ~init ~root_is_context:true ~sat root
      in
      let fs = Flat_pass.sel_run plan fl ~init ~is_root:true ~qual:(Some fq) in
      row ~query:qs ~kernel:"sel"
        ~pointer_s:
          (time_best (fun () ->
               Sel_pass.run compiled ~init ~root_is_context:true ~sat root))
        ~flat_s:
          (time_best (fun () ->
               Flat_pass.sel_run plan fl ~init ~is_root:true ~qual:(Some fq)))
        ~agree:
          (sp.Sel_pass.ops = fs.Flat_pass.ops
          && ids sp.Sel_pass.answers
             = List.map (Flat.node_id fl) fs.Flat_pass.answers
          && List.length sp.Sel_pass.candidates
             = List.length fs.Flat_pass.candidates))
    queries;
  let json =
    J.Obj
      [
        ("bench", J.Str "flat");
        ("pr", J.int 7);
        ("quick", J.Bool quick);
        ("cores", J.int (Domain.recommended_domain_count ()));
        ("nodes", J.int nodes);
        ("repeats", J.int repeats);
        ("flat_build_s", J.Num build_s);
        ("queries", J.List (List.map (fun q -> J.Str q) queries));
        ("results", J.List (List.rev !rows));
      ]
  in
  Printf.printf "wrote %s (flat image build: %.4fs)\n"
    (J.write "BENCH_PR7.json" json)
    build_s
