module Pe = Pax_engine.Pe
module Cluster = Pax_dist.Cluster
module Query = Pax_xpath.Query

type ctor =
  Pax_frag.Fragment.t -> n_sites:int -> assign:(int -> int) -> Pe.packed

let syntax_error pos msg = Printf.sprintf "syntax error at %d: %s" pos msg

(* PaX2/PaX3, plain or annotated, share everything but the runner. *)
let xpath ~ename ~annotations ~runner : ctor =
 fun ftree ~n_sites ~assign ->
  (module struct
    type query = Query.t

    let name = ename

    let parse text =
      match Query.of_string text with
      | q -> Ok q
      | exception Pax_xpath.Parse.Syntax_error { pos; msg } ->
          Error (syntax_error pos msg)

    let make_cluster ?domains ?transport () =
      Cluster.create ?domains ?transport ~ftree ~n_sites ~assign ()

    let run cl q =
      let r = runner ~annotations cl q in
      {
        Pe.engine = ename;
        query = q.Query.source;
        answer_keys = Array.of_list r.Run_result.answer_ids;
        report = r.Run_result.report;
        audit = Guarantee.audit ~engine:ename ~ftree r;
      }
  end)

let pax2_run ~annotations cl q = Pax2.run ~annotations cl q
let pax3_run ~annotations cl q = Pax3.run ~annotations cl q
let pax2 = xpath ~ename:"pax2" ~annotations:false ~runner:pax2_run
let pax2_xa = xpath ~ename:"pax2-xa" ~annotations:true ~runner:pax2_run
let pax3 = xpath ~ename:"pax3" ~annotations:false ~runner:pax3_run
let pax3_xa = xpath ~ename:"pax3-xa" ~annotations:true ~runner:pax3_run

let parbox : ctor =
 fun ftree ~n_sites ~assign ->
  (module struct
    (* Keep the source text: it is the canonical query the outcome
       echoes, and ParBoX's audit wraps it back into a Query.t. *)
    type query = string * Pax_xpath.Ast.qual

    let name = "parbox"

    let parse text =
      match Pax_xpath.Parse.qual text with
      | q -> Ok (text, q)
      | exception Pax_xpath.Parse.Syntax_error { pos; msg } ->
          Error (syntax_error pos msg)

    let make_cluster ?domains ?transport () =
      Cluster.create ?domains ?transport ~ftree ~n_sites ~assign ()

    let run cl (source, qual) =
      let answer, report = Parbox.eval cl qual in
      let rq =
        Query.of_ast ~source
          {
            Pax_xpath.Ast.absolute = false;
            path = Pax_xpath.Ast.Qualified (Pax_xpath.Ast.Empty, qual);
          }
      in
      let r =
        Run_result.make ~trace:(Cluster.trace cl) ~query:rq ~answers:[]
          ~report ()
      in
      {
        Pe.engine = name;
        query = source;
        answer_keys = (if answer then [| 1 |] else [||]);
        report;
        audit = Guarantee.audit ~engine:name ~ftree r;
      }
  end)

let of_name = function
  | "pax2" -> Some pax2
  | "pax2-xa" -> Some pax2_xa
  | "pax3" -> Some pax3
  | "pax3-xa" -> Some pax3_xa
  | "parbox" -> Some parbox
  | _ -> None

let names = [ "pax2"; "pax2-xa"; "pax3"; "pax3-xa"; "parbox" ]
