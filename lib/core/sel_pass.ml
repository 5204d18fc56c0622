module Tree = Pax_xml.Tree
module Compile = Pax_xpath.Compile
module Formula = Pax_bool.Formula
module Var = Pax_bool.Var

type outcome = {
  answers : Tree.node list;
  candidates : (Tree.node * Formula.t) list;
  contexts : (int * Formula.t array) list;
  ops : int;
}

(* SV recurrence for one node, given the parent's vector.  Entry 0 is
   the "is the context node" bit, filled by the caller. *)
let eval_entries compiled ~sat (v : Tree.node) (sv_p : Formula.t array)
    (sv : Formula.t array) =
  let items = compiled.Compile.sel in
  for i = 1 to Array.length items do
    match items.(i - 1) with
    | Compile.Move test ->
        sv.(i) <-
          (if Compile.matches test v.tag then sv_p.(i - 1) else Formula.false_)
    | Compile.Dos_item -> sv.(i) <- Formula.disj sv_p.(i) sv.(i - 1)
    | Compile.Filter q ->
        (* Dead prefixes never consult their qualifier. *)
        sv.(i) <-
          (if sv.(i - 1) = Formula.false_ then Formula.false_
           else Formula.conj sv.(i - 1) (sat v q))
  done

let run compiled ~init ~root_is_context ~sat (root : Tree.node) : outcome =
  let n = compiled.Compile.n_sel in
  let last = n - 1 in
  let ops = ref 0 in
  let answers = ref [] in
  let candidates = ref [] in
  let contexts = ref [] in
  let rec go (v : Tree.node) ~is_context (sv_p : Formula.t array) =
    match v.kind with
    | Tree.Virtual fid ->
        (* The parent's vector is exactly what the sub-fragment's
           Sel_ctx variables stand for (paper: returnSet). *)
        contexts := (fid, Array.copy sv_p) :: !contexts
    | Tree.Element ->
        ops := !ops + n;
        let sv = Array.make n Formula.false_ in
        sv.(0) <- Formula.bool is_context;
        eval_entries compiled ~sat v sv_p sv;
        (match Formula.to_bool sv.(last) with
        | Some true -> answers := v :: !answers
        | Some false -> ()
        | None -> candidates := (v, sv.(last)) :: !candidates);
        List.iter (fun c -> go c ~is_context:false sv) v.children
  in
  go root ~is_context:root_is_context init;
  {
    answers = List.rev !answers;
    candidates = List.rev !candidates;
    contexts = List.rev !contexts;
    ops = !ops;
  }

let blank_init compiled = Array.make compiled.Compile.n_sel Formula.false_

let symbolic_init compiled ~fid =
  Array.init compiled.Compile.n_sel (fun i ->
      Formula.var (Var.Sel_ctx (fid, i)))

let context_root compiled (root : Tree.node) =
  if compiled.Compile.absolute then
    ( { Tree.id = -1; tag = "#document"; text = None; attrs = [];
        children = [ root ]; kind = Tree.Element },
      true )
  else (root, true)
