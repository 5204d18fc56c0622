module Tree = Pax_xml.Tree
module Query = Pax_xpath.Query
module Compile = Pax_xpath.Compile
module Formula = Pax_bool.Formula

type result = {
  answers : Tree.node list;
  answer_ids : int list;
  qual_ops : int;
  sel_ops : int;
}

let run (q : Query.t) (root : Tree.node) : result =
  Tree.iter
    (fun n ->
      if Tree.is_virtual n then
        invalid_arg "Centralized.run: tree contains virtual nodes")
    root;
  let compiled = q.Query.compiled in
  let eval_root, root_is_context = Sel_pass.context_root compiled root in
  let qp, qual_ops =
    if Compile.no_qualifiers compiled then (None, 0)
    else begin
      let qp = Qual_pass.run compiled eval_root in
      (Some qp, qp.Qual_pass.ops)
    end
  in
  let sat v filter =
    match qp with
    | None -> Qual_pass.sat compiled [||] v filter
    | Some qp ->
        Qual_pass.sat compiled
          (Hashtbl.find qp.Qual_pass.vectors v.Tree.id)
          v filter
  in
  let outcome =
    Sel_pass.run compiled ~init:(Sel_pass.blank_init compiled)
      ~root_is_context ~sat eval_root
  in
  assert (outcome.Sel_pass.candidates = []);
  (* The document node is never an answer. *)
  let answers =
    List.filter (fun (n : Tree.node) -> n.id >= 0) outcome.Sel_pass.answers
  in
  {
    answers;
    answer_ids = List.sort compare (List.map (fun (n : Tree.node) -> n.id) answers);
    qual_ops;
    sel_ops = outcome.Sel_pass.ops;
  }

let eval_ids q root = (run q root).answer_ids
