module Tree = Pax_xml.Tree
module Flat = Pax_xml.Flat
module Query = Pax_xpath.Query
module Compile = Pax_xpath.Compile

type result = {
  answers : Tree.node list;
  answer_ids : int list;
  qual_ops : int;
  sel_ops : int;
}

let run (q : Query.t) (root : Tree.node) : result =
  (* Slots are pre-order positions, so the pre-order node list maps a
     slot back to its node. *)
  let nodes =
    Array.of_list
      (List.rev
         (Tree.fold
            (fun acc n ->
              if Tree.is_virtual n then
                invalid_arg "Centralized.run: tree contains virtual nodes";
              n :: acc)
            [] root))
  in
  let compiled = q.Query.compiled in
  let flat = Flat.of_tree root in
  let plan = Flat_pass.make_plan compiled (Flat.intern flat) in
  let qual =
    if Compile.no_qualifiers compiled then None
    else Some (Flat_pass.qual_run plan flat ~is_root:true)
  in
  let outcome =
    Flat_pass.sel_run plan flat ~init:(Flat_pass.blank_init compiled)
      ~is_root:true ~qual
  in
  assert (outcome.Flat_pass.candidates = []);
  (* The #document wrapper (slot -1) is never an answer. *)
  let answers =
    List.filter_map
      (fun i -> if i >= 0 then Some nodes.(i) else None)
      outcome.Flat_pass.answers
  in
  {
    answers;
    answer_ids = List.sort compare (List.map (fun (n : Tree.node) -> n.id) answers);
    qual_ops = (match qual with Some qp -> qp.Flat_pass.q_ops | None -> 0);
    sel_ops = outcome.Flat_pass.ops;
  }

let eval_ids q root = (run q root).answer_ids
