module Tree = Pax_xml.Tree
module Compile = Pax_xpath.Compile
module Formula = Pax_bool.Formula
module Var = Pax_bool.Var

(* The recurrence is defined over an abstract node view, so that the
   streaming engine and a check on a tree node share it. *)
type view = {
  vtag : string;
  vtext : string;
  vnum : float option;
  vattr : string -> string option;
}

let view_of_node (v : Tree.node) : view =
  {
    vtag = v.Tree.tag;
    vtext = Tree.text_of v;
    vnum = Tree.float_of v;
    vattr = Tree.attr v;
  }

let rec sat_view compiled vec (v : view) (q : Compile.qual) : Formula.t =
  match q with
  | Compile.Sat pi ->
      let p = compiled.Compile.paths.(pi) in
      if Array.length p.Compile.items = 0 then Formula.true_
      else vec.(p.Compile.sat.(0))
  | Compile.Text_eq s -> Formula.bool (v.vtext = s)
  | Compile.Val_cmp (op, num) ->
      Formula.bool
        (match v.vnum with
        | Some f -> Pax_xpath.Ast.compare_num op f num
        | None -> false)
  | Compile.Attr_test (name, value) ->
      Formula.bool
        (match (v.vattr name, value) with
        | Some _, None -> true
        | Some actual, Some expected -> actual = expected
        | None, _ -> false)
  | Compile.Qnot q -> Formula.not_ (sat_view compiled vec v q)
  | Compile.Qand (a, b) ->
      Formula.conj (sat_view compiled vec v a) (sat_view compiled vec v b)
  | Compile.Qor (a, b) ->
      Formula.disj (sat_view compiled vec v a) (sat_view compiled vec v b)

let sat compiled vec v q = sat_view compiled vec (view_of_node v) q

(* Compute one node's vector; [exists_child e] is the disjunction of
   entry [e] over the node's children.  Entries are filled path by path
   (nested paths first — compile order guarantees their indices are
   smaller) and, within a path, suffix-position descending, so every
   read hits an already-written entry. *)
let eval_entries compiled (v : view) ~exists_child : Formula.t array =
  let vec = Array.make compiled.Compile.n_qual Formula.false_ in
  Array.iter
    (fun (p : Compile.cpath) ->
      let k = Array.length p.Compile.items in
      for j = k - 1 downto 0 do
        let a_next =
          if j + 1 = k then Formula.true_ else vec.(p.Compile.sat.(j + 1))
        in
        match p.Compile.items.(j) with
        | Compile.Move test ->
            (* B_v(j): v matches the move, rest satisfiable below v. *)
            vec.(p.Compile.step.(j)) <-
              (if Compile.matches test v.vtag then a_next else Formula.false_);
            (* A_v(j): some child matches the move. *)
            vec.(p.Compile.sat.(j)) <- exists_child p.Compile.step.(j)
        | Compile.Dos_item ->
            (* D_v(j+1) = A_v(j+1) ∨ ∃ child. D_c(j+1); A_v(j) = D_v(j+1). *)
            let d =
              if j + 1 = k then Formula.true_
              else begin
                let e = p.Compile.desc.(j + 1) in
                vec.(e) <- Formula.disj a_next (exists_child e);
                vec.(e)
              end
            in
            vec.(p.Compile.sat.(j)) <- d
        | Compile.Filter q ->
            vec.(p.Compile.sat.(j)) <-
              (if a_next = Formula.false_ then Formula.false_
               else Formula.conj (sat_view compiled vec v q) a_next)
      done)
    compiled.Compile.paths;
  vec

let virtual_vec compiled fid =
  Array.init compiled.Compile.n_qual (fun e -> Formula.var (Var.Qual (fid, e)))
