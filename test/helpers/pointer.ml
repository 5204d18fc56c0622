(* The pointer passes: the paper's qualifier and selection passes as a
   recursive walk of the pointer tree, and the centralized two-pass
   evaluator built from them.  No evaluator runs them; they are the
   reference the flat kernels ({!Pax_core.Flat_pass}) are held to,
   op for op and entry for entry (test/test_passes.ml,
   test/test_flat.ml), and the oracle the distributed engines are
   checked against. *)

module Tree = Pax_xml.Tree
module Query = Pax_xpath.Query
module Compile = Pax_xpath.Compile
module Formula = Pax_bool.Formula

(* Bottom-up qualifier evaluation over one fragment (paper §3.1): one
   pass computes every node's qualifier vector with the per-node
   recurrence below, written over the compiled query's string tests and
   a node view, independently of the kernels' lowered one
   ({!Pax_core.Flat_pass.feval_entries}).  At a virtual node every
   entry is a fresh variable [Var.Qual (fid, e)]. *)
module Qual_pass = struct
  (* What the recurrence reads of a node: its tag, text, numeric value
     and attributes. *)
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

  (* Satisfaction of a filter at a node given the node's qualifier
     vector; ground when the vector is ground. *)
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

  (* One node's vector; [exists_child e] is the disjunction of entry [e]
     over the node's children.  Entries are filled path by path (nested
     paths first: compile order gives them the smaller indices) and,
     within a path, suffix-position descending, so every read hits an
     already-written entry. *)
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
                (if Compile.matches test v.vtag then a_next
                 else Formula.false_);
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

  type t = {
    vectors : (int, Formula.t array) Hashtbl.t;  (* node id -> vector *)
    root_vec : Formula.t array;  (* the fragment root's vector, shipped *)
    ops : int;  (* vector-entry operations performed *)
  }

  (* One node's vector from its children's vectors: the post-order
     step. *)
  let eval_node compiled ~ops (v : Tree.node) (child_vecs : Formula.t array list)
      : Formula.t array =
    let n_qual = compiled.Compile.n_qual in
    match v.kind with
    | Tree.Virtual fid ->
        ops := !ops + n_qual;
        Pax_core.Flat_pass.virtual_vec compiled fid
    | Tree.Element ->
        ops := !ops + (n_qual * (1 + List.length child_vecs));
        let exists_child e =
          List.fold_left
            (fun acc cv -> Formula.disj acc cv.(e))
            Formula.false_ child_vecs
        in
        eval_entries compiled (view_of_node v) ~exists_child

  (* [run compiled root] evaluates all qualifier entries bottom-up. *)
  let run compiled (root : Tree.node) : t =
    let vectors = Hashtbl.create 256 in
    let ops = ref 0 in
    let rec go v =
      let child_vecs = List.map go v.Tree.children in
      let vec = eval_node compiled ~ops v child_vecs in
      Hashtbl.replace vectors v.Tree.id vec;
      vec
    in
    let root_vec = go root in
    { vectors; root_vec; ops = !ops }

  (* [resolve t lookup] substitutes boundary variables in every stored
     vector in place, returning the operation count. *)
  let resolve t lookup =
    let n = ref 0 in
    Hashtbl.iter
      (fun _ vec ->
        n := !n + Array.length vec;
        Array.iteri (fun i f -> vec.(i) <- Formula.subst lookup f) vec)
      t.vectors;
    !n
end

(* Top-down selection-path evaluation over one fragment, procedure
   [topDown] of the paper (§3.2).  The recursion is the paper's stack:
   each call receives its parent's vector.  Per fragment: certain
   [answers], [candidates] whose last entry is residual, and for every
   virtual node the vector of its parent ([contexts], the returnSet). *)
module Sel_pass = struct
  type outcome = {
    answers : Tree.node list;
    candidates : (Tree.node * Formula.t) list;
    contexts : (int * Formula.t array) list;  (* sub-fragment fid -> ctx *)
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

  (* [run compiled ~init ~root_is_context ~sat root]: [init] is the
     vector of the root's parent, [root_is_context] whether [root] is
     the query's context node, [sat v q] qualifier satisfaction at
     [v]. *)
  let run compiled ~init ~root_is_context ~sat (root : Tree.node) : outcome =
    let n = compiled.Compile.n_sel in
    let last = n - 1 in
    let ops = ref 0 in
    let answers = ref [] in
    let candidates = ref [] in
    let contexts = ref [] in
    let rec go (v : Tree.node) ~is_context (sv_p : Formula.t array) =
      match v.kind with
      | Tree.Virtual fid -> contexts := (fid, Array.copy sv_p) :: !contexts
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

  let blank_init = Pax_core.Flat_pass.blank_init
  let symbolic_init = Pax_core.Flat_pass.symbolic_init

  (* Where evaluation of the root fragment starts: for an absolute
     query, a synthetic document node (id -1, tag "#document") wrapping
     [root]; for a relative query, [root] itself.  The second component
     is [root_is_context].  The document node never counts as an
     answer (negative id). *)
  let context_root compiled (root : Tree.node) =
    if compiled.Compile.absolute then
      ( { Tree.id = -1; tag = "#document"; text = None; attrs = [];
          children = [ root ]; kind = Tree.Element },
        true )
    else (root, true)
end

(* The centralized two-pass evaluator over the pointer passes: what
   {!Pax_core.Centralized.run} computes, answers, ids and ops alike. *)
let run (q : Query.t) (root : Tree.node) : Pax_core.Centralized.result =
  Tree.iter
    (fun n ->
      if Tree.is_virtual n then
        invalid_arg "Pointer.run: tree contains virtual nodes")
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
    Pax_core.Centralized.answers;
    answer_ids = List.sort compare (List.map (fun (n : Tree.node) -> n.id) answers);
    qual_ops;
    sel_ops = outcome.Sel_pass.ops;
  }

let eval_ids q root = (run q root).Pax_core.Centralized.answer_ids
