module Tree = Pax_xml.Tree
module Sax = Pax_xml.Sax
module Intern = Pax_xml.Intern
module Compile = Pax_xpath.Compile
module Query = Pax_xpath.Query
module Formula = Pax_bool.Formula
module Var = Pax_bool.Var

type result = {
  matches : int list;
  elements : int;
  max_depth : int;
  peak_pending : int;
}

(* One frame per open element: the node the recurrence reads through
   [source].  Its text and number are unknown until the close tag, and
   read as [""] and [None] before it. *)
type frame = {
  index : int;  (** pre-order index; -1 for the synthetic document node *)
  tagc : int;  (** tag code in the run's table: -1 unknown, -3 document *)
  attrs : (int * string) list;  (** attributes whose key the query names *)
  buf : Buffer.t;
  mutable text : string;
  mutable num : float option;
  sv : Formula.t array;
  acc : Formula.t array;  (** OR of closed children's qualifier vectors *)
  mutable issued : bool;  (** did this frame defer any filter to close? *)
}

let source : frame Flat_pass.source =
  {
    Flat_pass.text_equals = (fun fr s -> String.equal fr.text s);
    num = (fun fr -> fr.num);
    attr_test =
      (fun fr ~key ~expected ->
        match (List.assoc_opt key fr.attrs, expected) with
        | Some _, None -> true
        | Some actual, Some s -> String.equal actual s
        | None, _ -> false);
  }

type state = {
  plan : Flat_pass.plan;
  items : Flat_pass.fitem array;
  n_qual : int;
  mutable stack : frame list;
  sigma : (int * int, Formula.t) Hashtbl.t;
      (** (pre-order index, n_qual + item index) → filter value *)
  mutable pending : (int * Formula.t) list;
  mutable matches : int list;  (** decided at the open tag already *)
  mutable elements : int;
  mutable max_depth : int;
  mutable peak_pending : int;
  mutable n_pending : int;
}

(* Does a filter need the element's subtree or character data?  If not
   (pure attribute logic) it is decidable at the open tag. *)
let rec needs_close = function
  | Flat_pass.FSat _ | Flat_pass.FText_eq _ | Flat_pass.FVal_cmp _ -> true
  | Flat_pass.FSat_empty | Flat_pass.FAttr_test _ -> false
  | Flat_pass.FNot q -> needs_close q
  | Flat_pass.FAnd (a, b) | Flat_pass.FOr (a, b) ->
      needs_close a || needs_close b

(* Every label and attribute name the query spells, so that the plan
   lowers none of them to the never-interned [-1]: the document has not
   been seen when the plan is made. *)
let intern_query intern (compiled : Compile.t) =
  let rec qual = function
    | Compile.Attr_test (name, _) -> ignore (Intern.intern intern name : int)
    | Compile.Qnot q -> qual q
    | Compile.Qand (a, b) | Compile.Qor (a, b) ->
        qual a;
        qual b
    | Compile.Sat _ | Compile.Text_eq _ | Compile.Val_cmp _ -> ()
  in
  let item = function
    | Compile.Move (Compile.TLabel s) -> ignore (Intern.intern intern s : int)
    | Compile.Move Compile.TAny | Compile.Dos_item -> ()
    | Compile.Filter q -> qual q
  in
  Array.iter item compiled.Compile.sel;
  Array.iter
    (fun (p : Compile.cpath) -> Array.iter item p.Compile.items)
    compiled.Compile.paths

let no_entry _ _ = invalid_arg "Stream_eval: an open-tag filter read an entry"

let open_element ?index st ~is_context ~tagc attrs =
  let n_sel = Array.length st.items + 1 in
  let index =
    match index with
    | Some i -> i
    | None ->
        let i = st.elements in
        st.elements <- st.elements + 1;
        i
  in
  let parent_sv =
    match st.stack with
    | fr :: _ -> fr.sv
    | [] -> Array.make n_sel Formula.false_
  in
  let fr =
    {
      index;
      tagc;
      attrs;
      buf = Buffer.create 8;
      text = "";
      num = None;
      sv = Array.make n_sel Formula.false_;
      acc = Array.make st.n_qual Formula.false_;
      issued = false;
    }
  in
  fr.sv.(0) <- Formula.bool is_context;
  Array.iteri
    (fun j item ->
      let i = j + 1 in
      match item with
      | Flat_pass.FMove code ->
          fr.sv.(i) <-
            (if Flat_pass.tag_matches code ~tagc then parent_sv.(j)
             else Formula.false_)
      | Flat_pass.FDos -> fr.sv.(i) <- Formula.disj parent_sv.(i) fr.sv.(i - 1)
      | Flat_pass.FFilter q ->
          fr.sv.(i) <-
            (if fr.sv.(i - 1) = Formula.false_ then Formula.false_
             else if needs_close q then begin
               fr.issued <- true;
               Formula.conj fr.sv.(i - 1)
                 (Formula.var (Var.Qual_at (index, st.n_qual + j)))
             end
             else
               Formula.conj fr.sv.(i - 1)
                 (Flat_pass.fsat source fr no_entry q)))
    st.items;
  let last = n_sel - 1 in
  (if index >= 0 then
     match Formula.to_bool fr.sv.(last) with
     | Some true ->
         (* Decided on sight: emit without buffering. *)
         st.matches <- index :: st.matches
     | Some false -> ()
     | None ->
         st.pending <- (index, fr.sv.(last)) :: st.pending;
         st.n_pending <- st.n_pending + 1;
         st.peak_pending <- max st.peak_pending st.n_pending);
  st.stack <- fr :: st.stack;
  st.max_depth <- max st.max_depth (List.length st.stack)

let close_element st =
  match st.stack with
  | [] -> invalid_arg "Stream_eval: close without open"
  | fr :: rest ->
      st.stack <- rest;
      let text = Buffer.contents fr.buf in
      fr.text <- text;
      fr.num <- float_of_string_opt (String.trim text);
      (* Post-order: this element's full qualifier vector, from the
         accumulated child disjunctions. *)
      let qvec =
        Flat_pass.feval_entries st.plan source fr ~tagc:fr.tagc fr.acc 0
      in
      if fr.issued then
        Array.iteri
          (fun j item ->
            match item with
            | Flat_pass.FFilter q when needs_close q ->
                Hashtbl.replace st.sigma
                  (fr.index, st.n_qual + j)
                  (Flat_pass.fsat source fr (fun _ e -> qvec.(e)) q)
            | Flat_pass.FFilter _ | Flat_pass.FMove _ | Flat_pass.FDos -> ())
          st.items;
      (* Fold this node's vector into the parent's accumulator. *)
      (match st.stack with
      | parent :: _ ->
          Array.iteri
            (fun e f -> parent.acc.(e) <- Formula.disj parent.acc.(e) f)
            qvec
      | [] -> ())

(* The query is lowered against a table of its own, filled with its
   labels first; element tags and attribute keys are then only looked
   up, so an element the query cannot name is tagged [-1] and matches
   wildcards alone. *)
let over_string (q : Query.t) xml : result =
  let compiled = q.Query.compiled in
  let intern = Intern.create () in
  intern_query intern compiled;
  let plan = Flat_pass.make_plan compiled intern in
  let st =
    {
      plan;
      items = Flat_pass.sel_items plan;
      n_qual = compiled.Compile.n_qual;
      stack = [];
      sigma = Hashtbl.create 64;
      pending = [];
      matches = [];
      elements = 0;
      max_depth = 0;
      peak_pending = 0;
      n_pending = 0;
    }
  in
  (* Absolute queries start from a synthetic document frame, processed
     like any element (its filters defer to its close at end of
     stream); the negative index keeps it out of the answers, and its
     tag code, like the kernels' wrapper slot, is matched by wildcards
     alone. *)
  if compiled.Compile.absolute then
    open_element ~index:(-1) st ~is_context:true ~tagc:(-3) [];
  let first = ref true in
  Sax.iter_string xml ~f:(fun (e : Sax.event) ->
      match e with
      | Sax.Open (tag, attrs) ->
          let is_context = !first && not compiled.Compile.absolute in
          first := false;
          let attrs =
            List.filter_map
              (fun (k, v) ->
                let key = Intern.find intern k in
                if key >= 0 then Some (key, v) else None)
              attrs
          in
          open_element st ~is_context ~tagc:(Intern.find intern tag) attrs
      | Sax.Text s -> (
          match st.stack with
          | fr :: _ -> Buffer.add_string fr.buf s
          | [] -> ())
      | Sax.Close _ -> close_element st);
  if compiled.Compile.absolute then close_element st;
  let lookup = function
    | Var.Qual_at (nid, e) -> Hashtbl.find_opt st.sigma (nid, e)
    | Var.Qual _ | Var.Sel_ctx _ -> None
  in
  let late =
    List.filter_map
      (fun (index, f) ->
        match Formula.to_bool (Formula.subst lookup f) with
        | Some true -> Some index
        | Some false -> None
        | None -> invalid_arg "Stream_eval: unresolved candidate")
      st.pending
  in
  {
    matches = List.sort compare (st.matches @ late);
    elements = st.elements;
    max_depth = st.max_depth;
    peak_pending = st.peak_pending;
  }

let indices_of_answers root answers =
  let ids = List.map (fun (n : Tree.node) -> n.Tree.id) answers in
  let indices = ref [] in
  let counter = ref 0 in
  Tree.iter
    (fun n ->
      if List.mem n.Tree.id ids then indices := !counter :: !indices;
      incr counter)
    root;
  List.sort compare !indices
