(* QCheck generators for random documents, queries and fragmentations.
   Tags and texts are drawn from small alphabets so that random queries
   actually match random data. *)

module Tree = Pax_xml.Tree
module Ast = Pax_xpath.Ast
module G = QCheck.Gen

let tags = [| "a"; "b"; "c"; "d" |]
let texts = [| "x"; "y"; "10"; "2.5"; "7" |]

let tag = G.oneofa tags
let text_opt = G.(oneof [ return None; map Option.some (oneofa texts) ])
let attr_names = [| "id"; "cat" |]

let attrs_gen st =
  if G.bool st then []
  else [ (G.oneofa attr_names st, G.oneofa texts st) ]

(* A random document with at most [max_nodes] nodes. *)
let doc ?(max_nodes = 60) : Tree.doc G.t =
 fun st ->
  let n = G.int_range 1 max_nodes st in
  let b = Tree.builder () in
  let budget = ref (n - 1) in
  let rec build depth =
    let tg = tag st in
    let txt = text_opt st in
    let n_children =
      if depth > 6 || !budget <= 0 then 0
      else begin
        let want = G.int_range 0 (min 4 !budget) st in
        budget := !budget - want;
        want
      end
    in
    let children = List.init n_children (fun _ -> build (depth + 1)) in
    let attrs = attrs_gen st in
    match txt with
    | Some t -> Tree.elem b ~text:t ~attrs tg children
    | None -> Tree.elem b ~attrs tg children
  in
  let root = build 0 in
  Tree.doc_of_root root

(* Random queries over the same alphabets. *)
let cmp = G.oneofl [ Ast.Eq; Ast.Neq; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge ]
let num = G.oneofl [ 1.; 2.; 7.; 10. ]

(* [label] draws the tag of a step, [max_seg] bounds the segments of a
   path, and one step in [dslash] is a [//] step. *)
let rec path ?(label = tag) ?(max_seg = 3) ?(dslash = 4) ~qdepth st : Ast.path
    =
  let n_seg = G.int_range 1 max_seg st in
  let seg st : Ast.path =
    let base =
      match G.int_range 0 5 st with
      | 0 -> Ast.Wildcard
      | 1 when qdepth > 0 -> Ast.Empty
      | _ -> Ast.Tag (label st)
    in
    if qdepth > 0 && G.bool st then
      Ast.Qualified (base, qual ~label ~qdepth:(qdepth - 1) st)
    else base
  in
  let rec extend acc k =
    if k = 0 then acc
    else
      let s = seg st in
      let acc =
        if G.int_range 0 (dslash - 1) st = 0 then Ast.Dslash (acc, s)
        else Ast.Slash (acc, s)
      in
      extend acc (k - 1)
  in
  let first = seg st in
  let p = extend first (n_seg - 1) in
  if G.int_range 0 dslash st = 0 then Ast.Dslash (Ast.Empty, p) else p

and qual ?(label = tag) ~qdepth st : Ast.qual =
  let path = path ~label in
  let qual = qual ~label in
  match G.int_range 0 7 st with
  | 0 -> Ast.QText (path ~qdepth:0 st, G.oneofa texts st)
  | 1 -> Ast.QVal (path ~qdepth:0 st, cmp st, num st)
  | 6 ->
      let value = if G.bool st then Some (G.oneofa texts st) else None in
      Ast.QAttr (path ~qdepth:0 st, G.oneofa attr_names st, value)
  | 2 when qdepth > 0 -> Ast.QNot (qual ~qdepth:(qdepth - 1) st)
  | 3 when qdepth > 0 ->
      Ast.QAnd (qual ~qdepth:(qdepth - 1) st, qual ~qdepth:(qdepth - 1) st)
  | 4 when qdepth > 0 ->
      Ast.QOr (qual ~qdepth:(qdepth - 1) st, qual ~qdepth:(qdepth - 1) st)
  | _ -> Ast.QPath (path ~qdepth:(max 0 (qdepth - 1)) st)

let query : Ast.t G.t =
 fun st ->
  let absolute = G.bool st in
  { Ast.absolute; path = path ~qdepth:2 st }

(* Random cut set for a document: each non-root node with probability
   [p]. *)
let cuts ?(p = 0.2) (d : Tree.doc) : int list G.t =
 fun st ->
  let acc = ref [] in
  Tree.iter
    (fun n ->
      if n.Tree.id <> d.Tree.root.Tree.id && G.float_bound_inclusive 1.0 st < p
      then acc := n.Tree.id :: !acc)
    d.Tree.root;
  !acc

(* A random placement of the fragments on 1..n sites. *)
let cluster (ft : Pax_frag.Fragment.t) : Pax_dist.Cluster.t G.t =
 fun st ->
  let n_frag = Pax_frag.Fragment.n_fragments ft in
  let n_sites = G.int_range 1 n_frag st in
  let assignment = Array.init n_frag (fun _ -> G.int_range 0 (n_sites - 1) st) in
  Pax_dist.Cluster.create ~ftree:ft ~n_sites ~assign:(fun fid -> assignment.(fid)) ()

(* The full scenario: document + query + fragmentation + placement. *)
type scenario = {
  s_doc : Tree.doc;
  s_query : Ast.t;
  s_cluster : Pax_dist.Cluster.t;
}

let scenario : scenario G.t =
 fun st ->
  let s_doc = doc st in
  let s_query = query st in
  let cs = cuts s_doc st in
  let ft = Pax_frag.Fragment.fragmentize s_doc ~cuts:cs in
  let s_cluster = cluster ft st in
  { s_doc; s_query; s_cluster }

let print_scenario (s : scenario) =
  Format.asprintf "query: %a@.doc: %a@.fragments: %a@." Ast.pp s.s_query
    Tree.pp s.s_doc.Tree.root Pax_frag.Fragment.pp
    (Pax_dist.Cluster.ftree s.s_cluster)

let arbitrary_scenario = QCheck.make ~print:print_scenario scenario

(* ---------------- scenarios that make the combined pass skip ------ *)

(* The documents above draw from four tags, so every subtree's tag mask
   holds nearly all of them and no mask wraps mod 63.  This variant has
   more than 63 tag names, deep child-only chains, nodes with up to
   eight children of mixed tags, and queries whose steps name tags the
   data lacks ([zz]) or holds only here and there, often under [//].
   The [w*] tags sit on one child-only chain, the root's first child,
   which is never cut: a store interns tags in document order, so the
   chain takes codes 1 to 70 and the four common tags wrap mod 63. *)
let wide_tags = Array.init 70 (fun i -> "w" ^ string_of_int i)

let deep_label st =
  match G.int_range 0 5 st with
  | 0 -> G.oneofa wide_tags st
  | 1 -> "zz"
  | _ -> tag st

let deep_doc : Tree.doc G.t =
 fun st ->
  let b = Tree.builder () in
  let budget = ref (G.int_range 1 60 st) in
  let node_tag st =
    if G.int_range 0 3 st = 0 then G.oneofa wide_tags st else tag st
  in
  let rec build depth =
    let tg = node_tag st in
    let txt = text_opt st in
    let children =
      if depth > 24 || !budget <= 0 then []
      else
        let kids want =
          budget := !budget - want;
          List.init want (fun _ -> build (depth + 1))
        in
        match G.int_range 0 5 st with
        | 0 | 1 -> kids 1 (* a child-only link *)
        | 2 -> kids (G.int_range (min 4 !budget) (min 8 !budget) st)
        | _ -> kids (G.int_range 0 (min 3 !budget) st)
    in
    let attrs = attrs_gen st in
    match txt with
    | Some t -> Tree.elem b ~text:t ~attrs tg children
    | None -> Tree.elem b ~attrs tg children
  in
  let order = Array.copy wide_tags in
  G.shuffle_a order st;
  let chain =
    Array.fold_right (fun tg below -> [ Tree.elem b tg below ]) order []
  in
  let subtrees = List.init (G.int_range 1 3 st) (fun _ -> build 1) in
  Tree.doc_of_root (Tree.elem b (tag st) (chain @ subtrees))

let deep_query : Ast.t G.t =
 fun st ->
  let absolute = G.bool st in
  {
    Ast.absolute;
    path = path ~label:deep_label ~max_seg:6 ~dslash:3 ~qdepth:2 st;
  }

let deep_scenario : scenario G.t =
 fun st ->
  let s_doc = deep_doc st in
  let s_query = deep_query st in
  let chain = Hashtbl.create 64 in
  Tree.iter
    (fun n -> Hashtbl.replace chain n.Tree.id ())
    (List.hd s_doc.Tree.root.Tree.children);
  let cuts =
    List.filter (fun id -> not (Hashtbl.mem chain id)) (cuts s_doc st)
  in
  let ft = Pax_frag.Fragment.fragmentize s_doc ~cuts in
  { s_doc; s_query; s_cluster = cluster ft st }

let arbitrary_deep_scenario = QCheck.make ~print:print_scenario deep_scenario

(* ---------------- graph reachability scenarios --------------------- *)

(* A random fragmented digraph plus a reachability question and a
   placement, as plain data so the generator does not depend on the
   graph library itself (the tests build Gfrag.partition / clusters
   from these fields). *)
type gscenario = {
  g_n : int;  (* nodes, numbered 0..g_n-1 *)
  g_edges : (int * int) list;
  g_owner : int array;  (* node -> fragment, fragments 0..g_n_frags-1 *)
  g_n_frags : int;
  g_src : int;
  g_dst : int;
  g_n_sites : int;
  g_assign : int array;  (* fragment -> site *)
}

let gscenario : gscenario G.t =
 fun st ->
  let g_n = G.int_range 1 40 st in
  (* Sparse-ish: on average ~2.5 out-edges per node, self-loops and
     duplicates allowed (the partitioner dedups). *)
  let n_edges = G.int_range 0 (5 * g_n / 2) st in
  let g_edges =
    List.init n_edges (fun _ ->
        (G.int_range 0 (g_n - 1) st, G.int_range 0 (g_n - 1) st))
  in
  let g_n_frags = G.int_range 1 (min 6 g_n) st in
  let g_owner = Array.init g_n (fun _ -> G.int_range 0 (g_n_frags - 1) st) in
  (* Every fragment id must own at least one node or the partitioner's
     fragment count drops; pin node i to fragment i for the first
     [g_n_frags] nodes. *)
  Array.iteri (fun i _ -> if i < g_n_frags then g_owner.(i) <- i) g_owner;
  let g_src = G.int_range 0 (g_n - 1) st in
  let g_dst = G.int_range 0 (g_n - 1) st in
  let g_n_sites = G.int_range 1 g_n_frags st in
  let g_assign =
    Array.init g_n_frags (fun _ -> G.int_range 0 (g_n_sites - 1) st)
  in
  { g_n; g_edges; g_owner; g_n_frags; g_src; g_dst; g_n_sites; g_assign }

let print_gscenario (g : gscenario) =
  Format.asprintf
    "n=%d frags=%d sites=%d src=%d dst=%d@.owner=[%s]@.assign=[%s]@.edges=[%s]@."
    g.g_n g.g_n_frags g.g_n_sites g.g_src g.g_dst
    (String.concat ";" (Array.to_list (Array.map string_of_int g.g_owner)))
    (String.concat ";" (Array.to_list (Array.map string_of_int g.g_assign)))
    (String.concat ";"
       (List.map (fun (u, v) -> Printf.sprintf "%d->%d" u v) g.g_edges))

let arbitrary_gscenario = QCheck.make ~print:print_gscenario gscenario
