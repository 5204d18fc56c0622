module Tree = Pax_xml.Tree
module Flat = Pax_xml.Flat

type op =
  | Insert of int * Tree.node
  | Delete of int
  | Set_text of int * string

type error =
  | Node_not_found of int
  | Would_detach_fragments of int
  | Is_fragment_root of int
  | Duplicate_ids of int

let error_to_string = function
  | Node_not_found id -> Printf.sprintf "node %d not found" id
  | Would_detach_fragments id ->
      Printf.sprintf "the subtree of node %d spans other fragments" id
  | Is_fragment_root id ->
      Printf.sprintf "node %d is a fragment root (or the document root)" id
  | Duplicate_ids id -> Printf.sprintf "inserted subtree reuses node id %d" id

(* Routing an update to its fragment is an id-table probe per
   fragment, not a tree scan: each fragment's flat image carries a
   lazily built id index ({!Pax_xml.Flat.find_index}).  Virtual-node
   ids are allocated past the document range, so a hit on a virtual
   slot means the id names a placeholder, which [find] never
   returns.  The image holds no pointers: the node to edit is reached
   by walking down from the fragment's root along the slot's ancestor
   chain, read from the image — depth steps, no scan.  The node comes
   with its parent, [None] at a fragment root (the document root is
   fragment 0's). *)
let find (ft : Fragment.t) node_id =
  let n = Array.length ft.Fragment.fragments in
  let rec go fid =
    if fid >= n then None
    else
      let fl = Fragment.flat ft fid in
      match Flat.find_index fl node_id with
      | Some i when not (Flat.is_virtual fl i) ->
          (* slot [i] and its ancestors below the root, top-down *)
          let rec path i acc =
            if i <= 0 then acc else path (Flat.parent fl i) (i :: acc)
          in
          let rec down parent (nd : Tree.node) = function
            | [] -> Some (fid, parent, nd)
            | j :: rest ->
                let id = Flat.node_id fl j in
                let is_j (c : Tree.node) = c.Tree.id = id in
                down (Some nd) (List.find is_j nd.Tree.children) rest
          in
          down None (Fragment.fragment ft fid).Fragment.root (path i [])
      | _ -> go (fid + 1)
  in
  go 0

let locate ft node_id =
  Option.map (fun (fid, _, nd) -> (fid, nd)) (find ft node_id)

let spans_fragments (n : Tree.node) =
  let spans = ref false in
  Tree.iter (fun m -> if Tree.is_virtual m then spans := true) n;
  !spans

(* An id any fragment's image already holds, virtual slots included:
   an id-table probe per fragment, not a tree scan. *)
let clashing_id (ft : Fragment.t) subtree =
  let held id =
    let rec go fid =
      fid < Fragment.n_fragments ft
      && (Option.is_some (Flat.find_index (Fragment.flat ft fid) id)
         || go (fid + 1))
    in
    go 0
  in
  let clash = ref None in
  Tree.iter
    (fun n -> if !clash = None && held n.Tree.id then clash := Some n.Tree.id)
    subtree;
  !clash

(* An accepted operation, checked before anything changes: the touched
   fragment, the same update in image terms, and the tree mutation. *)
let plan (ft : Fragment.t) (op : op) =
  match op with
  | Set_text (node_id, text) -> (
      match find ft node_id with
      | Some (fid, _, n) ->
          let text = if text = "" then None else Some text in
          Ok
            ( fid,
              Flat.Set_text (node_id, text),
              fun () -> n.Tree.text <- text )
      | None -> Error (Node_not_found node_id))
  | Insert (parent_id, subtree) -> (
      if spans_fragments subtree then
        Error (Would_detach_fragments subtree.Tree.id)
      else
        match find ft parent_id with
        | None -> Error (Node_not_found parent_id)
        | Some (fid, _, parent) -> (
            match clashing_id ft subtree with
            | Some id -> Error (Duplicate_ids id)
            | None ->
                let image = Flat.of_tree ~intern:(Fragment.intern ft) subtree in
                Ok
                  ( fid,
                    Flat.Insert (parent_id, image),
                    fun () ->
                      parent.Tree.children <- parent.Tree.children @ [ subtree ]
                  )))
  | Delete node_id -> (
      match find ft node_id with
      | None -> Error (Node_not_found node_id)
      | Some (_, None, _) -> Error (Is_fragment_root node_id)
      | Some (fid, Some parent, n) ->
          if spans_fragments n then Error (Would_detach_fragments node_id)
          else
            Ok
              ( fid,
                Flat.Delete node_id,
                fun () ->
                  parent.Tree.children <-
                    List.filter
                      (fun (c : Tree.node) -> c.Tree.id <> node_id)
                      parent.Tree.children ))

(* Every successful update advances the touched fragment's generation,
   so caches keyed by (fragment, generation) are invalidated by exactly
   the fragments an update touched.  The fragment's image is patched
   here, not rebuilt ({!Flat.edit}), and the edit is recorded for the
   site holding the fragment.  Patching here also interns any tag an
   inserted subtree brings, and engines lower a query against the
   intern table once, before a run visits any fragment. *)
let apply (ft : Fragment.t) (op : op) : (int, error) result =
  match plan ft op with
  | Error _ as e -> e
  | Ok (fid, edit, mutate) -> (
      match Flat.edit (Fragment.flat ft fid) edit with
      | None ->
          (* [plan] refuses everything [Flat.edit] refuses. *)
          invalid_arg "Update.apply: the image refused a checked edit"
      | Some image ->
          mutate ();
          Fragment.commit_edit ft fid edit image;
          Ok fid)

let node_count (ft : Fragment.t) =
  Array.fold_left
    (fun acc f -> acc + Fragment.fragment_node_count f)
    0 ft.Fragment.fragments
