module Codec = Pax_bool.Codec
module Formula = Pax_bool.Formula
module Var = Pax_bool.Var

type fragment = {
  gf_id : int;
  gf_nodes : int array;
  gf_adj : (int * int array) array;
  gf_entries : int array;
  gf_ext : (int * (int * int)) array;
}

type partition = {
  n_nodes : int;
  n_edges : int;
  owner : int array;
  frags : fragment array;
  n_entries : int;
}

let sort_uniq_array l = Array.of_list (List.sort_uniq compare l)

(* Binary search over an ascending int array. *)
let mem_sorted a x =
  let lo = ref 0 and hi = ref (Array.length a - 1) and found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) = x then found := true
    else if a.(mid) < x then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let index_sorted a x =
  let lo = ref 0 and hi = ref (Array.length a - 1) and idx = ref (-1) in
  while !idx < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) = x then idx := mid
    else if a.(mid) < x then lo := mid + 1
    else hi := mid - 1
  done;
  !idx

(* Lookup in an ascending (key, value) array. *)
let assoc_sorted a x =
  let lo = ref 0 and hi = ref (Array.length a - 1) and r = ref None in
  while !r = None && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let k, v = a.(mid) in
    if k = x then r := Some v else if k < x then lo := mid + 1 else hi := mid - 1
  done;
  !r

let partition ~n ~edges ~owner =
  if n < 1 then invalid_arg "Gfrag.partition: need at least one node";
  if Array.length owner <> n then
    invalid_arg "Gfrag.partition: owner array must have one entry per node";
  let n_frags = 1 + Array.fold_left max 0 owner in
  Array.iter
    (fun f -> if f < 0 then invalid_arg "Gfrag.partition: negative owner")
    owner;
  let edges = List.sort_uniq compare edges in
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Gfrag.partition: edge endpoint out of range")
    edges;
  let succs = Array.make n [] in
  List.iter (fun (u, v) -> succs.(u) <- v :: succs.(u)) (List.rev edges);
  (* Entry nodes: targets of cross edges, grouped by owning fragment. *)
  let entry_lists = Array.make n_frags [] in
  List.iter
    (fun (u, v) ->
      if owner.(u) <> owner.(v) then entry_lists.(owner.(v)) <- v :: entry_lists.(owner.(v)))
    edges;
  let entries = Array.map sort_uniq_array entry_lists in
  (* Global entry coordinates: node -> (owner fid, slot). *)
  let coord_of v =
    let fid = owner.(v) in
    (fid, index_sorted entries.(fid) v)
  in
  let frags =
    Array.init n_frags (fun fid ->
        let nodes = ref [] in
        for v = n - 1 downto 0 do
          if owner.(v) = fid then nodes := v :: !nodes
        done;
        let gf_nodes = Array.of_list !nodes in
        let adj = ref [] and ext = ref [] in
        Array.iter
          (fun u ->
            match succs.(u) with
            | [] -> ()
            | l ->
                adj := (u, Array.of_list l) :: !adj;
                List.iter (fun v -> if owner.(v) <> fid then ext := v :: !ext) l)
          gf_nodes;
        let gf_ext =
          Array.map (fun v -> (v, coord_of v)) (sort_uniq_array !ext)
        in
        {
          gf_id = fid;
          gf_nodes;
          gf_adj = Array.of_list (List.rev !adj);
          gf_entries = entries.(fid);
          gf_ext;
        })
  in
  {
    n_nodes = n;
    n_edges = List.length edges;
    owner;
    frags;
    n_entries = Array.fold_left (fun acc e -> acc + Array.length e) 0 entries;
  }

let n_fragments g = Array.length g.frags
let fragment g fid = g.frags.(fid)
let owner_of g v = g.owner.(v)
let query_string ~src ~dst = Printf.sprintf "reach %d %d" src dst

let parse_query text =
  match String.split_on_char ' ' (String.trim text) with
  | "reach" :: rest -> (
      match List.filter (fun s -> s <> "") rest with
      | [ a; b ] -> (
          match (int_of_string_opt a, int_of_string_opt b) with
          | Some s, Some d when s >= 0 && d >= 0 -> Some (s, d)
          | _ -> None)
      | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Wire image                                                         *)
(* ------------------------------------------------------------------ *)

(* A fragment travels inside a [Wire.frag_image] (pax_wire cannot
   depend on this library, so the image is an opaque string at the wire
   layer): a 4-byte magic, then the fields as varints and counted
   arrays.  The decoder is total and revalidates the sortedness
   invariants the binary searches above rely on. *)

let magic = "pgf1"

let image =
  let ints = Codec.(array varint) in
  Codec.(
    map
      (fun ((), (gf_id, gf_nodes, gf_adj), (gf_entries, gf_ext)) ->
        { gf_id; gf_nodes; gf_adj; gf_entries; gf_ext })
      (fun f ->
        ((), (f.gf_id, f.gf_nodes, f.gf_adj), (f.gf_entries, f.gf_ext)))
      (triple (literal magic)
         (triple varint ints (array (pair varint ints)))
         (pair ints (array (pair varint (pair varint varint))))))

let encode frag = Codec.to_string image frag

let ascending key a =
  let ok = ref true in
  for i = 1 to Array.length a - 1 do
    if key a.(i - 1) >= key a.(i) then ok := false
  done;
  !ok

let decode s =
  match Codec.of_string_opt image s with
  | Some frag
    when ascending Fun.id frag.gf_nodes
         && ascending fst frag.gf_adj
         && ascending Fun.id frag.gf_entries
         && ascending fst frag.gf_ext
         && Array.for_all
              (fun (_, succs) -> Array.length succs > 0 && ascending Fun.id succs)
              frag.gf_adj ->
      Some frag
  | _ -> None

let owns frag v = mem_sorted frag.gf_nodes v

let n_starts frag ~src =
  let k = Array.length frag.gf_entries in
  if owns frag src && not (mem_sorted frag.gf_entries src) then k + 1 else k

let src_slot frag ~src =
  if not (owns frag src) then
    invalid_arg "Gfrag.src_slot: fragment does not own the source";
  let i = index_sorted frag.gf_entries src in
  if i >= 0 then i else Array.length frag.gf_entries

let local_eval frag ~src ~dst =
  let ops = ref 0 in
  let dst_owned = owns frag dst in
  let eval_from s =
    incr ops;
    let visited = Hashtbl.create 16 in
    let q = Queue.create () in
    Hashtbl.replace visited s ();
    Queue.add s q;
    let reached_dst = ref (dst_owned && s = dst) in
    let ext = ref [] in
    while (not !reached_dst) && not (Queue.is_empty q) do
      let u = Queue.pop q in
      match assoc_sorted frag.gf_adj u with
      | None -> ()
      | Some succs ->
          Array.iter
            (fun v ->
              incr ops;
              if owns frag v then (
                if not (Hashtbl.mem visited v) then (
                  Hashtbl.replace visited v ();
                  if dst_owned && v = dst then reached_dst := true;
                  Queue.add v q))
              else
                match assoc_sorted frag.gf_ext v with
                | Some coords -> ext := coords :: !ext
                | None -> assert false)
            succs
    done;
    if !reached_dst then Formula.true_
    else
      Formula.or_
        (List.map
           (fun (fid, slot) -> Formula.var (Var.Qual (fid, slot)))
           (List.sort_uniq compare !ext))
  in
  let k = Array.length frag.gf_entries in
  let vec =
    Array.init (n_starts frag ~src) (fun i ->
        if i < k then eval_from frag.gf_entries.(i) else eval_from src)
  in
  (vec, !ops)
