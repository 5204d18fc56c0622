module Tree = Pax_xml.Tree
module Iset = Set.Make (Int)

type fragment = {
  fid : int;
  root : Tree.node;
  parent : int option;
  ann : string list;
}

(* Per-fragment flat image, stamped with the generation counter it was
   filled at ([built]) and with the version of its content: the
   generation and writer of the edit that produced it, (0, 0) for the
   image built at construction.  A cell also records the edit that
   produced the image, with the version it was applied to — what
   {!Pax_serve.Feed} ships to the site holding the fragment.  The cell
   is replaced whole through one [Atomic], so a concurrent reader
   (serve-layer scheduler threads, worker domains) sees either the old
   or the new image, never a torn mix. *)
type version = int * int

type cell = {
  built : int;
  image : Pax_xml.Flat.t;
  version : version;
  edit : (version * Pax_xml.Flat.edit) option;
}

(* [writer] names this store in the versions of the images its edits
   produce, so two stores that edit one fragment concurrently never
   claim one version for different content.  It is drawn at random,
   in [2^48, 2^49): fixed width on the wire, and never 0, the writer
   of the images built at construction. *)
type flat_cache = { cells : cell Atomic.t array; writer : int }

type t = {
  fragments : fragment array;
  children : int list array;
  doc_node_count : int;
  generations : int array;
  intern : Pax_xml.Intern.t;
  flat_images : flat_cache;
}

(* All construction funnels through [make]: one shared intern table
   per store, and every fragment's flat image prewarmed at load time
   (generation 0) so the first query never pays the build. *)
let make ~fragments ~children ~doc_node_count : t =
  let n = Array.length fragments in
  let intern = Pax_xml.Intern.create () in
  let cells =
    Array.init n (fun fid ->
        Atomic.make
          {
            built = 0;
            image = Pax_xml.Flat.of_tree ~intern fragments.(fid).root;
            version = (0, 0);
            edit = None;
          })
  in
  let writer =
    (1 lsl 48) lor Random.State.full_int (Random.State.make_self_init ()) (1 lsl 48)
  in
  {
    fragments;
    children;
    doc_node_count;
    generations = Array.make n 0;
    intern;
    flat_images = { cells; writer };
  }

let intern t = t.intern

(* The flat image of a fragment at its current generation.  An edit
   leaves its image in the cell ({!commit_edit}); a generation bumped
   without one (a migration, another coordinator's update merged in)
   rebuilds the image from the tree on first use.  The tree holds the
   same content, so the rebuild keeps the cell's version and edit.  A
   rebuild that loses the race to a newer cell is dropped. *)
let rec flat t fid =
  let gen = t.generations.(fid) in
  let cell = t.flat_images.cells.(fid) in
  let c = Atomic.get cell in
  if c.built = gen then c.image
  else
    let image = Pax_xml.Flat.of_tree ~intern:t.intern t.fragments.(fid).root in
    if Atomic.compare_and_set cell c { c with built = gen; image } then image
    else flat t fid

let version t fid = (Atomic.get t.flat_images.cells.(fid)).version
let last_edit t fid = (Atomic.get t.flat_images.cells.(fid)).edit

type pending = {
  p_fid : int;
  p_parent : int option;
  p_ann : string list;
  p_orig : Tree.node;
}

let fragmentize (doc : Tree.doc) ~cuts : t =
  let cutset = Iset.remove doc.root.id (Iset.of_list cuts) in
  let vb = Tree.builder_from doc.node_count in
  let next_fid = ref 0 in
  let queue = Queue.create () in
  let enqueue ~parent ~ann orig =
    let fid = !next_fid in
    incr next_fid;
    Queue.add { p_fid = fid; p_parent = parent; p_ann = ann; p_orig = orig } queue;
    fid
  in
  ignore (enqueue ~parent:None ~ann:[] doc.root);
  let done_frags = ref [] in
  (* [clone fid path_rev n] copies node [n] of fragment [fid], replacing
     each cut descendant by a virtual node and queueing it as a new
     fragment.  [path_rev] is the reversed tag path from below the
     fragment root to [n] inclusive. *)
  let rec clone fid path_rev (n : Tree.node) : Tree.node =
    let clone_child (c : Tree.node) =
      if Iset.mem c.id cutset then begin
        let ann = List.rev (c.tag :: path_rev) in
        let child_fid = enqueue ~parent:(Some fid) ~ann c in
        Tree.virtual_node vb child_fid
      end
      else clone fid (c.tag :: path_rev) c
    in
    { n with children = List.map clone_child n.children }
  in
  while not (Queue.is_empty queue) do
    let p = Queue.pop queue in
    let root = clone p.p_fid [] p.p_orig in
    done_frags :=
      { fid = p.p_fid; root; parent = p.p_parent; ann = p.p_ann } :: !done_frags
  done;
  let fragments = Array.make !next_fid (List.hd !done_frags) in
  List.iter (fun f -> fragments.(f.fid) <- f) !done_frags;
  let children = Array.make !next_fid [] in
  Array.iter
    (fun f ->
      match f.parent with
      | Some p -> children.(p) <- f.fid :: children.(p)
      | None -> ())
    fragments;
  Array.iteri (fun i l -> children.(i) <- List.rev l) children;
  make ~fragments ~children ~doc_node_count:doc.node_count

let trivial doc = fragmentize doc ~cuts:[]

let cuts_by_size (doc : Tree.doc) ~budget =
  let budget = max 2 budget in
  let cuts = ref [] in
  let rec residual (n : Tree.node) =
    let s = List.fold_left (fun acc c -> acc + residual c) 1 n.children in
    if s > budget && n.id <> doc.root.id then begin
      cuts := n.id :: !cuts;
      1
    end
    else s
  in
  ignore (residual doc.root);
  List.rev !cuts

let cuts_by_tag (doc : Tree.doc) ~tag =
  let cuts = ref [] in
  Tree.iter
    (fun n -> if n.tag = tag && n.id <> doc.root.id then cuts := n.id :: !cuts)
    doc.root;
  List.rev !cuts

let fragment t fid = t.fragments.(fid)
let n_fragments t = Array.length t.fragments
let root_fragment t = t.fragments.(0)
let generation t fid = t.generations.(fid)
let bump_generation t fid = t.generations.(fid) <- t.generations.(fid) + 1

let commit_edit t fid edit image =
  let cell = t.flat_images.cells.(fid) in
  let base = (Atomic.get cell).version in
  bump_generation t fid;
  let gen = t.generations.(fid) in
  Atomic.set cell
    {
      built = gen;
      image;
      version = (gen, t.flat_images.writer);
      edit = Some (base, edit);
    }

let merge_generation t fid gen =
  if gen > t.generations.(fid) then t.generations.(fid) <- gen

let spine t fid =
  let rec go fid acc =
    let f = t.fragments.(fid) in
    match f.parent with
    | None -> f.root.Tree.tag :: acc
    | Some p -> go p (f.ann @ acc)
  in
  go fid []

let top_down t = List.init (Array.length t.fragments) Fun.id
let bottom_up t = List.rev (top_down t)

let rec splice t (n : Tree.node) : Tree.node =
  match n.kind with
  | Tree.Virtual fid -> splice t t.fragments.(fid).root
  | Tree.Element -> { n with children = List.map (splice t) n.children }

let reassemble t = splice t t.fragments.(0).root

let fragment_node_count f =
  Tree.fold
    (fun acc n -> if Tree.is_virtual n then acc else acc + 1)
    0 f.root

let fragment_byte_size f = Tree.byte_size f.root

let check t =
  let ( let* ) = Result.bind in
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  (* Virtual nodes of each fragment are exactly its fragment-tree
     children, and the annotations describe the real paths. *)
  let check_fragment f =
    let virtuals = ref [] in
    Tree.iter
      (fun n ->
        match Tree.virtual_fragment n with
        | Some fid -> virtuals := fid :: !virtuals
        | None -> ())
      f.root;
    let virtuals = List.sort compare !virtuals in
    let declared = List.sort compare t.children.(f.fid) in
    let* () =
      if virtuals = declared then Ok ()
      else err "fragment %d: virtual nodes do not match fragment-tree children" f.fid
    in
    (* Follow each child's annotation inside this fragment: all tags but
       the last must label real nodes, and the last must sit where the
       virtual node is. *)
    let rec follow fid (n : Tree.node) = function
      | [] -> err "fragment %d: empty annotation for child %d" f.fid fid
      | [ last ] ->
          if
            last = t.fragments.(fid).root.Tree.tag
            && List.exists
                 (fun (c : Tree.node) -> Tree.virtual_fragment c = Some fid)
                 n.children
          then Ok ()
          else err "fragment %d: annotation of child %d ends away from it" f.fid fid
      | tag :: rest -> (
          let candidates =
            List.filter (fun (c : Tree.node) -> c.tag = tag) n.children
          in
          match candidates with
          | [] -> err "fragment %d: annotation tag %s not found" f.fid tag
          | cs ->
              if List.exists (fun c -> Result.is_ok (follow fid c rest)) cs then
                Ok ()
              else err "fragment %d: annotation path mismatch" f.fid)
    in
    List.fold_left
      (fun acc child ->
        let* () = acc in
        follow child f.root t.fragments.(child).ann)
      (Ok ()) t.children.(f.fid)
  in
  let* () =
    Array.fold_left
      (fun acc f ->
        let* () = acc in
        check_fragment f)
      (Ok ()) t.fragments
  in
  let total = Array.fold_left (fun acc f -> acc + fragment_node_count f) 0 t.fragments in
  if total = t.doc_node_count then Ok ()
  else err "fragments cover %d nodes, document has %d" total t.doc_node_count

let to_dot t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph fragment_tree {\n  node [shape=box];\n";
  Array.iter
    (fun f ->
      Buffer.add_string buf
        (Printf.sprintf "  F%d [label=\"F%d\\n%s: %d nodes\"];\n" f.fid f.fid
           f.root.Tree.tag (fragment_node_count f));
      match f.parent with
      | Some p ->
          Buffer.add_string buf
            (Printf.sprintf "  F%d -> F%d [label=\"%s\"];\n" p f.fid
               (String.concat "/" f.ann))
      | None -> ())
    t.fragments;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iter
    (fun f ->
      Format.fprintf ppf "F%d: %d nodes, parent %s, ann %s@,"
        f.fid (fragment_node_count f)
        (match f.parent with Some p -> Printf.sprintf "F%d" p | None -> "-")
        (String.concat "/" f.ann))
    t.fragments;
  Format.fprintf ppf "@]"
