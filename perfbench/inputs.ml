(* Everything the benchmark feeds the serving tier, derived from the
   workload seed: the FT2 tree and its placement, the query variants,
   the operation streams and the write targets.  The program under test
   only ever sees the generated query text and update operations. *)

module Tree = Pax_xml.Tree
module Fragment = Pax_frag.Fragment
module Xmark = Pax_xmark.Xmark
module Rng = Pax_xmark.Rng

(* ---------------- data: FT2 at 13 units -------------------------- *)

let units = 13
let n_sites = 4

(* Fixed placement of FT2's ten fragments on four site servers: one of
   F0-F3 (the fragments holding people) per site, so every query visits
   every site, and 2-3 fragments per visit (the paper's multi-fragment
   site).  Units per site: 33, 29, 29, 13. *)
let placement = [| 0; 1; 2; 3; 1; 2; 2; 0; 1; 3 |]
let assign fid = placement.(fid)

(* The nested tree of the paper's Experiment 2, built exactly as
   [bench/setup.ml]'s [ft2] at its default scale: ten fragments in the
   5/12/28/8 ratio (cumulative 104 units).  Kept here so the benchmark's
   data cannot change when the one-off harnesses do. *)
let ft2 () : Fragment.t =
  let u x = units * Xmark.nodes_per_mb * x / 104 in
  let b = Tree.builder () in
  let rng = Rng.create ~seed:(2000 + units) in
  let plain nodes = Xmark.site b (Rng.split rng) ~nodes in
  let skewed ~closed_u =
    Xmark.site_custom b (Rng.split rng) ~regions:(u 12) ~categories:(u 1)
      ~people:(u 3) ~open_auctions:(u 12) ~closed_auctions:(u closed_u)
  in
  let site1 = plain (u 5) in
  let site2 = skewed ~closed_u:8 in
  let site3 = skewed ~closed_u:28 in
  let site4 = plain (u 5) in
  let root = Tree.elem b "sites" [ site1; site2; site3; site4 ] in
  let doc = Tree.doc_of_root root in
  let section (site : Tree.node) tag =
    match
      List.find_opt (fun (c : Tree.node) -> c.Tree.tag = tag) site.Tree.children
    with
    | Some n -> n.Tree.id
    | None -> invalid_arg "ft2: missing section"
  in
  let cuts =
    [
      site2.Tree.id; site3.Tree.id; site4.Tree.id;
      section site2 "regions"; section site2 "open_auctions";
      section site2 "closed_auctions";
      section site3 "regions"; section site3 "open_auctions";
      section site3 "closed_auctions";
    ]
  in
  let ft = Fragment.fragmentize doc ~cuts in
  if Fragment.n_fragments ft <> Array.length placement then
    invalid_arg "ft2: placement does not cover the fragments";
  ft

(* ---------------- queries: Fig. 7 and its variants ---------------- *)

let q3 ~age ~country =
  Printf.sprintf
    "/sites/site/people/person[profile/age > %d and address/country = \
     \"%s\"]/creditcard"
    age country

let q4 ~age ~country =
  Printf.sprintf
    "/sites//people/person[profile/age > %d and address/country = \
     \"%s\"]/creditcard"
    age country

(* Xmark draws ages from 18..60. *)
let ages = Array.init 43 (fun i -> 18 + i)

(* Elements of fragments 0-3 (the ones holding people) with [tag], in
   document order; virtual placeholders are not descended into. *)
let elements_in_people_frags ft tag =
  List.concat_map
    (fun fid ->
      Tree.select
        (fun (n : Tree.node) -> n.Tree.tag = tag && n.Tree.kind = Tree.Element)
        (Fragment.fragment ft fid).Fragment.root)
    [ 0; 1; 2; 3 ]

type t = {
  countries : string array;  (** Xmark's country list, as found in the tree *)
  age_nodes : int array;  (** write targets: [profile/age] elements *)
  country_nodes : int array;  (** write targets: [address/country] elements *)
}

let of_tree ft =
  if q3 ~age:20 ~country:"US" <> Xmark.q3 || q4 ~age:20 ~country:"US" <> Xmark.q4
  then invalid_arg "query templates drifted from Fig. 7";
  let text (n : Tree.node) = Option.value n.Tree.text ~default:"" in
  let country_elems = elements_in_people_frags ft "country" in
  let ids l = Array.of_list (List.map (fun (n : Tree.node) -> n.Tree.id) l) in
  {
    countries =
      Array.of_list (List.sort_uniq compare (List.map text country_elems));
    age_nodes = ids (elements_in_people_frags ft "age");
    country_nodes = ids country_elems;
  }

(* ---------------- operations ------------------------------------- *)

type op =
  | Read of string
  | Write of { node : int; text : string }

let op_to_string = function
  | Read q -> "R " ^ q
  | Write { node; text } -> Printf.sprintf "W %d %s" node text

let variant inp rng =
  let age = Rng.pick rng ages and country = Rng.pick rng inp.countries in
  if Rng.bool rng then q3 ~age ~country else q4 ~age ~country

(* serve-cpu: the family (Q1-Q4) uniformly, then the Q3/Q4 parameters
   uniformly: 2 + 2 x 43 x |countries| texts, too many for any cache. *)
let uniform_read inp rng =
  match Rng.int rng 4 with
  | 0 -> Xmark.q1
  | 1 -> Xmark.q2
  | _ -> variant inp rng

(* serve-latency and serve-update: 64 texts drawn Zipf(1) by rank: Q1 at
   rank 3, Q2 at rank 6, Q3 and Q4 variants alternating elsewhere.  The
   pool is the same for every workload seed, which draws only the
   sequence: how much of a pool's stage-1 work is cacheable depends on
   its variants, and with a pool per seed serve-update's throughput
   moved by half from one seed to the next. *)
let zipf_pool_size = 64

type zipf = { pool : string array; cdf : float array }

let zipf inp =
  let rng = Rng.create ~seed:7919 in
  let seen = Hashtbl.create 64 in
  let rec fresh make =
    let q = make ~age:(Rng.pick rng ages) ~country:(Rng.pick rng inp.countries) in
    if Hashtbl.mem seen q then fresh make
    else begin
      Hashtbl.replace seen q ();
      q
    end
  in
  let pool =
    Array.init zipf_pool_size (fun r ->
        match r with
        | 2 -> Xmark.q1
        | 5 -> Xmark.q2
        | _ -> if r mod 2 = 0 then fresh q3 else fresh q4)
  in
  let w = Array.init zipf_pool_size (fun r -> 1. /. float_of_int (r + 1)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  let cdf =
    Array.map
      (fun x ->
        acc := !acc +. (x /. total);
        !acc)
      w
  in
  { pool; cdf }

let zipf_read z rng =
  let u = Rng.float rng 1. in
  let rec find lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if z.cdf.(mid) >= u then find lo mid else find (mid + 1) hi
  in
  z.pool.(find 0 (zipf_pool_size - 1))

(* A seeded Set_text on a person's age or country in fragments 0-3. *)
let write inp rng =
  if Rng.bool rng then
    Write
      {
        node = Rng.pick rng inp.age_nodes;
        text = string_of_int (Rng.pick rng ages);
      }
  else
    Write
      { node = Rng.pick rng inp.country_nodes; text = Rng.pick rng inp.countries }

type mix = Uniform | Zipf_reads | Zipf_rw

(* About one write in 20 operations on serve-update. *)
let write_one_in = 20

(* Stream [id] of a workload: an infinite, seed-determined operation
   sequence.  Each load-generator thread, the warm-up, the count probe
   and the write probe draw from their own stream id. *)
let stream inp ~mix ~seed ~id =
  let rng = Rng.create ~seed:((seed * 1_000_003) + (id * 7) + 11) in
  let z = zipf inp in
  fun () ->
    match mix with
    | Uniform -> Read (uniform_read inp rng)
    | Zipf_reads -> Read (zipf_read z rng)
    | Zipf_rw ->
        if Rng.int rng write_one_in = 0 then write inp rng
        else Read (zipf_read z rng)

(* Writes only, for the write probe of the read-only workloads. *)
let write_stream inp ~seed ~id =
  let rng = Rng.create ~seed:((seed * 1_000_003) + (id * 7) + 11) in
  fun () -> write inp rng

let reads_only next () =
  let rec go () = match next () with Read q -> q | Write _ -> go () in
  go ()

let take n next = List.init n (fun _ -> next ())
