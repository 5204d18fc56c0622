type t =
  | Qual of int * int
  | Sel_ctx of int * int
  | Qual_at of int * int

(* Typed, so that no comparison goes through the runtime's generic
   [compare_val]: [compare] orders as [Stdlib.compare] does, by
   constructor and then field by field. *)
let equal a b =
  match (a, b) with
  | Qual (f, e), Qual (f', e')
  | Sel_ctx (f, e), Sel_ctx (f', e')
  | Qual_at (f, e), Qual_at (f', e') ->
      Int.equal f f' && Int.equal e e'
  | (Qual _ | Sel_ctx _ | Qual_at _), _ -> false

let rank = function Qual _ -> 0 | Sel_ctx _ -> 1 | Qual_at _ -> 2

let compare a b =
  match (a, b) with
  | Qual (f, e), Qual (f', e')
  | Sel_ctx (f, e), Sel_ctx (f', e')
  | Qual_at (f, e), Qual_at (f', e') ->
      let c = Int.compare f f' in
      if c <> 0 then c else Int.compare e e'
  | (Qual _ | Sel_ctx _ | Qual_at _), _ -> Int.compare (rank a) (rank b)

let hash (v : t) = Hashtbl.hash v

let fragment = function
  | Qual (fid, _) | Sel_ctx (fid, _) -> Some fid
  | Qual_at _ -> None

let pp ppf = function
  | Qual (fid, e) -> Format.fprintf ppf "x[F%d.%d]" fid e
  | Sel_ctx (fid, i) -> Format.fprintf ppf "z[F%d.%d]" fid i
  | Qual_at (node, e) -> Format.fprintf ppf "q[n%d.%d]" node e

let to_string v = Format.asprintf "%a" pp v

(* Wire encoding: a tag byte plus two varints; 8 bytes is a fair bound. *)
let byte_size _ = 8

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)
