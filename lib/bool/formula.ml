type t =
  | True
  | False
  | Var of Var.t
  | Not of t
  | And of t list
  | Or of t list

let true_ = True
let false_ = False
let bool b = if b then True else False
let var v = Var v

let not_ = function
  | True -> False
  | False -> True
  | Not f -> f
  | (Var _ | And _ | Or _) as f -> Not f

(* Structural equality, typed: the stage kernels build formulas on
   every slot, and a polymorphic [=] there goes through the runtime's
   generic [compare_val]. *)
let rec equal a b =
  a == b
  ||
  match (a, b) with
  | Var x, Var y -> Var.equal x y
  | Not f, Not g -> equal f g
  | And fs, And gs | Or fs, Or gs -> List.equal equal fs gs
  | (True | False | Var _ | Not _ | And _ | Or _), _ -> false

let rec mem f = function [] -> false | g :: gs -> equal f g || mem f gs

(* [gather] flattens nested nodes of the same connective, folds the
   [absorb] constant, drops the [unit] constant and removes structural
   duplicates.  Worst-case quadratic in the conjunct count, but residual
   functions stay small (one literal per unresolved boundary variable).
   [unit] and [absorb] are the constants, which [==] tells apart. *)
let gather ~unit ~absorb fs =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | f :: rest -> (
        match f with
        | f when f == absorb -> None
        | f when f == unit -> go acc rest
        | And gs when unit == True -> go acc (gs @ rest)
        | Or gs when unit == False -> go acc (gs @ rest)
        | f -> if mem f acc then go acc rest else go (f :: acc) rest)
  in
  go [] fs

let and_ fs =
  match gather ~unit:True ~absorb:False fs with
  | None -> False
  | Some [] -> True
  | Some [ f ] -> f
  | Some fs -> And fs

let or_ fs =
  match gather ~unit:False ~absorb:True fs with
  | None -> True
  | Some [] -> False
  | Some [ f ] -> f
  | Some fs -> Or fs

(* Binary forms with fast paths: ground subformulas never allocate. *)
let conj a b =
  match (a, b) with
  | False, _ | _, False -> False
  | True, f | f, True -> f
  | a, b -> and_ [ a; b ]

let disj a b =
  match (a, b) with
  | True, _ | _, True -> True
  | False, f | f, False -> f
  | a, b -> or_ [ a; b ]

let rec subst lookup = function
  | True -> True
  | False -> False
  | Var v as f -> ( match lookup v with Some g -> g | None -> f)
  | Not f -> not_ (subst lookup f)
  | And fs -> and_ (List.map (subst lookup) fs)
  | Or fs -> or_ (List.map (subst lookup) fs)

let rec eval valuation = function
  | True -> true
  | False -> false
  | Var v -> valuation v
  | Not f -> not (eval valuation f)
  | And fs -> List.for_all (eval valuation) fs
  | Or fs -> List.exists (eval valuation) fs

let to_bool = function True -> Some true | False -> Some false | Var _ | Not _ | And _ | Or _ -> None

let rec fold_vars f acc = function
  | True | False -> acc
  | Var v -> f acc v
  | Not g -> fold_vars f acc g
  | And gs | Or gs -> List.fold_left (fold_vars f) acc gs

let is_ground f = fold_vars (fun _ _ -> false) true f

let vars f =
  Var.Set.elements (fold_vars (fun s v -> Var.Set.add v s) Var.Set.empty f)

let rec size = function
  | True | False | Var _ -> 1
  | Not f -> 1 + size f
  | And fs | Or fs -> List.fold_left (fun n f -> n + size f) 1 fs

let rec byte_size = function
  | True | False -> 1
  | Var v -> 1 + Var.byte_size v
  | Not f -> 1 + byte_size f
  | And fs | Or fs -> List.fold_left (fun n f -> n + byte_size f) 2 fs

let compare (a : t) (b : t) = Stdlib.compare a b

let rec pp ppf = function
  | True -> Format.pp_print_string ppf "T"
  | False -> Format.pp_print_string ppf "F"
  | Var v -> Var.pp ppf v
  | Not f -> Format.fprintf ppf "!%a" pp_atom f
  | And fs ->
      Format.fprintf ppf "(%a)"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf " & ") pp)
        fs
  | Or fs ->
      Format.fprintf ppf "(%a)"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf " | ") pp)
        fs

and pp_atom ppf f =
  match f with
  | True | False | Var _ | Not _ -> pp ppf f
  | And _ | Or _ -> Format.fprintf ppf "%a" pp f

let to_string f = Format.asprintf "%a" pp f
