type cmp = Eq | Neq | Lt | Le | Gt | Ge

type path =
  | Empty
  | Tag of string
  | Wildcard
  | Slash of path * path
  | Dslash of path * path
  | Qualified of path * qual

and qual =
  | QPath of path
  | QText of path * string
  | QVal of path * cmp * float
  | QAttr of path * string * string option
  | QNot of qual
  | QAnd of qual * qual
  | QOr of qual * qual

type t = { absolute : bool; path : path }

let compare_num op a b =
  match op with
  | Eq -> a = b
  | Neq -> a <> b
  | Lt -> a < b
  | Le -> a <= b
  | Gt -> a > b
  | Ge -> a >= b

let cmp_to_string = function
  | Eq -> "="
  | Neq -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let rec size_path = function
  | Empty | Tag _ | Wildcard -> 1
  | Slash (p, q) | Dslash (p, q) -> 1 + size_path p + size_path q
  | Qualified (p, q) -> 1 + size_path p + size_qual q

and size_qual = function
  | QPath p -> size_path p
  | QText (p, _) | QVal (p, _, _) | QAttr (p, _, _) -> 1 + size_path p
  | QNot q -> 1 + size_qual q
  | QAnd (a, b) | QOr (a, b) -> 1 + size_qual a + size_qual b

let size t = 1 + size_path t.path
let equal (a : t) (b : t) = a = b

(* Printing re-parses to the same AST (modulo ε placement); used by the
   CLI and by parser round-trip tests. *)

(* Numbers and strings print so that they read back unchanged (a site
   server reparses a query's source): 15 significant digits unless
   that rounds, and the quote the string does not hold. *)
let num_to_string n =
  let s = Printf.sprintf "%.15g" n in
  if float_of_string s = n then s else Printf.sprintf "%.17g" n

let quoted s = if String.contains s '"' then "'" ^ s ^ "'" else "\"" ^ s ^ "\""
let rec pp_path ppf = function
  | Empty -> Format.pp_print_string ppf "."
  | Tag a -> Format.pp_print_string ppf a
  | Wildcard -> Format.pp_print_char ppf '*'
  | Slash (Empty, q) -> pp_path ppf q
  | Slash (p, Empty) -> pp_path ppf p
  | Slash (p, q) -> Format.fprintf ppf "%a/%a" pp_path p pp_path q
  | Dslash (Empty, q) -> Format.fprintf ppf ".//%a" pp_path q
  | Dslash (p, q) -> Format.fprintf ppf "%a//%a" pp_path p pp_path q
  | Qualified (p, q) -> Format.fprintf ppf "%a[%a]" pp_path p pp_qual q

and pp_qual ppf = function
  | QPath p -> pp_path ppf p
  | QText (Empty, s) -> Format.fprintf ppf "text() = %s" (quoted s)
  | QText (p, s) -> Format.fprintf ppf "%a/text() = %s" pp_path p (quoted s)
  | QVal (Empty, op, n) ->
      Format.fprintf ppf "val() %s %s" (cmp_to_string op) (num_to_string n)
  | QVal (p, op, n) ->
      Format.fprintf ppf "%a/val() %s %s" pp_path p (cmp_to_string op)
        (num_to_string n)
  | QAttr (Empty, name, None) -> Format.fprintf ppf "@%s" name
  | QAttr (Empty, name, Some v) -> Format.fprintf ppf "@%s = %s" name (quoted v)
  | QAttr (p, name, None) -> Format.fprintf ppf "%a/@%s" pp_path p name
  | QAttr (p, name, Some v) ->
      Format.fprintf ppf "%a/@%s = %s" pp_path p name (quoted v)
  | QNot q -> Format.fprintf ppf "not(%a)" pp_qual q
  | QAnd (a, b) -> Format.fprintf ppf "(%a and %a)" pp_qual a pp_qual b
  | QOr (a, b) -> Format.fprintf ppf "(%a or %a)" pp_qual a pp_qual b

let pp ppf t =
  if t.absolute then begin
    match t.path with
    | Dslash (Empty, q) -> Format.fprintf ppf "//%a" pp_path q
    | p -> Format.fprintf ppf "/%a" pp_path p
  end
  else pp_path ppf t.path

let to_string t = Format.asprintf "%a" pp t
