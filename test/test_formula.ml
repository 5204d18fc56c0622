(* Unit and property tests for the residual-formula engine. *)

module F = Pax_bool.Formula
module Var = Pax_bool.Var

let x = Var.Qual (1, 0)
let y = Var.Qual (2, 3)
let z = Var.Sel_ctx (1, 2)
let fx = F.var x
let fy = F.var y
let fz = F.var z
let check_f = Alcotest.(check string)
let s f = F.to_string f

let test_constants () =
  check_f "and [] is true" "T" (s (F.and_ []));
  check_f "or [] is false" "F" (s (F.or_ []));
  check_f "true wins in or" "T" (s (F.or_ [ fx; F.true_ ]));
  check_f "false wins in and" "F" (s (F.and_ [ fx; F.false_ ]));
  check_f "units drop" (s fx) (s (F.and_ [ F.true_; fx ]));
  check_f "absorbing or" (s fx) (s (F.or_ [ F.false_; fx ]))

let test_involution () =
  check_f "double negation" (s fx) (s (F.not_ (F.not_ fx)));
  check_f "not true" "F" (s (F.not_ F.true_));
  check_f "not false" "T" (s (F.not_ F.false_))

let test_flattening () =
  let f = F.and_ [ fx; F.and_ [ fy; fz ] ] in
  (match f with
  | F.And l -> Alcotest.(check int) "flat conjunction" 3 (List.length l)
  | _ -> Alcotest.fail "expected a conjunction");
  let g = F.or_ [ F.or_ [ fx; fy ]; fz ] in
  match g with
  | F.Or l -> Alcotest.(check int) "flat disjunction" 3 (List.length l)
  | _ -> Alcotest.fail "expected a disjunction"

let test_duplicates () =
  check_f "idempotent and" (s fx) (s (F.and_ [ fx; fx ]));
  check_f "idempotent or" (s fx) (s (F.or_ [ fx; fx; fx ]))

let test_subst () =
  let f = F.conj fx (F.disj fy fz) in
  let lookup v = if Var.equal v x then Some F.true_ else None in
  check_f "partial substitution" (s (F.disj fy fz)) (s (F.subst lookup f));
  let all v =
    if Var.equal v x then Some F.true_
    else if Var.equal v y then Some F.false_
    else Some F.true_
  in
  check_f "full substitution grounds" "T" (s (F.subst all f))

let test_vars () =
  let f = F.conj fx (F.disj fy (F.not_ fx)) in
  Alcotest.(check int) "two distinct variables" 2 (List.length (F.vars f));
  Alcotest.(check bool) "not ground" false (F.is_ground f);
  Alcotest.(check bool) "constants are ground" true (F.is_ground F.true_)

let count n =
  match Sys.getenv_opt "PAX_QCHECK_COUNT" with
  | Some s -> (try int_of_string s with _ -> n)
  | None -> n

(* Random variables over two small ints, so that two of them often
   differ in one field only, or carry the same ints under different
   constructors. *)
let gen_var : Var.t QCheck.Gen.t =
  let open QCheck.Gen in
  map3
    (fun k a b ->
      match k with
      | 0 -> Var.Qual (a, b)
      | 1 -> Var.Sel_ctx (a, b)
      | _ -> Var.Qual_at (a, b))
    (int_bound 2) (int_bound 1) (int_bound 1)

(* Random formulas of size [n] for property tests. *)
let gen_formula_of_size : int -> F.t QCheck.Gen.t =
  let open QCheck.Gen in
  fix (fun self n ->
      if n <= 1 then
        oneof [ return F.true_; return F.false_; map F.var gen_var ]
      else
        oneof
          [
            map F.var gen_var;
            map F.not_ (self (n / 2));
            map2 F.conj (self (n / 2)) (self (n / 2));
            map2 F.disj (self (n / 2)) (self (n / 2));
            map F.and_ (list_size (int_range 0 4) (self (n / 4)));
            map F.or_ (list_size (int_range 0 4) (self (n / 4)));
          ])

let gen_formula = QCheck.Gen.sized gen_formula_of_size
let gen_small_formula = QCheck.Gen.(int_bound 8 >>= gen_formula_of_size)

let arbitrary_formula = QCheck.make ~print:F.to_string gen_formula

let valuation_of_seed seed v = Hashtbl.hash (seed, Var.hash v) mod 2 = 0

let prop name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count:(count 500) arb f)

let semantics_props =
  [
    prop "conj means &&"
      (QCheck.pair arbitrary_formula arbitrary_formula) (fun (a, b) ->
        let v = valuation_of_seed 1 in
        F.eval v (F.conj a b) = (F.eval v a && F.eval v b));
    prop "disj means ||"
      (QCheck.pair arbitrary_formula arbitrary_formula) (fun (a, b) ->
        let v = valuation_of_seed 2 in
        F.eval v (F.disj a b) = (F.eval v a || F.eval v b));
    prop "not means not" arbitrary_formula (fun a ->
        let v = valuation_of_seed 3 in
        F.eval v (F.not_ a) = not (F.eval v a));
    prop "ground formulas are constants" arbitrary_formula (fun a ->
        let lookup v = Some (F.bool (valuation_of_seed 4 v)) in
        match F.to_bool (F.subst lookup a) with
        | Some b -> b = F.eval (valuation_of_seed 4) a
        | None -> false);
    prop "subst with empty lookup is identity" arbitrary_formula (fun a ->
        F.equal (F.subst (fun _ -> None) a) a);
    prop "size positive" arbitrary_formula (fun a -> F.size a >= 1);
    prop "byte size positive" arbitrary_formula (fun a -> F.byte_size a >= 1);
    prop "vars of ground subst are empty" arbitrary_formula (fun a ->
        let lookup _ = Some F.false_ in
        F.vars (F.subst lookup a) = []);
  ]

(* The typed equalities, and the constructors built on them, against
   references written with polymorphic equality.  [r] mirrors [F.t],
   whose constructors are private; [r_and], [r_or] and [r_subst] are
   the simplifying constructors as they were written before equality
   was typed: [gather] with [Stdlib.(=)] and [List.mem]. *)
type r = T | Fa | V of Var.t | N of r | A of r list | O of r list

let rec to_r (f : F.t) =
  match f with
  | F.True -> T
  | F.False -> Fa
  | F.Var v -> V v
  | F.Not g -> N (to_r g)
  | F.And gs -> A (List.map to_r gs)
  | F.Or gs -> O (List.map to_r gs)

let r_gather ~unit ~absorb fs =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | f :: rest -> (
        match f with
        | f when f = absorb -> None
        | f when f = unit -> go acc rest
        | A gs when unit = T -> go acc (gs @ rest)
        | O gs when unit = Fa -> go acc (gs @ rest)
        | f -> if List.mem f acc then go acc rest else go (f :: acc) rest)
  in
  go [] fs

let r_and fs =
  match r_gather ~unit:T ~absorb:Fa fs with
  | None -> Fa
  | Some [] -> T
  | Some [ f ] -> f
  | Some fs -> A fs

let r_or fs =
  match r_gather ~unit:Fa ~absorb:T fs with
  | None -> T
  | Some [] -> Fa
  | Some [ f ] -> f
  | Some fs -> O fs

let r_not = function
  | T -> Fa
  | Fa -> T
  | N f -> f
  | (V _ | A _ | O _) as f -> N f

let rec r_subst lookup = function
  | (T | Fa) as f -> f
  | V v as f -> ( match lookup v with Some g -> to_r g | None -> f)
  | N f -> r_not (r_subst lookup f)
  | A fs -> r_and (List.map (r_subst lookup) fs)
  | O fs -> r_or (List.map (r_subst lookup) fs)

(* Pairs that are often equal or nearly so: a formula and a rebuilt
   copy of it, the conjunction and the disjunction of one list, two
   small formulas over the small variable pool, or two of any size. *)
let arbitrary_pair =
  let open QCheck.Gen in
  let rebuilt f = F.subst (fun _ -> None) (F.and_ [ f; F.true_ ]) in
  QCheck.make
    ~print:(fun (a, b) -> F.to_string a ^ "  vs  " ^ F.to_string b)
    (oneof
       [
         map (fun a -> (a, rebuilt a)) gen_formula;
         map
           (fun fs -> (F.and_ fs, F.or_ fs))
           (list_size (int_range 2 4) gen_small_formula);
         pair gen_small_formula gen_small_formula;
         pair gen_formula gen_formula;
       ])

let arbitrary_list =
  QCheck.make
    ~print:(fun fs -> String.concat ", " (List.map F.to_string fs))
    QCheck.Gen.(list_size (int_range 0 6) gen_small_formula)

(* A lookup over the small variable pool that resolves some variables
   to constants, some to other variables and leaves the rest. *)
let lookup_of_seed seed v =
  match Hashtbl.hash (seed, Var.hash v) mod 4 with
  | 0 -> Some F.true_
  | 1 -> Some F.false_
  | 2 -> Some (F.var (Var.Qual_at (seed mod 2, 0)))
  | _ -> None

let arbitrary_var_pair =
  QCheck.make
    ~print:(fun (a, b) -> Var.to_string a ^ "  vs  " ^ Var.to_string b)
    QCheck.Gen.(pair gen_var gen_var)

let equality_props =
  [
    prop "Var.equal = Stdlib.(=)" arbitrary_var_pair (fun (a, b) ->
        Var.equal a b = (a = b));
    prop "Var.compare orders as Stdlib.compare" arbitrary_var_pair
      (fun (a, b) ->
        Int.compare (Var.compare a b) 0 = Int.compare (compare a b) 0);
    prop "Formula.equal = Stdlib.(=)" arbitrary_pair (fun (a, b) ->
        F.equal a b = (a = b) && F.equal a a);
    prop "and_ = reference gather" arbitrary_list (fun fs ->
        to_r (F.and_ fs) = r_and (List.map to_r fs));
    prop "or_ = reference gather" arbitrary_list (fun fs ->
        to_r (F.or_ fs) = r_or (List.map to_r fs));
    prop "conj, disj = reference gather" arbitrary_pair (fun (a, b) ->
        to_r (F.conj a b) = r_and [ to_r a; to_r b ]
        && to_r (F.disj a b) = r_or [ to_r a; to_r b ]);
    prop "subst = reference gather"
      (QCheck.pair QCheck.small_nat arbitrary_formula)
      (fun (seed, f) ->
        let lookup = lookup_of_seed seed in
        to_r (F.subst lookup f) = r_subst lookup (to_r f));
  ]

let () =
  Alcotest.run "formula"
    [
      ( "unit",
        [
          Alcotest.test_case "constants" `Quick test_constants;
          Alcotest.test_case "involution" `Quick test_involution;
          Alcotest.test_case "flattening" `Quick test_flattening;
          Alcotest.test_case "duplicates" `Quick test_duplicates;
          Alcotest.test_case "substitution" `Quick test_subst;
          Alcotest.test_case "variables" `Quick test_vars;
        ] );
      ("properties", semantics_props);
      ("equality", equality_props);
    ]
