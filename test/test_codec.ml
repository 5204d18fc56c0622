(* Wire codec: exact round trips, length accounting, decode errors. *)

module F = Pax_bool.Formula
module Var = Pax_bool.Var
module Codec = Pax_bool.Codec
module Bits = Pax_bool.Bits

(* Random-case counts scale with PAX_QCHECK_COUNT (the @slow suites). *)
let qcheck_count n =
  match Sys.getenv_opt "PAX_QCHECK_COUNT" with
  | Some s -> ( try int_of_string s with _ -> n)
  | None -> n

(* Reuse the formula generator shape from test_formula. *)
let gen_formula : F.t QCheck.Gen.t =
  let open QCheck.Gen in
  let var_gen =
    oneofl
      [ Var.Qual (0, 0); Var.Qual (127, 128); Var.Sel_ctx (300, 2);
        Var.Qual_at (99999, 17) ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 1 then oneof [ return F.true_; return F.false_; map F.var var_gen ]
         else
           oneof
             [
               map F.var var_gen;
               map F.not_ (self (n / 2));
               map2 F.conj (self (n / 2)) (self (n / 2));
               map2 F.disj (self (n / 2)) (self (n / 2));
             ])

let arbitrary_formula = QCheck.make ~print:F.to_string gen_formula

let round_trip c x = Codec.of_string c (Codec.to_string c x)
let encoded_length c x = String.length (Codec.to_string c x) = Codec.size c x

let props =
  [
    QCheck.Test.make ~name:"formula round trip" ~count:(qcheck_count 1000)
      arbitrary_formula (fun f -> F.equal (round_trip Codec.formula f) f);
    QCheck.Test.make ~name:"encoded length matches formula_bytes"
      ~count:(qcheck_count 500) arbitrary_formula (encoded_length Codec.formula);
    QCheck.Test.make ~name:"vector round trip" ~count:(qcheck_count 300)
      (QCheck.make
         QCheck.Gen.(list_size (int_range 0 12) gen_formula))
      (fun fs ->
        let a = Array.of_list fs in
        let b = round_trip Codec.formulas a in
        Array.length a = Array.length b
        && Array.for_all2 F.equal a b);
    QCheck.Test.make ~name:"bool array round trip" ~count:(qcheck_count 300)
      QCheck.(list bool)
      (fun bs ->
        let a = Array.of_list bs in
        round_trip Codec.bools (Bits.of_array a) = Bits.of_array a);
    QCheck.Test.make ~name:"bool array length" ~count:(qcheck_count 300)
      QCheck.(list bool)
      (fun bs -> encoded_length Codec.bools (Bits.of_array (Array.of_list bs)));
  ]

(* Totality fuzz: mutate valid encodings (byte flips, truncation,
   garbage suffixes) — the [_opt] decoders must return, never raise.
   Where they do decode, a re-encode/decode round trip must agree
   (no partially-corrupt value sneaks through as unstable). *)
let gen_mutations : (string -> string) QCheck.Gen.t =
  let open QCheck.Gen in
  let flip_byte =
    pair (int_bound 10_000) (int_bound 255) >|= fun (pos, b) s ->
    if s = "" then s
    else begin
      let bs = Bytes.of_string s in
      Bytes.set bs (pos mod Bytes.length bs) (Char.chr b);
      Bytes.to_string bs
    end
  in
  let truncate =
    int_bound 10_000 >|= fun n s -> String.sub s 0 (n mod (String.length s + 1))
  in
  let append = string_size (int_range 1 5) >|= fun junk s -> s ^ junk in
  list_size (int_range 1 4) (oneof [ flip_byte; truncate; append ])
  >|= fun ms s -> List.fold_left (fun acc m -> m acc) s ms

let total_after_mutation (type a) name count gen encode
    (decode_opt : string -> a option) =
  QCheck.Test.make ~name ~count
    (QCheck.make QCheck.Gen.(pair gen gen_mutations))
    (fun (x, mutate) ->
      match decode_opt (mutate (encode x)) with
      | None -> true
      | Some _ -> true)

let fuzz =
  [
    total_after_mutation "mutated formula never raises" (qcheck_count 2000)
      gen_formula
      (Codec.to_string Codec.formula)
      (Codec.of_string_opt Codec.formula);
    total_after_mutation "mutated vector never raises" (qcheck_count 1000)
      QCheck.Gen.(map Array.of_list (list_size (int_range 0 12) gen_formula))
      (Codec.to_string Codec.formulas)
      (Codec.of_string_opt Codec.formulas);
    total_after_mutation "mutated bool array never raises" (qcheck_count 1000)
      QCheck.Gen.(map (fun bs -> Bits.of_array (Array.of_list bs)) (list bool))
      (Codec.to_string Codec.bools)
      (Codec.of_string_opt Codec.bools);
    QCheck.Test.make ~name:"opt agrees with raising decoder"
      ~count:(qcheck_count 500) arbitrary_formula (fun f ->
        match Codec.(of_string_opt formula (to_string formula f)) with
        | Some g -> F.equal f g
        | None -> false);
  ]

let test_compactness () =
  (* A ground vector of 64 entries costs ~65 bytes, not 64 words. *)
  let vec = Array.make 64 F.true_ in
  Alcotest.(check bool) "ground vectors are tiny" true
    (Codec.size Codec.formulas vec <= 66);
  (* Variables with small ids: 3 bytes. *)
  Alcotest.(check int) "small var" 3
    (Codec.size Codec.formula (F.var (Var.Qual (1, 2))));
  (* Large ids grow gently (varint). *)
  Alcotest.(check bool) "large var still small" true
    (Codec.size Codec.formula (F.var (Var.Qual_at (1_000_000, 200))) <= 6)

(* Each error names the offset where reading failed. *)
let test_decode_errors () =
  let fails ~at s =
    match Codec.of_string Codec.formula s with
    | exception Codec.Decode_error { pos; _ } ->
        Alcotest.(check int) (Printf.sprintf "offset in %S" s) at pos
    | _ -> Alcotest.fail "should not decode"
  in
  fails ~at:0 "";
  fails ~at:0 "\xff" (* unknown tag *);
  fails ~at:1 "\x02" (* Not without operand *);
  fails ~at:1 "\x00\x00" (* trailing bytes *);
  fails ~at:1 "\x03\x05\x00" (* a count beyond the bytes left *);
  fails ~at:9 ("\x05" ^ String.make 8 '\x80') (* a varint over 56 bits *);
  match Codec.of_string Codec.bools "\x20" with
  | exception Codec.Decode_error { pos = 1; _ } -> ()
  | _ -> Alcotest.fail "truncated bools must fail"

(* A Resolution section's bits stay packed when decoded: one byte per
   eight bits, not a word per bit (which made a 1 MiB section allocate
   67 MB), however many bits the count claims.  Padding bits past the
   count are cleared, so equal vectors compare equal. *)
let test_bools_allocation () =
  let payload = 1 lsl 22 in
  let bits = Bits.of_bytes (8 * payload) (String.make payload '\xA5') in
  let s = Codec.to_string (Codec.sized Codec.bools) bits in
  let before = Gc.allocated_bytes () in
  let decoded = Codec.of_string (Codec.sized Codec.bools) s in
  let allocated = Gc.allocated_bytes () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f bytes allocated for a %d-byte section" allocated
       (String.length s))
    true
    (allocated < 1.1 *. float_of_int payload);
  Alcotest.(check bool) "the bits survive" true
    (Bits.length decoded = 8 * payload
    && Bits.get decoded 0
    && (not (Bits.get decoded 1))
    && Bits.get decoded ((8 * payload) - 1)
    && not (Bits.get decoded (8 * payload)));
  let padded = Codec.of_string Codec.bools "\x03\xFF" in
  Alcotest.(check bool) "padding cleared" true
    (padded = Bits.of_array [| true; true; true |])

let () =
  Alcotest.run "codec"
    [
      ( "unit",
        [
          Alcotest.test_case "compactness" `Quick test_compactness;
          Alcotest.test_case "decode errors" `Quick test_decode_errors;
          Alcotest.test_case "bools stay packed" `Quick test_bools_allocation;
        ] );
      ("roundtrip", List.map QCheck_alcotest.to_alcotest props);
      ("fuzz", List.map QCheck_alcotest.to_alcotest fuzz);
    ]
