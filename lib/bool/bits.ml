(* [bytes] holds [(n + 7) / 8] bytes, the bits past [n] in the last one
   cleared, so equal vectors are structurally equal. *)
type t = { n : int; bytes : string }

let n_bytes n = (n + 7) / 8

let of_array a =
  let n = Array.length a in
  let b = Bytes.make (n_bytes n) '\000' in
  Array.iteri
    (fun i set ->
      if set then
        Bytes.set_uint8 b (i / 8)
          (Bytes.get_uint8 b (i / 8) lor (1 lsl (i mod 8))))
    a;
  { n; bytes = Bytes.unsafe_to_string b }

let length t = t.n

let get t i =
  i >= 0 && i < t.n
  && Char.code (String.unsafe_get t.bytes (i / 8)) land (1 lsl (i mod 8)) <> 0

let of_bytes n s =
  if n < 0 || String.length s <> n_bytes n then
    invalid_arg "Bits.of_bytes: length mismatch";
  let last = String.length s - 1 and keep = (1 lsl (n mod 8)) - 1 in
  if n mod 8 = 0 || String.get_uint8 s last land lnot keep = 0 then
    { n; bytes = s }
  else
    let b = Bytes.of_string s in
    Bytes.set_uint8 b last (Bytes.get_uint8 b last land keep);
    { n; bytes = Bytes.unsafe_to_string b }

let bytes t = t.bytes
