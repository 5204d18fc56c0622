exception Decode_error of { pos : int; reason : string }

(* A growing buffer: encoding is one pass, and [size] serves accounting
   without encoding anything.  [wc] holds what {!counted} tallies: empty
   unless the run asked for counts. *)
type writer = { mutable buf : Bytes.t; mutable pos : int; wc : int array }

(* [lim] is the end of the innermost bounds: the input's end, or the end
   of the u24-length section being read. *)
type reader = {
  src : string;
  mutable at : int;
  mutable lim : int;
  rc : int array;
}

type 'a t = {
  size : 'a -> int;
  write : writer -> 'a -> unit;
  read : reader -> 'a;
}

let reserve w n =
  if w.pos + n > Bytes.length w.buf then begin
    let buf = Bytes.create (max (2 * Bytes.length w.buf) (w.pos + n)) in
    Bytes.blit w.buf 0 buf 0 w.pos;
    w.buf <- buf
  end

let fail_at pos reason = raise (Decode_error { pos; reason })
let fail r reason = fail_at r.at reason

(* ------------------------------------------------------------------ *)
(* primitives                                                         *)
(* ------------------------------------------------------------------ *)

let u8 =
  {
    size = (fun _ -> 1);
    write =
      (fun w n ->
        reserve w 1;
        Bytes.set_uint8 w.buf w.pos (n land 0xFF);
        w.pos <- w.pos + 1);
    read =
      (fun r ->
        if r.at >= r.lim then fail r "truncated byte";
        let b = Char.code r.src.[r.at] in
        r.at <- r.at + 1;
        b);
  }

(* LEB128, unsigned. *)
let varint_size n =
  let rec go n acc = if n < 0x80 then acc else go (n lsr 7) (acc + 1) in
  go n 1

let varint =
  {
    size = varint_size;
    write =
      (fun w n ->
        if n < 0 then invalid_arg "Codec.varint: negative";
        let rec go n =
          if n < 0x80 then u8.write w n
          else begin
            u8.write w (0x80 lor (n land 0x7F));
            go (n lsr 7)
          end
        in
        go n);
    read =
      (fun r ->
        let rec go shift acc =
          if r.at >= r.lim then fail r "truncated varint"
            (* A shift this deep would drop bits or turn the value
               negative: nothing we encode is that long. *)
          else if shift > Sys.int_size - 8 then fail r "varint overflow"
          else begin
            let b = Char.code r.src.[r.at] in
            r.at <- r.at + 1;
            let acc = acc lor ((b land 0x7F) lsl shift) in
            if b land 0x80 = 0 then acc else go (shift + 7) acc
          end
        in
        go 0 0);
  }

let blit w s =
  reserve w (String.length s);
  Bytes.blit_string s 0 w.buf w.pos (String.length s);
  w.pos <- w.pos + String.length s

let take r n =
  if n > r.lim - r.at then fail r "truncated string";
  let s = String.sub r.src r.at n in
  r.at <- r.at + n;
  s

let string =
  {
    size = (fun s -> varint_size (String.length s) + String.length s);
    write =
      (fun w s ->
        varint.write w (String.length s);
        blit w s);
    read = (fun r -> take r (varint.read r));
  }

let rest =
  { size = String.length; write = blit; read = (fun r -> take r (r.lim - r.at)) }

let literal s =
  {
    size = (fun () -> String.length s);
    write = (fun w () -> blit w s);
    read =
      (fun r ->
        let at = r.at in
        if take r (String.length s) <> s then fail_at at "bad magic");
  }

let trailing c =
  {
    size = (function None -> 0 | Some x -> c.size x);
    write = (fun w -> function None -> () | Some x -> c.write w x);
    read = (fun r -> if r.at < r.lim then Some (c.read r) else None);
  }

let float =
  {
    size = (fun _ -> 8);
    write =
      (fun w f ->
        reserve w 8;
        Bytes.set_int64_be w.buf w.pos (Int64.bits_of_float f);
        w.pos <- w.pos + 8);
    read =
      (fun r ->
        if r.lim - r.at < 8 then fail r "truncated f64";
        let bits = String.get_int64_be r.src r.at in
        r.at <- r.at + 8;
        Int64.float_of_bits bits);
  }

let const x =
  { size = (fun _ -> 0); write = (fun _ _ -> ()); read = (fun _ -> x) }
let unit = const ()

(* ------------------------------------------------------------------ *)
(* combinators                                                        *)
(* ------------------------------------------------------------------ *)

let map inj proj c =
  {
    size = (fun x -> c.size (proj x));
    write = (fun w x -> c.write w (proj x));
    read = (fun r -> inj (c.read r));
  }

let guard reason ok c =
  {
    c with
    read =
      (fun r ->
        let at = r.at in
        let x = c.read r in
        if not (ok x) then fail_at at reason;
        x);
  }

let pair a b =
  {
    size = (fun (x, y) -> a.size x + b.size y);
    write =
      (fun w (x, y) ->
        a.write w x;
        b.write w y);
    read =
      (fun r ->
        let x = a.read r in
        (x, b.read r));
  }

let triple a b c =
  {
    size = (fun (x, y, z) -> a.size x + b.size y + c.size z);
    write =
      (fun w (x, y, z) ->
        a.write w x;
        b.write w y;
        c.write w z);
    read =
      (fun r ->
        let x = a.read r in
        let y = b.read r in
        (x, y, c.read r));
  }

let option c =
  {
    size = (function None -> 1 | Some x -> 1 + c.size x);
    write =
      (fun w -> function
        | None -> u8.write w 0
        | Some x ->
            u8.write w 1;
            c.write w x);
    read =
      (fun r ->
        let at = r.at in
        match u8.read r with
        | 0 -> None
        | 1 -> Some (c.read r)
        | _ -> fail_at at "bad option flag");
  }

(* A count is checked against the bytes left before anything is sized
   by it: every element takes at least one byte. *)
let count r =
  let at = r.at in
  let n = varint.read r in
  if n > r.lim - r.at then fail_at at "bad count";
  n

let list c =
  {
    size =
      (fun l ->
        List.fold_left
          (fun acc x -> acc + c.size x)
          (varint_size (List.length l))
          l);
    write =
      (fun w l ->
        varint.write w (List.length l);
        List.iter (c.write w) l);
    read =
      (fun r ->
        let rec go k acc =
          if k = 0 then List.rev acc else go (k - 1) (c.read r :: acc)
        in
        go (count r) []);
  }

let array c =
  {
    size =
      (fun a ->
        Array.fold_left
          (fun acc x -> acc + c.size x)
          (varint_size (Array.length a))
          a);
    write =
      (fun w a ->
        varint.write w (Array.length a);
        Array.iter (c.write w) a);
    read = (fun r -> Array.init (count r) (fun _ -> c.read r));
  }

let fix f =
  let self = ref None in
  let get () =
    match !self with
    | Some c -> c
    | None -> invalid_arg "Codec.fix: codec used while being defined"
  in
  let c =
    f
      {
        size = (fun x -> (get ()).size x);
        write = (fun w x -> (get ()).write w x);
        read = (fun r -> (get ()).read r);
      }
  in
  self := Some c;
  c

(* ------------------------------------------------------------------ *)
(* tagged unions                                                      *)
(* ------------------------------------------------------------------ *)

type ('a, 'b) case = { tag : int; body : 'b t; inj : 'b -> 'a }
type 'a any_case = Case : ('a, 'b) case -> 'a any_case
type 'a view = View : ('a, 'b) case * 'b -> 'a view

let case tag body inj =
  if tag < 0 || tag > 0xFF then invalid_arg "Codec.case: tag outside a byte";
  { tag; body; inj }

let union what cases view =
  let table = Array.make 0x100 None in
  List.iter
    (fun (Case c as k) ->
      if Option.is_some table.(c.tag) then
        invalid_arg "Codec.union: duplicate tag";
      table.(c.tag) <- Some k)
    cases;
  {
    size =
      (fun x ->
        let (View (c, b)) = view x in
        1 + c.body.size b);
    write =
      (fun w x ->
        let (View (c, b)) = view x in
        u8.write w c.tag;
        c.body.write w b);
    read =
      (fun r ->
        let at = r.at in
        let tag = u8.read r in
        match table.(tag) with
        | Some (Case c) -> c.inj (c.body.read r)
        | None -> fail_at at (Printf.sprintf "unknown %s %d" what tag));
  }

let expect what c =
  {
    size = (fun b -> 1 + c.body.size b);
    write =
      (fun w b ->
        u8.write w c.tag;
        c.body.write w b);
    read =
      (fun r ->
        let at = r.at in
        if u8.read r <> c.tag then fail_at at ("expected " ^ what);
        c.body.read r);
  }

let flags what ~bits flags_of body =
  let cases = Array.init (1 lsl bits) (fun f -> case f (body f) Fun.id) in
  union what
    (Array.to_list (Array.map (fun c -> Case c) cases))
    (fun x -> View (cases.(flags_of x), x))

let if_set set c = if set then map Option.some Option.get c else const None

let result ok error =
  let ok = case 0 ok Result.ok and error = case 1 error Result.error in
  union "status" [ Case ok; Case error ] (function
    | Ok x -> View (ok, x)
    | Error e -> View (error, e))

(* ------------------------------------------------------------------ *)
(* sections                                                           *)
(* ------------------------------------------------------------------ *)

let max_section = 0xFFFFFF

(* The payload is written in place after three reserved bytes, which
   then receive its length; reading narrows the bounds to the payload,
   which must be consumed exactly. *)
let sized c =
  {
    size = (fun x -> 3 + c.size x);
    write =
      (fun w x ->
        let start = w.pos in
        reserve w 3;
        w.pos <- start + 3;
        c.write w x;
        let n = w.pos - start - 3 in
        if n > max_section then
          invalid_arg "Codec.sized: payload exceeds 16 MiB";
        Bytes.set_uint8 w.buf start (n lsr 16);
        Bytes.set_uint16_be w.buf (start + 1) (n land 0xFFFF));
    read =
      (fun r ->
        if r.lim - r.at < 3 then fail r "truncated section length";
        let n =
          (String.get_uint8 r.src r.at lsl 16)
          lor String.get_uint16_be r.src (r.at + 1)
        in
        r.at <- r.at + 3;
        if n > r.lim - r.at then fail r "truncated section";
        let outer = r.lim in
        r.lim <- r.at + n;
        let x = c.read r in
        if r.at <> r.lim then fail r "trailing section bytes";
        r.lim <- outer;
        x);
  }

(* ------------------------------------------------------------------ *)
(* counting                                                           *)
(* ------------------------------------------------------------------ *)

let counters = 2

(* Counter [i]'s values go to slot [2i], their bytes to slot [2i + 1];
   a run that asked for no counts has no slots, and pays one test. *)
let counted i c =
  if i < 0 || i >= counters then invalid_arg "Codec.counted: no such counter";
  let bump counts start stop =
    if Array.length counts > 0 then begin
      counts.(2 * i) <- counts.(2 * i) + 1;
      counts.((2 * i) + 1) <- counts.((2 * i) + 1) + stop - start
    end
  in
  {
    size = c.size;
    write =
      (fun w x ->
        let start = w.pos in
        c.write w x;
        bump w.wc start w.pos);
    read =
      (fun r ->
        let start = r.at in
        let x = c.read r in
        bump r.rc start r.at;
        x);
  }

(* ------------------------------------------------------------------ *)
(* running a codec                                                    *)
(* ------------------------------------------------------------------ *)

let size c x = c.size x

let encode c x wc =
  let w = { buf = Bytes.create 256; pos = 0; wc } in
  c.write w x;
  Bytes.sub_string w.buf 0 w.pos

let decode c s rc =
  let r = { src = s; at = 0; lim = String.length s; rc } in
  let x = c.read r in
  if r.at <> r.lim then fail r "trailing bytes";
  x

let to_string c x = encode c x [||]
let of_string c s = decode c s [||]

let to_string_counted c x =
  let counts = Array.make (2 * counters) 0 in
  let s = encode c x counts in
  (s, counts)

let of_string_counted c s =
  let counts = Array.make (2 * counters) 0 in
  let x = decode c s counts in
  (x, counts)

let of_string_opt c s =
  match of_string c s with x -> Some x | exception Decode_error _ -> None

(* ------------------------------------------------------------------ *)
(* formulas and vectors                                               *)
(* ------------------------------------------------------------------ *)

(* Decoding rebuilds through the smart constructors, so a decoded
   formula is also in simplified form; encoders only ever see
   simplified formulas, making the round trip exact. *)
let formula =
  fix (fun formula ->
      let var k mk =
        case k (pair varint varint) (fun (a, b) -> Formula.var (mk a b))
      and children = list formula in
      let true_ = case 0 unit (fun () -> Formula.true_)
      and false_ = case 1 unit (fun () -> Formula.false_)
      and not_ = case 2 formula Formula.not_
      and and_ = case 3 children Formula.and_
      and or_ = case 4 children Formula.or_
      and qual = var 5 (fun a b -> Var.Qual (a, b))
      and ctx = var 6 (fun a b -> Var.Sel_ctx (a, b))
      and at = var 7 (fun a b -> Var.Qual_at (a, b)) in
      union "formula tag"
        [
          Case true_; Case false_; Case not_; Case and_; Case or_; Case qual;
          Case ctx; Case at;
        ]
        (function
          | Formula.True -> View (true_, ())
          | False -> View (false_, ())
          | Not g -> View (not_, g)
          | And gs -> View (and_, gs)
          | Or gs -> View (or_, gs)
          | Var (Var.Qual (a, b)) -> View (qual, (a, b))
          | Var (Var.Sel_ctx (a, b)) -> View (ctx, (a, b))
          | Var (Var.Qual_at (a, b)) -> View (at, (a, b))))

let formulas = array formula

(* A count, then the bits packed eight to a byte, least significant
   first: {!Bits}' own layout, so both directions copy bytes.  Reading
   keeps the bits packed: a section of [k] bytes costs [k] bytes, not a
   word per bit. *)
let bools =
  let bytes n = (n + 7) / 8 in
  {
    size = (fun bs -> varint_size (Bits.length bs) + bytes (Bits.length bs));
    write =
      (fun w bs ->
        varint.write w (Bits.length bs);
        blit w (Bits.bytes bs));
    read =
      (fun r ->
        let n = varint.read r in
        if bytes n > r.lim - r.at then fail r "truncated bools";
        Bits.of_bytes n (take r (bytes n)));
  }
