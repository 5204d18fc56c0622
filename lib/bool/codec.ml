exception Decode_error of { pos : int; reason : string }

(* A growing buffer: encoding is one pass, and [size] serves accounting
   without encoding anything.  [wc] holds what {!counted} tallies: empty
   unless the writer counts. *)
type writer = { mutable buf : Bytes.t; mutable pos : int; wc : int array }

(* The input is [src], from [base]; [lim] is the end of the innermost
   bounds: the input's end, or the end of the section being read.
   [flags] is the last flags byte read ({!flags}).  Nothing decoded
   aliases [src]: strings are copied out. *)
type reader = {
  src : Bytes.t;
  base : int;
  mutable at : int;
  mutable lim : int;
  rc : int array;
  mutable flags : int;
}

type 'a t = {
  size : 'a -> int;
  write : writer -> 'a -> unit;
  read : reader -> 'a;
}

let grow w n =
  let buf = Bytes.create (max (2 * Bytes.length w.buf) (w.pos + n)) in
  Bytes.blit w.buf 0 buf 0 w.pos;
  w.buf <- buf

(* One capacity check, after which [n] bytes are written directly. *)
let[@inline] reserve w n = if w.pos + n > Bytes.length w.buf then grow w n

(* Offsets in errors count from the start of the input. *)
let fail_at r pos reason = raise (Decode_error { pos = pos - r.base; reason })
let fail r reason = fail_at r r.at reason

(* ------------------------------------------------------------------ *)
(* primitives                                                         *)
(* ------------------------------------------------------------------ *)

let[@inline] put_u8 w n =
  reserve w 1;
  Bytes.unsafe_set w.buf w.pos (Char.unsafe_chr (n land 0xFF));
  w.pos <- w.pos + 1

(* [lim] never passes the end of [src] ([decode] checks the input's
   bounds, and sections only narrow them), so a byte below [lim] is read
   unchecked. *)
let[@inline] byte r i = Char.code (Bytes.unsafe_get r.src i)

let[@inline] get_u8 r =
  let at = r.at in
  if at >= r.lim then fail r "truncated byte";
  r.at <- at + 1;
  byte r at

let u8 = { size = (fun _ -> 1); write = put_u8; read = get_u8 }

(* LEB128, unsigned: at most 9 bytes for a non-negative [int]. *)
let rec varint_size_from n acc =
  if n < 0x80 then acc else varint_size_from (n lsr 7) (acc + 1)

let[@inline] varint_size n =
  if n < 0x80 then 1
  else if n < 0x4000 then 2
  else if n < 0x200000 then 3
  else varint_size_from (n lsr 21) 4

let rec put_varint_at buf pos n =
  if n < 0x80 then begin
    Bytes.unsafe_set buf pos (Char.unsafe_chr n);
    pos + 1
  end
  else begin
    Bytes.unsafe_set buf pos (Char.unsafe_chr (0x80 lor (n land 0x7F)));
    put_varint_at buf (pos + 1) (n lsr 7)
  end

let[@inline] put_varint w n =
  if n < 0 then invalid_arg "Codec.varint: negative";
  reserve w 9;
  w.pos <- put_varint_at w.buf w.pos n

let rec get_varint_from r shift acc =
  if r.at >= r.lim then fail r "truncated varint"
    (* A shift this deep would drop bits or turn the value negative:
       nothing we encode is that long. *)
  else if shift > Sys.int_size - 8 then fail r "varint overflow"
  else begin
    let b = byte r r.at in
    r.at <- r.at + 1;
    let acc = acc lor ((b land 0x7F) lsl shift) in
    if b land 0x80 = 0 then acc else get_varint_from r (shift + 7) acc
  end

(* Varints of up to three bytes (every id below 2^21) in line. *)
let get_varint r =
  let at = r.at in
  if at + 3 > r.lim then get_varint_from r 0 0
  else
    let b0 = byte r at in
    if b0 < 0x80 then begin
      r.at <- at + 1;
      b0
    end
    else
      let b1 = byte r (at + 1) in
      if b1 < 0x80 then begin
        r.at <- at + 2;
        (b0 land 0x7F) lor (b1 lsl 7)
      end
      else
        let b2 = byte r (at + 2) in
        if b2 < 0x80 then begin
          r.at <- at + 3;
          (b0 land 0x7F) lor ((b1 land 0x7F) lsl 7) lor (b2 lsl 14)
        end
        else get_varint_from r 0 0

let varint = { size = varint_size; write = put_varint; read = get_varint }

let put_bytes w s =
  let n = String.length s in
  reserve w n;
  Bytes.unsafe_blit_string s 0 w.buf w.pos n;
  w.pos <- w.pos + n

let[@inline] take r n =
  if n > r.lim - r.at then fail r "truncated string";
  let s = Bytes.sub_string r.src r.at n in
  r.at <- r.at + n;
  s

let[@inline] put_string w s =
  let n = String.length s in
  reserve w (9 + n);
  let pos = put_varint_at w.buf w.pos n in
  Bytes.unsafe_blit_string s 0 w.buf pos n;
  w.pos <- pos + n

let[@inline] string_size s = varint_size (String.length s) + String.length s
let[@inline] get_string r = take r (get_varint r)

(* Equal bytes read as [prev] itself, with nothing allocated: a decoded
   string aliases no input, and strings are immutable, so sharing one is
   invisible. *)
let rec same_bytes src at prev i n =
  i = n
  || Bytes.unsafe_get src (at + i) = String.unsafe_get prev i
     && same_bytes src at prev (i + 1) n

let get_string_sharing r prev =
  let n = get_varint r in
  if n = String.length prev && n <= r.lim - r.at && same_bytes r.src r.at prev 0 n
  then begin
    r.at <- r.at + n;
    prev
  end
  else take r n

let string = { size = string_size; write = put_string; read = get_string }

let rest =
  {
    size = String.length;
    write = put_bytes;
    read = (fun r -> take r (r.lim - r.at));
  }

let literal s =
  {
    size = (fun () -> String.length s);
    write = (fun w () -> put_bytes w s);
    read =
      (fun r ->
        let at = r.at in
        if take r (String.length s) <> s then fail_at r at "bad magic");
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
        let bits = Bytes.get_int64_be r.src r.at in
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
        if not (ok x) then fail_at r at reason;
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

let[@inline] get_flag r =
  let at = r.at in
  match get_u8 r with
  | 0 -> false
  | 1 -> true
  | _ -> fail_at r at "bad option flag"

let option c =
  {
    size = (function None -> 1 | Some x -> 1 + c.size x);
    write =
      (fun w -> function
        | None -> put_u8 w 0
        | Some x ->
            put_u8 w 1;
            c.write w x);
    read = (fun r -> if get_flag r then Some (c.read r) else None);
  }

(* A count is checked against the bytes left before anything is sized
   by it: every element takes at least one byte. *)
let get_count r =
  let at = r.at in
  let n = get_varint r in
  if n > r.lim - r.at then fail_at r at "bad count";
  n

(* The element loops take the element codec as an argument, so a walk
   allocates no closure. *)
let rec list_size c acc = function
  | [] -> acc
  | x :: tl -> list_size c (acc + c.size x) tl

let rec list_write c w = function
  | [] -> ()
  | x :: tl ->
      c.write w x;
      list_write c w tl

let[@tail_mod_cons] rec list_read c r k =
  if k = 0 then []
  else
    let x = c.read r in
    x :: list_read c r (k - 1)

let list c =
  {
    size = (fun l -> list_size c (varint_size (List.length l)) l);
    write =
      (fun w l ->
        put_varint w (List.length l);
        list_write c w l);
    read = (fun r -> list_read c r (get_count r));
  }

let rec array_size c a i acc =
  if i = Array.length a then acc
  else array_size c a (i + 1) (acc + c.size (Array.unsafe_get a i))

let array c =
  {
    size = (fun a -> array_size c a 0 (varint_size (Array.length a)));
    write =
      (fun w a ->
        put_varint w (Array.length a);
        for i = 0 to Array.length a - 1 do
          c.write w (Array.unsafe_get a i)
        done);
    read =
      (fun r ->
        let n = get_count r in
        if n = 0 then [||]
        else begin
          let a = Array.make n (c.read r) in
          for i = 1 to n - 1 do
            Array.unsafe_set a i (c.read r)
          done;
          a
        end);
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
(* records                                                            *)
(* ------------------------------------------------------------------ *)

type ('r, 'a) field = { get : 'r -> 'a; codec : 'a t }

let field get codec = { get; codec }

let[@inline] fsize f x = f.codec.size (f.get x)
let[@inline] fwrite f w x = f.codec.write w (f.get x)

(* Each field is sized and written from its projection and read in
   order; the fields go to the constructor as arguments, so no tuple
   stands between the wire and the record. *)
let record2 a b mk =
  {
    size = (fun x -> fsize a x + fsize b x);
    write =
      (fun w x ->
        fwrite a w x;
        fwrite b w x);
    read =
      (fun r ->
        let va = a.codec.read r in
        mk va (b.codec.read r));
  }

let record4 a b c d mk =
  {
    size = (fun x -> fsize a x + fsize b x + fsize c x + fsize d x);
    write =
      (fun w x ->
        fwrite a w x;
        fwrite b w x;
        fwrite c w x;
        fwrite d w x);
    read =
      (fun r ->
        let va = a.codec.read r in
        let vb = b.codec.read r in
        let vc = c.codec.read r in
        mk va vb vc (d.codec.read r));
  }

let record7 a b c d e f g mk =
  {
    size =
      (fun x ->
        fsize a x + fsize b x + fsize c x + fsize d x + fsize e x + fsize f x
        + fsize g x);
    write =
      (fun w x ->
        fwrite a w x;
        fwrite b w x;
        fwrite c w x;
        fwrite d w x;
        fwrite e w x;
        fwrite f w x;
        fwrite g w x);
    read =
      (fun r ->
        let va = a.codec.read r in
        let vb = b.codec.read r in
        let vc = c.codec.read r in
        let vd = d.codec.read r in
        let ve = e.codec.read r in
        let vf = f.codec.read r in
        mk va vb vc vd ve vf (g.codec.read r));
  }

(* ------------------------------------------------------------------ *)
(* tagged unions                                                      *)
(* ------------------------------------------------------------------ *)

type ('a, 'b) case = {
  tag : int;
  body : 'b t;
  inj : 'b -> 'a;
  proj : 'a -> 'b;
}

type 'a any_case = Case : ('a, 'b) case -> 'a any_case [@@unboxed]

let case tag body inj proj =
  if tag < 0 || tag > 0xFF then invalid_arg "Codec.case: tag outside a byte";
  { tag; body; inj; proj }

let union what cases case_of =
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
        let (Case c) = case_of x in
        1 + c.body.size (c.proj x));
    write =
      (fun w x ->
        let (Case c) = case_of x in
        put_u8 w c.tag;
        c.body.write w (c.proj x));
    read =
      (fun r ->
        let at = r.at in
        let tag = get_u8 r in
        match Array.unsafe_get table tag with
        | Some (Case c) -> c.inj (c.body.read r)
        | None -> fail_at r at (Printf.sprintf "unknown %s %d" what tag));
  }

let expect what c =
  {
    size = (fun b -> 1 + c.body.size b);
    write =
      (fun w b ->
        put_u8 w c.tag;
        c.body.write w b);
    read =
      (fun r ->
        let at = r.at in
        if get_u8 r <> c.tag then fail_at r at ("expected " ^ what);
        c.body.read r);
  }

let result ok error =
  let ok = case 0 ok Result.ok (function Ok x -> x | Error _ -> assert false)
  and error =
    case 1 error Result.error (function Error e -> e | Ok _ -> assert false)
  in
  union "status" [ Case ok; Case error ] (function
    | Ok _ -> Case ok
    | Error _ -> Case error)

(* ------------------------------------------------------------------ *)
(* flags                                                              *)
(* ------------------------------------------------------------------ *)

let flags what ~bits =
  {
    size = (fun _ -> 1);
    write = put_u8;
    read =
      (fun r ->
        let at = r.at in
        let f = get_u8 r in
        if f lsr bits <> 0 then
          fail_at r at (Printf.sprintf "unknown %s %d" what f);
        r.flags <- f;
        f);
  }

let flag bit =
  {
    size = (fun _ -> 0);
    write = (fun _ _ -> ());
    read = (fun r -> r.flags land bit <> 0);
  }

let if_flag bit c =
  {
    size = (function None -> 0 | Some x -> c.size x);
    write = (fun w -> function None -> () | Some x -> c.write w x);
    read = (fun r -> if r.flags land bit <> 0 then Some (c.read r) else None);
  }

let nonempty bit c =
  {
    size = (function [] -> 0 | l -> c.size l);
    write = (fun w -> function [] -> () | l -> c.write w l);
    read = (fun r -> if r.flags land bit <> 0 then c.read r else []);
  }

(* ------------------------------------------------------------------ *)
(* sections                                                           *)
(* ------------------------------------------------------------------ *)

(* The payload is written in place after [width] reserved bytes, which
   then receive its big-endian length; reading narrows the bounds to the
   payload, which must be consumed exactly. *)
let length_prefixed ~width ~what c =
  let max_payload = (1 lsl (8 * width)) - 1 in
  let put_length buf at n =
    if width = 3 then begin
      Bytes.set_uint8 buf at (n lsr 16);
      Bytes.set_uint16_be buf (at + 1) (n land 0xFFFF)
    end
    else Bytes.set_int32_be buf at (Int32.of_int n)
  and get_length r =
    if width = 3 then
      (Bytes.get_uint8 r.src r.at lsl 16)
      lor Bytes.get_uint16_be r.src (r.at + 1)
    else Int32.to_int (Bytes.get_int32_be r.src r.at) land 0xFFFF_FFFF
  in
  {
    size = (fun x -> width + c.size x);
    write =
      (fun w x ->
        let start = w.pos in
        reserve w width;
        w.pos <- start + width;
        c.write w x;
        let n = w.pos - start - width in
        if n > max_payload then
          invalid_arg ("Codec." ^ what ^ ": payload too long");
        put_length w.buf start n);
    read =
      (fun r ->
        if r.lim - r.at < width then fail r "truncated section length";
        let n = get_length r in
        r.at <- r.at + width;
        if n > r.lim - r.at then fail r "truncated section";
        let outer = r.lim in
        r.lim <- r.at + n;
        let x = c.read r in
        if r.at <> r.lim then fail r "trailing section bytes";
        r.lim <- outer;
        x);
  }

let sized c = length_prefixed ~width:3 ~what:"sized" c
let framed c = length_prefixed ~width:4 ~what:"framed" c

(* ------------------------------------------------------------------ *)
(* counting                                                           *)
(* ------------------------------------------------------------------ *)

let counters = 2

(* Counter [i]'s values go to slot [2i], their bytes to slot [2i + 1];
   a run that asked for no counts has no slots, and pays one test. *)
let counted i c =
  if i < 0 || i >= counters then invalid_arg "Codec.counted: no such counter";
  let[@inline] bump counts start stop =
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

let to_string c x =
  let w = { buf = Bytes.create 256; pos = 0; wc = [||] } in
  c.write w x;
  Bytes.sub_string w.buf 0 w.pos

(* A writer kept by its owner keeps a buffer of this size, or of what
   its largest value needed, up to [max_kept]. *)
let initial_capacity = 4096
let max_kept = 64 * 1024

let writer () =
  {
    buf = Bytes.create initial_capacity;
    pos = 0;
    wc = Array.make (2 * counters) 0;
  }

let clear w =
  if Bytes.length w.buf > max_kept then w.buf <- Bytes.create initial_capacity;
  w.pos <- 0

let length w = w.pos
let buffer w = w.buf

let append w c x =
  Array.fill w.wc 0 (Array.length w.wc) 0;
  c.write w x

let counts w = w.wc

let decode c src off len rc =
  if off < 0 || len < 0 || off > Bytes.length src - len then
    invalid_arg "Codec.of_slice_counted: outside the buffer";
  let r = { src; base = off; at = off; lim = off + len; rc; flags = 0 } in
  let x = c.read r in
  if r.at <> r.lim then fail r "trailing bytes";
  x

(* The reader never writes to its input, so a string is read in place. *)
let of_string c s = decode c (Bytes.unsafe_of_string s) 0 (String.length s) [||]

let of_slice_counted c b off len =
  let counts = Array.make (2 * counters) 0 in
  let x = decode c b off len counts in
  (x, counts)

let of_string_opt c s =
  match of_string c s with x -> Some x | exception Decode_error _ -> None

(* ------------------------------------------------------------------ *)
(* element lists                                                      *)
(* ------------------------------------------------------------------ *)

let rec pairs_size acc = function
  | [] -> acc
  | (k, v) :: tl -> pairs_size (acc + string_size k + string_size v) tl

let rec put_pairs w = function
  | [] -> ()
  | (k, v) :: tl ->
      put_string w k;
      put_string w v;
      put_pairs w tl

(* A name equal to the one at the same position in the previous
   element's attributes is shared. *)
let[@tail_mod_cons] rec get_pairs r k prev =
  if k = 0 then []
  else
    let key =
      get_string_sharing r (match prev with (k, _) :: _ -> k | [] -> "")
    in
    let v = get_string r in
    (key, v) :: get_pairs r (k - 1) (match prev with _ :: tl -> tl | [] -> [])

let element_list ~id ~tag ~text ~attrs mk =
  let elem_size e =
    let a = attrs e in
    varint_size (id e)
    + string_size (tag e)
    + (match text e with None -> 1 | Some s -> 1 + string_size s)
    + pairs_size (varint_size (List.length a)) a
  in
  let rec size acc = function
    | [] -> acc
    | e :: tl -> size (acc + elem_size e) tl
  in
  let rec put w = function
    | [] -> ()
    | e :: tl ->
        put_varint w (id e);
        put_string w (tag e);
        (match text e with
        | None -> put_u8 w 0
        | Some s ->
            put_u8 w 1;
            put_string w s);
        let a = attrs e in
        put_varint w (List.length a);
        put_pairs w a;
        put w tl
  in
  let[@tail_mod_cons] rec get r k prev_tag prev_attrs =
    if k = 0 then []
    else
      let e_id = get_varint r in
      let e_tag = get_string_sharing r prev_tag in
      let e_text = if get_flag r then Some (get_string r) else None in
      let e_attrs = get_pairs r (get_count r) prev_attrs in
      mk e_id e_tag e_text e_attrs :: get r (k - 1) e_tag e_attrs
  in
  {
    size = (fun l -> size (varint_size (List.length l)) l);
    write =
      (fun w l ->
        put_varint w (List.length l);
        put w l);
    read = (fun r -> get r (get_count r) "" []);
  }

(* ------------------------------------------------------------------ *)
(* formulas and vectors                                               *)
(* ------------------------------------------------------------------ *)

(* A tag byte per node: 0 true, 1 false, 2 not, 3 and, 4 or (a varint
   count, then the children), 5-7 the variables Qual, Sel_ctx and
   Qual_at (two varints each).  Decoding rebuilds through the smart
   constructors, so a decoded formula is also in simplified form;
   encoders only ever see simplified formulas, making the round trip
   exact.  The three walks are written out: a formula is the element of
   every vector section. *)
let rec formula_size : Formula.t -> int = function
  | True | False -> 1
  | Not g -> 1 + formula_size g
  | And gs | Or gs -> 1 + children_size (varint_size (List.length gs)) gs
  | Var (Qual (a, b) | Sel_ctx (a, b) | Qual_at (a, b)) ->
      1 + varint_size a + varint_size b

and children_size acc = function
  | [] -> acc
  | g :: gs -> children_size (acc + formula_size g) gs

let put_var w tag a b =
  put_u8 w tag;
  put_varint w a;
  put_varint w b

let rec put_formula w : Formula.t -> unit = function
  | True -> put_u8 w 0
  | False -> put_u8 w 1
  | Not g ->
      put_u8 w 2;
      put_formula w g
  | And gs -> put_children w 3 gs
  | Or gs -> put_children w 4 gs
  | Var (Qual (a, b)) -> put_var w 5 a b
  | Var (Sel_ctx (a, b)) -> put_var w 6 a b
  | Var (Qual_at (a, b)) -> put_var w 7 a b

and put_children w tag gs =
  put_u8 w tag;
  put_varint w (List.length gs);
  put_list w gs

and put_list w = function
  | [] -> ()
  | g :: gs ->
      put_formula w g;
      put_list w gs

let rec get_formula r =
  let at = r.at in
  match get_u8 r with
  | 0 -> Formula.true_
  | 1 -> Formula.false_
  | 2 -> Formula.not_ (get_formula r)
  | 3 -> Formula.and_ (get_children r (get_count r))
  | 4 -> Formula.or_ (get_children r (get_count r))
  | (5 | 6 | 7) as tag ->
      let a = get_varint r in
      let b = get_varint r in
      Formula.var
        (if tag = 5 then Var.Qual (a, b)
         else if tag = 6 then Var.Sel_ctx (a, b)
         else Var.Qual_at (a, b))
  | tag -> fail_at r at (Printf.sprintf "unknown formula tag %d" tag)

and[@tail_mod_cons] get_children r k =
  if k = 0 then []
  else
    let g = get_formula r in
    g :: get_children r (k - 1)

let formula = { size = formula_size; write = put_formula; read = get_formula }

(* [array formula], with the element loops written out. *)
let formulas =
  {
    size =
      (fun a ->
        let n = ref (varint_size (Array.length a)) in
        for i = 0 to Array.length a - 1 do
          n := !n + formula_size (Array.unsafe_get a i)
        done;
        !n);
    write =
      (fun w a ->
        put_varint w (Array.length a);
        for i = 0 to Array.length a - 1 do
          put_formula w (Array.unsafe_get a i)
        done);
    read =
      (fun r ->
        let n = get_count r in
        if n = 0 then [||]
        else begin
          let a = Array.make n Formula.true_ in
          for i = 0 to n - 1 do
            Array.unsafe_set a i (get_formula r)
          done;
          a
        end);
  }

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
        put_varint w (Bits.length bs);
        put_bytes w (Bits.bytes bs));
    read =
      (fun r ->
        let n = get_varint r in
        if bytes n > r.lim - r.at then fail r "truncated bools";
        Bits.of_bytes n (take r (bytes n)));
  }
