module Codec = Pax_bool.Codec
module Formula = Pax_bool.Formula
module Tree = Pax_xml.Tree

let version = 2
let max_section = 0xFFFFFF

type answer = {
  a_id : int;
  a_tag : string;
  a_text : string option;
  a_attrs : (string * string) list;
}

let answer_of_node (n : Tree.node) =
  { a_id = n.Tree.id; a_tag = n.Tree.tag; a_text = n.Tree.text; a_attrs = n.Tree.attrs }

let answer_of_slot fl i =
  {
    a_id = Pax_xml.Flat.node_id fl i;
    a_tag = Pax_xml.Flat.tag_name fl i;
    a_text = Pax_xml.Flat.text fl i;
    a_attrs = Pax_xml.Flat.attrs fl i;
  }

(* Slot -1 is an absolute query's #document wrapper: never an answer. *)
let answers_of_slots fl slots =
  List.filter_map
    (fun i -> if i < 0 then None else Some (answer_of_slot fl i))
    slots

let node_of_answer a : Tree.node =
  {
    Tree.id = a.a_id;
    tag = a.a_tag;
    text = a.a_text;
    attrs = a.a_attrs;
    children = [];
    kind = Tree.Element;
  }

type section =
  | Query of string
  | Vectors of Formula.t array
  | Resolution of bool array
  | Answers of answer list
  | Tree_data of string
  | Frag_flat of Pax_xml.Flat.t

type frag_eval = {
  fe_fid : int;
  fe_is_root : bool;
  fe_init : Formula.t array option;
}

type sub_resolution = (int * bool array) list

type call =
  | Pax2_stage1 of { query : string; frags : frag_eval list }
  | Pax2_stage2 of { frags : (int * bool array * sub_resolution) list }
  | Pax3_stage1 of { query : string; fids : int list }
  | Pax3_stage2 of { query : string; frags : (frag_eval * sub_resolution) list }
  | Pax3_stage3 of { frags : (int * bool array) list }
  | Reach_stage1 of { query : string; fids : int list }
  | Calls of call list
  | Count of call
  | Ship of { fids : int list }

type frag_result = {
  fr_fid : int;
  fr_vec : Formula.t array option;
  fr_ctxs : (int * Formula.t array) list;
  fr_answers : answer list;
  fr_cands : int;
  fr_ops : int;
}

type reply =
  | Frag_results of frag_result list
  | Final_answers of { answers : answer list; ops : int }
  | Replies of reply list
  | Counted of { reply : reply; counts : int list }
  | Images of (int * Pax_xml.Flat.t) list

type frag_kind = Tree_frag | Graph_frag

type frag_image = { fi_kind : frag_kind; fi_bytes : string }

(* The stale-epoch rejection is a *typed* error carried in the reply's
   error string: both ends recognize it by this prefix, so the client
   can route it through the retry budget instead of treating it as a
   permanent remote failure. *)
let stale_epoch_prefix = "stale-epoch:"

let stale_epoch_error ~fid ~retired ~epoch =
  Printf.sprintf "%s fragment %d retired at epoch %d (request epoch %d)"
    stale_epoch_prefix fid retired epoch

let is_stale_epoch m =
  String.length m >= String.length stale_epoch_prefix
  && String.sub m 0 (String.length stale_epoch_prefix) = stale_epoch_prefix

type msg =
  | Visit_request of {
      run : int;
      round : int;
      site : int;
      epoch : int;
      label : string;
      call : call;
      parent : int option;
    }
  | Visit_reply of { run : int; round : int; reply : (reply, string) result }
  | Ping
  | Pong
  | Shutdown
  | Stats_request
  | Stats_reply of (string * float) list
  | Run_done of { run : int }
  | Frag_fetch of { fid : int; kind : frag_kind; parent : int option }
  | Frag_image of { fid : int; image : (frag_image, string) result }
  | Frag_install of { fid : int; epoch : int; image : frag_image; parent : int option }
  | Frag_retire of { fid : int; epoch : int; kind : frag_kind; parent : int option }
  | Admin_reply of { reply : (string, string) result }
  | Spans_fetch
  | Spans_reply of { server_now : float; spans : Pax_obs.Span.span list }
  | Gen_publish of {
      kind : frag_kind;
      gens : (int * int) list;
      parent : int option;
    }
  | Gen_event of { kind : frag_kind; gens : (int * int) list }
  | Gen_fetch of { kind : frag_kind; parent : int option }
  | Gen_reply of { kind : frag_kind; gens : (int * int) list }

type error = Truncated | Bad_version of int | Corrupt of string

let pp_error ppf = function
  | Truncated -> Format.fprintf ppf "truncated frame"
  | Bad_version v -> Format.fprintf ppf "unsupported protocol version %d" v
  | Corrupt msg -> Format.fprintf ppf "corrupt frame: %s" msg

(* ------------------------------------------------------------------ *)
(* primitives                                                         *)
(* ------------------------------------------------------------------ *)

exception Bad of string

let fail msg = raise (Bad msg)
let add_u8 buf n = Buffer.add_char buf (Char.chr (n land 0xFF))
let add_varint = Codec.encode_varint

let add_str buf s =
  add_varint buf (String.length s);
  Buffer.add_string buf s

let get_u8 s ~pos =
  if pos >= String.length s then fail "truncated byte";
  (Char.code s.[pos], pos + 1)

let get_varint s ~pos =
  match Codec.decode_varint s ~pos with
  | v -> v
  | exception Codec.Decode_error m -> fail m

let get_str s ~pos =
  let n, pos = get_varint s ~pos in
  if n < 0 || n > String.length s - pos then fail "truncated string";
  (String.sub s pos n, pos + n)

(* ------------------------------------------------------------------ *)
(* sections                                                           *)
(* ------------------------------------------------------------------ *)

let k_query = 1
let k_vectors = 2
let k_resolution = 3
let k_answers = 4
let k_tree = 5
let k_flat = 6

let answer_payload_bytes a =
  Codec.varint_bytes a.a_id
  + Codec.varint_bytes (String.length a.a_tag)
  + String.length a.a_tag + 1
  + (match a.a_text with
    | None -> 0
    | Some t -> Codec.varint_bytes (String.length t) + String.length t)
  + Codec.varint_bytes (List.length a.a_attrs)
  + List.fold_left
      (fun acc (k, v) ->
        acc
        + Codec.varint_bytes (String.length k)
        + String.length k
        + Codec.varint_bytes (String.length v)
        + String.length v)
      0 a.a_attrs

let answers_payload_bytes answers =
  List.fold_left
    (fun acc a -> acc + answer_payload_bytes a)
    (Codec.varint_bytes (List.length answers))
    answers

let add_answer buf a =
  add_varint buf a.a_id;
  add_str buf a.a_tag;
  (match a.a_text with
  | None -> add_u8 buf 0
  | Some t ->
      add_u8 buf 1;
      add_str buf t);
  add_varint buf (List.length a.a_attrs);
  List.iter
    (fun (k, v) ->
      add_str buf k;
      add_str buf v)
    a.a_attrs

let get_answer s ~pos =
  let a_id, pos = get_varint s ~pos in
  let a_tag, pos = get_str s ~pos in
  let flag, pos = get_u8 s ~pos in
  let a_text, pos =
    if flag = 0 then (None, pos)
    else
      let t, pos = get_str s ~pos in
      (Some t, pos)
  in
  let n, pos = get_varint s ~pos in
  if n > String.length s - pos then fail "bad attr count";
  let rec attrs k pos acc =
    if k = 0 then (List.rev acc, pos)
    else
      let key, pos = get_str s ~pos in
      let v, pos = get_str s ~pos in
      attrs (k - 1) pos ((key, v) :: acc)
  in
  let a_attrs, pos = attrs n pos [] in
  ({ a_id; a_tag; a_text; a_attrs }, pos)

let section_payload = function
  | Query q -> q
  | Vectors fs -> Codec.formula_array_to_string fs
  | Resolution bs -> Codec.bool_array_to_string bs
  | Answers answers ->
      let buf = Buffer.create 128 in
      add_varint buf (List.length answers);
      List.iter (add_answer buf) answers;
      Buffer.contents buf
  | Tree_data xml -> xml
  | Frag_flat fl -> Pax_xml.Flat.encode fl

let section_kind = function
  | Query _ -> k_query
  | Vectors _ -> k_vectors
  | Resolution _ -> k_resolution
  | Answers _ -> k_answers
  | Tree_data _ -> k_tree
  | Frag_flat _ -> k_flat

(* A section costs exactly 4 + payload bytes: kind byte + u24 length. *)
let add_section buf sec =
  let payload = section_payload sec in
  let n = String.length payload in
  if n > max_section then invalid_arg "Wire: section exceeds 16 MiB";
  add_u8 buf (section_kind sec);
  add_u8 buf (n lsr 16);
  add_u8 buf (n lsr 8);
  add_u8 buf n;
  Buffer.add_string buf payload

let get_section s ~pos =
  let kind, pos = get_u8 s ~pos in
  let b2, pos = get_u8 s ~pos in
  let b1, pos = get_u8 s ~pos in
  let b0, pos = get_u8 s ~pos in
  let n = (b2 lsl 16) lor (b1 lsl 8) lor b0 in
  if n > String.length s - pos then fail "truncated section";
  let payload = String.sub s pos n in
  let pos = pos + n in
  let sec =
    if kind = k_query then Query payload
    else if kind = k_vectors then
      match Codec.formula_array_of_string_opt payload with
      | Some fs -> Vectors fs
      | None -> fail "bad vectors payload"
    else if kind = k_resolution then
      match Codec.bool_array_of_string_opt payload with
      | Some bs -> Resolution bs
      | None -> fail "bad resolution payload"
    else if kind = k_answers then begin
      let n, p = get_varint payload ~pos:0 in
      if n > String.length payload - p then fail "bad answer count";
      let rec go k p acc =
        if k = 0 then
          if p = String.length payload then List.rev acc
          else fail "trailing answer bytes"
        else
          let a, p = get_answer payload ~pos:p in
          go (k - 1) p (a :: acc)
      in
      Answers (go n p [])
    end
    else if kind = k_tree then Tree_data payload
    else if kind = k_flat then
      match Pax_xml.Flat.decode payload with
      | Some fl -> Frag_flat fl
      | None -> fail "bad flat-fragment payload"
    else fail "unknown section kind"
  in
  (sec, pos)

let expect_vectors s ~pos =
  match get_section s ~pos with
  | Vectors fs, pos -> (fs, pos)
  | _ -> fail "expected a vectors section"

let expect_resolution s ~pos =
  match get_section s ~pos with
  | Resolution bs, pos -> (bs, pos)
  | _ -> fail "expected a resolution section"

let expect_query s ~pos =
  match get_section s ~pos with
  | Query q, pos -> (q, pos)
  | _ -> fail "expected a query section"

let expect_answers s ~pos =
  match get_section s ~pos with
  | Answers a, pos -> (a, pos)
  | _ -> fail "expected an answers section"

(* Sized from the payload's own size function, never by encoding it. *)
let section_bytes sec =
  4
  +
  match sec with
  | Query s | Tree_data s -> String.length s
  | Vectors fs -> Codec.formula_array_bytes fs
  | Resolution bs -> Codec.bool_array_bytes bs
  | Answers answers -> answers_payload_bytes answers
  | Frag_flat fl -> Pax_xml.Flat.encoded_bytes fl

let tree_to_section n = Tree_data (Pax_xml.Printer.to_string n)

let tree_of_section = function
  | Tree_data xml -> (
      match Pax_xml.Parser.parse_string xml with
      | doc -> Some doc.Tree.root
      | exception Pax_xml.Parser.Parse_error _ -> None)
  | _ -> None

let section_to_string sec =
  let buf = Buffer.create 128 in
  add_section buf sec;
  Buffer.contents buf

let section_of_string s =
  match get_section s ~pos:0 with
  | sec, pos -> if pos = String.length s then Some sec else None
  | exception Bad _ -> None
  | exception Codec.Decode_error _ -> None

(* ------------------------------------------------------------------ *)
(* calls                                                              *)
(* ------------------------------------------------------------------ *)

let c_pax2_stage1 = 1
let c_pax2_stage2 = 2
let c_pax3_stage1 = 3
let c_pax3_stage2 = 4
let c_pax3_stage3 = 5
let c_reach_stage1 = 6
let c_calls = 7
let c_ship = 8
let c_count = 9

let add_counted buf xs add =
  add_varint buf (List.length xs);
  List.iter (add buf) xs

let get_counted s ~pos get =
  let n, pos = get_varint s ~pos in
  if n > String.length s - pos then fail "bad list count";
  let rec go k pos acc =
    if k = 0 then (List.rev acc, pos)
    else
      let x, pos = get s ~pos in
      go (k - 1) pos (x :: acc)
  in
  go n pos []

let add_frag_eval buf fe =
  add_varint buf fe.fe_fid;
  add_u8 buf
    ((if fe.fe_is_root then 1 else 0)
    lor match fe.fe_init with Some _ -> 2 | None -> 0);
  match fe.fe_init with Some init -> add_section buf (Vectors init) | None -> ()

let get_frag_eval s ~pos =
  let fe_fid, pos = get_varint s ~pos in
  let flags, pos = get_u8 s ~pos in
  let fe_init, pos =
    if flags land 2 <> 0 then
      let fs, pos = expect_vectors s ~pos in
      (Some fs, pos)
    else (None, pos)
  in
  ({ fe_fid; fe_is_root = flags land 1 <> 0; fe_init }, pos)

let add_subs buf (subs : sub_resolution) =
  add_counted buf subs (fun buf (sub, bs) ->
      add_varint buf sub;
      add_section buf (Resolution bs))

let get_subs s ~pos : sub_resolution * int =
  get_counted s ~pos (fun s ~pos ->
      let sub, pos = get_varint s ~pos in
      let bs, pos = expect_resolution s ~pos in
      ((sub, bs), pos))

let rec add_call buf = function
  | Pax2_stage1 { query; frags } ->
      add_u8 buf c_pax2_stage1;
      add_section buf (Query query);
      add_counted buf frags add_frag_eval
  | Pax2_stage2 { frags } ->
      add_u8 buf c_pax2_stage2;
      add_counted buf frags (fun buf (fid, ctx, subs) ->
          add_varint buf fid;
          add_section buf (Resolution ctx);
          add_subs buf subs)
  | Pax3_stage1 { query; fids } ->
      add_u8 buf c_pax3_stage1;
      add_section buf (Query query);
      add_counted buf fids (fun buf fid -> add_varint buf fid)
  | Pax3_stage2 { query; frags } ->
      add_u8 buf c_pax3_stage2;
      add_section buf (Query query);
      add_counted buf frags (fun buf (fe, subs) ->
          add_frag_eval buf fe;
          add_subs buf subs)
  | Pax3_stage3 { frags } ->
      add_u8 buf c_pax3_stage3;
      add_counted buf frags (fun buf (fid, ctx) ->
          add_varint buf fid;
          add_section buf (Resolution ctx))
  | Reach_stage1 { query; fids } ->
      add_u8 buf c_reach_stage1;
      add_section buf (Query query);
      add_counted buf fids (fun buf fid -> add_varint buf fid)
  | Calls calls ->
      add_u8 buf c_calls;
      add_counted buf calls add_call
  | Count call ->
      add_u8 buf c_count;
      add_call buf call
  | Ship { fids } ->
      add_u8 buf c_ship;
      add_counted buf fids (fun buf fid -> add_varint buf fid)

(* [Calls] and [Count] wrap plain calls only: a frame cannot nest
   wrappers, so a hostile one cannot make the decoder recurse. *)
let rec get_call ?(nested = false) s ~pos =
  let tag, pos = get_u8 s ~pos in
  if tag = c_pax2_stage1 then
    let query, pos = expect_query s ~pos in
    let frags, pos = get_counted s ~pos get_frag_eval in
    (Pax2_stage1 { query; frags }, pos)
  else if tag = c_pax2_stage2 then
    let frags, pos =
      get_counted s ~pos (fun s ~pos ->
          let fid, pos = get_varint s ~pos in
          let ctx, pos = expect_resolution s ~pos in
          let subs, pos = get_subs s ~pos in
          ((fid, ctx, subs), pos))
    in
    (Pax2_stage2 { frags }, pos)
  else if tag = c_pax3_stage1 then
    let query, pos = expect_query s ~pos in
    let fids, pos = get_counted s ~pos (fun s ~pos -> get_varint s ~pos) in
    (Pax3_stage1 { query; fids }, pos)
  else if tag = c_pax3_stage2 then
    let query, pos = expect_query s ~pos in
    let frags, pos =
      get_counted s ~pos (fun s ~pos ->
          let fe, pos = get_frag_eval s ~pos in
          let subs, pos = get_subs s ~pos in
          ((fe, subs), pos))
    in
    (Pax3_stage2 { query; frags }, pos)
  else if tag = c_pax3_stage3 then
    let frags, pos =
      get_counted s ~pos (fun s ~pos ->
          let fid, pos = get_varint s ~pos in
          let ctx, pos = expect_resolution s ~pos in
          ((fid, ctx), pos))
    in
    (Pax3_stage3 { frags }, pos)
  else if tag = c_reach_stage1 then
    let query, pos = expect_query s ~pos in
    let fids, pos = get_counted s ~pos (fun s ~pos -> get_varint s ~pos) in
    (Reach_stage1 { query; fids }, pos)
  else if tag = c_calls then
    if nested then fail "nested call list"
    else
      let calls, pos = get_counted s ~pos (get_call ~nested:true) in
      (Calls calls, pos)
  else if tag = c_count then
    if nested then fail "nested count call"
    else
      let call, pos = get_call ~nested:true s ~pos in
      (Count call, pos)
  else if tag = c_ship then
    let fids, pos = get_counted s ~pos (fun s ~pos -> get_varint s ~pos) in
    (Ship { fids }, pos)
  else fail "unknown call tag"

(* ------------------------------------------------------------------ *)
(* replies                                                            *)
(* ------------------------------------------------------------------ *)

let r_frag_results = 1
let r_final = 2
let r_replies = 3
let r_images = 4
let r_counted = 5

let add_frag_result buf fr =
  add_varint buf fr.fr_fid;
  add_u8 buf
    ((match fr.fr_vec with Some _ -> 1 | None -> 0)
    lor if fr.fr_answers <> [] then 2 else 0);
  (match fr.fr_vec with Some vec -> add_section buf (Vectors vec) | None -> ());
  add_counted buf fr.fr_ctxs (fun buf (sub, vec) ->
      add_varint buf sub;
      add_section buf (Vectors vec));
  if fr.fr_answers <> [] then add_section buf (Answers fr.fr_answers);
  add_varint buf fr.fr_cands;
  add_varint buf fr.fr_ops

let get_frag_result s ~pos =
  let fr_fid, pos = get_varint s ~pos in
  let flags, pos = get_u8 s ~pos in
  let fr_vec, pos =
    if flags land 1 <> 0 then
      let fs, pos = expect_vectors s ~pos in
      (Some fs, pos)
    else (None, pos)
  in
  let fr_ctxs, pos =
    get_counted s ~pos (fun s ~pos ->
        let sub, pos = get_varint s ~pos in
        let vec, pos = expect_vectors s ~pos in
        ((sub, vec), pos))
  in
  let fr_answers, pos =
    if flags land 2 <> 0 then expect_answers s ~pos else ([], pos)
  in
  let fr_cands, pos = get_varint s ~pos in
  let fr_ops, pos = get_varint s ~pos in
  ({ fr_fid; fr_vec; fr_ctxs; fr_answers; fr_cands; fr_ops }, pos)

let rec add_reply buf = function
  | Frag_results frs ->
      add_u8 buf r_frag_results;
      add_counted buf frs add_frag_result
  | Final_answers { answers; ops } ->
      add_u8 buf r_final;
      if answers <> [] then begin
        add_u8 buf 1;
        add_section buf (Answers answers)
      end
      else add_u8 buf 0;
      add_varint buf ops
  | Replies replies ->
      add_u8 buf r_replies;
      add_counted buf replies add_reply
  | Counted { reply; counts } ->
      add_u8 buf r_counted;
      add_reply buf reply;
      add_counted buf counts add_varint
  | Images images ->
      add_u8 buf r_images;
      add_counted buf images (fun buf (fid, fl) ->
          add_varint buf fid;
          add_section buf (Frag_flat fl))

let rec get_reply ?(nested = false) s ~pos =
  let tag, pos = get_u8 s ~pos in
  if tag = r_frag_results then
    let frs, pos = get_counted s ~pos get_frag_result in
    (Frag_results frs, pos)
  else if tag = r_final then begin
    let flag, pos = get_u8 s ~pos in
    let answers, pos = if flag = 1 then expect_answers s ~pos else ([], pos) in
    let ops, pos = get_varint s ~pos in
    (Final_answers { answers; ops }, pos)
  end
  else if tag = r_replies then
    if nested then fail "nested reply list"
    else
      let replies, pos = get_counted s ~pos (get_reply ~nested:true) in
      (Replies replies, pos)
  else if tag = r_counted then
    if nested then fail "nested counted reply"
    else
      let reply, pos = get_reply ~nested:true s ~pos in
      let counts, pos = get_counted s ~pos (fun s ~pos -> get_varint s ~pos) in
      (Counted { reply; counts }, pos)
  else if tag = r_images then
    let images, pos =
      get_counted s ~pos (fun s ~pos ->
          let fid, pos = get_varint s ~pos in
          match get_section s ~pos with
          | Frag_flat fl, pos -> ((fid, fl), pos)
          | _ -> fail "expected a flat-fragment section")
    in
    (Images images, pos)
  else fail "unknown reply tag"

(* ------------------------------------------------------------------ *)
(* messages                                                           *)
(* ------------------------------------------------------------------ *)

let m_request = 1
let m_reply = 2
let m_ping = 3
let m_pong = 4
let m_shutdown = 5
let m_stats_request = 6
let m_stats_reply = 7
let m_run_done = 8
let m_frag_fetch = 9
let m_frag_image = 10
let m_frag_install = 11
let m_frag_retire = 12
let m_admin_reply = 13
let m_spans_request = 14
let m_spans_reply = 15
let m_gen_publish = 16
let m_gen_event = 17
let m_gen_fetch = 18
let m_gen_reply = 19

(* Fragment images are opaque byte strings at this layer: tree images
   are {!Pax_xml.Flat.encode} output (total-decoding, intern-remapping
   at the receiver), graph images are [Gfrag.encode] output.  pax_wire
   cannot depend on pax_graph, so validation happens at install time,
   not decode time. *)
let kind_code = function Tree_frag -> 1 | Graph_frag -> 2

let get_kind s ~pos =
  let k, pos = get_u8 s ~pos in
  match k with
  | 1 -> (Tree_frag, pos)
  | 2 -> (Graph_frag, pos)
  | _ -> fail "unknown fragment kind"

let add_image buf { fi_kind; fi_bytes } =
  add_u8 buf (kind_code fi_kind);
  add_str buf fi_bytes

let get_image s ~pos =
  let fi_kind, pos = get_kind s ~pos in
  let fi_bytes, pos = get_str s ~pos in
  ({ fi_kind; fi_bytes }, pos)

(* Metric values travel as IEEE-754 bits, big-endian, so the reply is
   byte-exact (counters compare with [=] across the wire). *)
let add_f64 buf f =
  let bits = Int64.bits_of_float f in
  for i = 7 downto 0 do
    add_u8 buf (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xFF)
  done

let get_f64 s ~pos =
  if pos + 8 > String.length s then fail "truncated f64";
  let bits = ref 0L in
  for i = 0 to 7 do
    bits :=
      Int64.logor (Int64.shift_left !bits 8)
        (Int64.of_int (Char.code s.[pos + i]))
  done;
  (Int64.float_of_bits !bits, pos + 8)

(* Harvested spans (Spans_reply).  Pure telemetry like stats traffic —
   no sections, excluded from accounted traffic — but the clock
   readings must survive byte-exactly for offset alignment, hence
   IEEE-754 bits like metric values. *)
let add_span buf (sp : Pax_obs.Span.span) =
  add_str buf sp.Pax_obs.Span.sp_name;
  add_str buf sp.Pax_obs.Span.sp_cat;
  add_str buf sp.Pax_obs.Span.sp_track;
  add_f64 buf sp.Pax_obs.Span.sp_begin;
  add_f64 buf sp.Pax_obs.Span.sp_dur;
  add_varint buf sp.Pax_obs.Span.sp_seq;
  add_varint buf sp.Pax_obs.Span.sp_id;
  (match sp.Pax_obs.Span.sp_parent with
  | None -> add_u8 buf 0
  | Some p ->
      add_u8 buf 1;
      add_varint buf p);
  add_varint buf (List.length sp.Pax_obs.Span.sp_args);
  List.iter
    (fun (k, v) ->
      add_str buf k;
      add_str buf v)
    sp.Pax_obs.Span.sp_args

let get_span s ~pos =
  let sp_name, pos = get_str s ~pos in
  let sp_cat, pos = get_str s ~pos in
  let sp_track, pos = get_str s ~pos in
  let sp_begin, pos = get_f64 s ~pos in
  let sp_dur, pos = get_f64 s ~pos in
  if Float.is_nan sp_begin then fail "bad span begin";
  if not (sp_dur >= 0.) then fail "bad span duration";
  let sp_seq, pos = get_varint s ~pos in
  let sp_id, pos = get_varint s ~pos in
  let flag, pos = get_u8 s ~pos in
  let sp_parent, pos =
    if flag = 0 then (None, pos)
    else if flag = 1 then
      let p, pos = get_varint s ~pos in
      (Some p, pos)
    else fail "bad span parent flag"
  in
  let n, pos = get_varint s ~pos in
  if n > String.length s - pos then fail "bad span arg count";
  let rec args k pos acc =
    if k = 0 then (List.rev acc, pos)
    else
      let key, pos = get_str s ~pos in
      let v, pos = get_str s ~pos in
      args (k - 1) pos ((key, v) :: acc)
  in
  let sp_args, pos = args n pos [] in
  ( {
      Pax_obs.Span.sp_name;
      sp_cat;
      sp_track;
      sp_begin;
      sp_dur;
      sp_args;
      sp_seq;
      sp_id;
      sp_parent;
    },
    pos )

(* The optional trace-context extension: a single trailing varint
   (the coordinator-side parent span id) appended to the body of visit
   and migration requests when the sender is tracing.  Absent when
   tracing is off — those frames are byte-identical to pre-extension
   builds — and decoders accept both forms, so the extension is a
   pure control-plane add-on: it never enters [tally], only the
   per-frame overhead allowance. *)
let add_parent buf = function None -> () | Some p -> add_varint buf p

let get_parent s ~pos =
  if pos < String.length s then
    let p, pos = get_varint s ~pos in
    (Some p, pos)
  else (None, pos)

(* The v2 envelope carries a correlation id right after the version
   byte, on every message: the coordinator stamps each request with a
   fresh id and the server echoes it back, so many in-flight runs can
   share one socket and the client can demultiplex replies without
   inspecting bodies.  [corr] is envelope, not a section: it never
   enters [tally], only the per-frame framing-overhead allowance
   ({!frame_overhead}).  0 means "uncorrelated" (pings, shutdowns,
   unsolicited frames). *)
let encode_payload ?(corr = 0) msg =
  let buf = Buffer.create 256 in
  add_u8 buf version;
  add_varint buf corr;
  (match msg with
  | Visit_request { run; round; site; epoch; label; call; parent } ->
      add_u8 buf m_request;
      add_varint buf run;
      add_varint buf round;
      add_varint buf site;
      add_varint buf epoch;
      add_str buf label;
      add_call buf call;
      add_parent buf parent
  | Visit_reply { run; round; reply } ->
      add_u8 buf m_reply;
      add_varint buf run;
      add_varint buf round;
      (match reply with
      | Ok r ->
          add_u8 buf 0;
          add_reply buf r
      | Error e ->
          add_u8 buf 1;
          Buffer.add_string buf e)
  | Ping -> add_u8 buf m_ping
  | Pong -> add_u8 buf m_pong
  | Shutdown -> add_u8 buf m_shutdown
  | Stats_request -> add_u8 buf m_stats_request
  | Stats_reply pairs ->
      add_u8 buf m_stats_reply;
      add_varint buf (List.length pairs);
      List.iter
        (fun (name, v) ->
          add_str buf name;
          add_f64 buf v)
        pairs
  | Run_done { run } ->
      add_u8 buf m_run_done;
      add_varint buf run
  | Frag_fetch { fid; kind; parent } ->
      add_u8 buf m_frag_fetch;
      add_varint buf fid;
      add_u8 buf (kind_code kind);
      add_parent buf parent
  | Frag_image { fid; image } ->
      add_u8 buf m_frag_image;
      add_varint buf fid;
      (match image with
      | Ok img ->
          add_u8 buf 0;
          add_image buf img
      | Error e ->
          add_u8 buf 1;
          Buffer.add_string buf e)
  | Frag_install { fid; epoch; image; parent } ->
      add_u8 buf m_frag_install;
      add_varint buf fid;
      add_varint buf epoch;
      add_image buf image;
      add_parent buf parent
  | Frag_retire { fid; epoch; kind; parent } ->
      add_u8 buf m_frag_retire;
      add_varint buf fid;
      add_varint buf epoch;
      add_u8 buf (kind_code kind);
      add_parent buf parent
  | Admin_reply { reply } ->
      (add_u8 buf m_admin_reply;
       match reply with
       | Ok detail ->
           add_u8 buf 0;
           Buffer.add_string buf detail
       | Error e ->
           add_u8 buf 1;
           Buffer.add_string buf e)
  | Spans_fetch -> add_u8 buf m_spans_request
  | Spans_reply { server_now; spans } ->
      add_u8 buf m_spans_reply;
      add_f64 buf server_now;
      add_varint buf (List.length spans);
      List.iter (add_span buf) spans
  (* Generation-vector coherence frames (docs/SERVING.md): each entry
     is a (fid, generation) pair; receivers max-merge, so replay and
     reordering are harmless. *)
  | Gen_publish { kind; gens; parent } ->
      add_u8 buf m_gen_publish;
      add_u8 buf (kind_code kind);
      add_counted buf gens (fun buf (fid, gen) ->
          add_varint buf fid;
          add_varint buf gen);
      add_parent buf parent
  | Gen_event { kind; gens } ->
      add_u8 buf m_gen_event;
      add_u8 buf (kind_code kind);
      add_counted buf gens (fun buf (fid, gen) ->
          add_varint buf fid;
          add_varint buf gen)
  | Gen_fetch { kind; parent } ->
      add_u8 buf m_gen_fetch;
      add_u8 buf (kind_code kind);
      add_parent buf parent
  | Gen_reply { kind; gens } ->
      add_u8 buf m_gen_reply;
      add_u8 buf (kind_code kind);
      add_counted buf gens (fun buf (fid, gen) ->
          add_varint buf fid;
          add_varint buf gen));
  Buffer.contents buf

let encode ?corr msg =
  let payload = encode_payload ?corr msg in
  let n = String.length payload in
  let buf = Buffer.create (n + 4) in
  add_u8 buf (n lsr 24);
  add_u8 buf (n lsr 16);
  add_u8 buf (n lsr 8);
  add_u8 buf n;
  Buffer.add_string buf payload;
  Buffer.contents buf

let decode_payload_corr s =
  match
    let ver, pos = get_u8 s ~pos:0 in
    if ver <> version then Error (Bad_version ver)
    else
      let corr, pos = get_varint s ~pos in
      if corr < 0 then Error (Corrupt "negative correlation id")
      else
        let tag, pos = get_u8 s ~pos in
        let finish msg pos =
          if pos = String.length s then Ok (corr, msg)
          else Error (Corrupt "trailing bytes")
        in
        if tag = m_ping then finish Ping pos
        else if tag = m_pong then finish Pong pos
        else if tag = m_shutdown then finish Shutdown pos
        else if tag = m_stats_request then finish Stats_request pos
        else if tag = m_stats_reply then begin
          let pairs, pos =
            get_counted s ~pos (fun s ~pos ->
                let name, pos = get_str s ~pos in
                let v, pos = get_f64 s ~pos in
                ((name, v), pos))
          in
          finish (Stats_reply pairs) pos
        end
        else if tag = m_run_done then begin
          let run, pos = get_varint s ~pos in
          finish (Run_done { run }) pos
        end
        else if tag = m_request then begin
          let run, pos = get_varint s ~pos in
          let round, pos = get_varint s ~pos in
          let site, pos = get_varint s ~pos in
          let epoch, pos = get_varint s ~pos in
          let label, pos = get_str s ~pos in
          let call, pos = get_call s ~pos in
          let parent, pos = get_parent s ~pos in
          finish
            (Visit_request { run; round; site; epoch; label; call; parent })
            pos
        end
        else if tag = m_frag_fetch then begin
          let fid, pos = get_varint s ~pos in
          let kind, pos = get_kind s ~pos in
          let parent, pos = get_parent s ~pos in
          finish (Frag_fetch { fid; kind; parent }) pos
        end
        else if tag = m_frag_image then begin
          let fid, pos = get_varint s ~pos in
          let status, pos = get_u8 s ~pos in
          if status = 0 then
            let image, pos = get_image s ~pos in
            finish (Frag_image { fid; image = Ok image }) pos
          else if status = 1 then
            let e = String.sub s pos (String.length s - pos) in
            Ok (corr, Frag_image { fid; image = Error e })
          else Error (Corrupt "bad fragment-image status")
        end
        else if tag = m_frag_install then begin
          let fid, pos = get_varint s ~pos in
          let epoch, pos = get_varint s ~pos in
          let image, pos = get_image s ~pos in
          let parent, pos = get_parent s ~pos in
          finish (Frag_install { fid; epoch; image; parent }) pos
        end
        else if tag = m_frag_retire then begin
          let fid, pos = get_varint s ~pos in
          let epoch, pos = get_varint s ~pos in
          let kind, pos = get_kind s ~pos in
          let parent, pos = get_parent s ~pos in
          finish (Frag_retire { fid; epoch; kind; parent }) pos
        end
        else if tag = m_admin_reply then begin
          let status, pos = get_u8 s ~pos in
          let rest = String.sub s pos (String.length s - pos) in
          if status = 0 then Ok (corr, Admin_reply { reply = Ok rest })
          else if status = 1 then Ok (corr, Admin_reply { reply = Error rest })
          else Error (Corrupt "bad admin-reply status")
        end
        else if tag = m_gen_publish then begin
          let kind, pos = get_kind s ~pos in
          let gens, pos =
            get_counted s ~pos (fun s ~pos ->
                let fid, pos = get_varint s ~pos in
                let gen, pos = get_varint s ~pos in
                ((fid, gen), pos))
          in
          let parent, pos = get_parent s ~pos in
          finish (Gen_publish { kind; gens; parent }) pos
        end
        else if tag = m_gen_event then begin
          let kind, pos = get_kind s ~pos in
          let gens, pos =
            get_counted s ~pos (fun s ~pos ->
                let fid, pos = get_varint s ~pos in
                let gen, pos = get_varint s ~pos in
                ((fid, gen), pos))
          in
          finish (Gen_event { kind; gens }) pos
        end
        else if tag = m_gen_fetch then begin
          let kind, pos = get_kind s ~pos in
          let parent, pos = get_parent s ~pos in
          finish (Gen_fetch { kind; parent }) pos
        end
        else if tag = m_gen_reply then begin
          let kind, pos = get_kind s ~pos in
          let gens, pos =
            get_counted s ~pos (fun s ~pos ->
                let fid, pos = get_varint s ~pos in
                let gen, pos = get_varint s ~pos in
                ((fid, gen), pos))
          in
          finish (Gen_reply { kind; gens }) pos
        end
        else if tag = m_spans_request then finish Spans_fetch pos
        else if tag = m_spans_reply then begin
          let server_now, pos = get_f64 s ~pos in
          let spans, pos = get_counted s ~pos get_span in
          finish (Spans_reply { server_now; spans }) pos
        end
        else if tag = m_reply then begin
          let run, pos = get_varint s ~pos in
          let round, pos = get_varint s ~pos in
          let status, pos = get_u8 s ~pos in
          if status = 0 then
            let reply, pos = get_reply s ~pos in
            finish (Visit_reply { run; round; reply = Ok reply }) pos
          else if status = 1 then
            let e = String.sub s pos (String.length s - pos) in
            Ok (corr, Visit_reply { run; round; reply = Error e })
          else Error (Corrupt "bad reply status")
        end
        else Error (Corrupt "unknown message tag")
  with
  | result -> result
  | exception Bad m -> Error (Corrupt m)
  | exception Codec.Decode_error m -> Error (Corrupt m)

let decode_payload s = Result.map snd (decode_payload_corr s)

let decode_frame s =
  if String.length s < 4 then Error Truncated
  else
    let n =
      (Char.code s.[0] lsl 24)
      lor (Char.code s.[1] lsl 16)
      lor (Char.code s.[2] lsl 8)
      lor Char.code s.[3]
    in
    if String.length s - 4 < n then Error Truncated
    else if String.length s - 4 > n then Error (Corrupt "bytes beyond frame")
    else Ok (String.sub s 4 n)

let decode s = Result.join (Result.map decode_payload (decode_frame s))
let decode_corr s = Result.join (Result.map decode_payload_corr (decode_frame s))

(* ------------------------------------------------------------------ *)
(* accounting                                                         *)
(* ------------------------------------------------------------------ *)

(* [lbl "QV" 3] is "QV(F3)". *)
let lbl name fid = name ^ "(F" ^ string_of_int fid ^ ")"

let walk_init ~sec fe =
  Option.iter (fun init -> sec (lbl "init" fe.fe_fid) (Vectors init)) fe.fe_init

let walk_subs ~sec subs =
  List.iter (fun (sub, bs) -> sec (lbl "QV*" sub) (Resolution bs)) subs

(* The one walk over a call's or reply's sections, in wire order, with
   the label accounting gives each: [frag] once per fragment entry,
   [sec label section] once per section. *)
let rec walk_call ~frag ~sec = function
  | Pax2_stage1 { query; frags } ->
      sec "Q" (Query query);
      List.iter
        (fun fe ->
          frag ();
          walk_init ~sec fe)
        frags
  | Pax2_stage2 { frags } ->
      List.iter
        (fun (fid, ctx, subs) ->
          frag ();
          sec (lbl "SV*" fid) (Resolution ctx);
          walk_subs ~sec subs)
        frags
  | Pax3_stage1 { query; fids } | Reach_stage1 { query; fids } ->
      sec "Q" (Query query);
      List.iter (fun _ -> frag ()) fids
  | Pax3_stage2 { query; frags } ->
      sec "Q" (Query query);
      List.iter
        (fun (fe, subs) ->
          frag ();
          walk_init ~sec fe;
          walk_subs ~sec subs)
        frags
  | Pax3_stage3 { frags } ->
      List.iter
        (fun (fid, ctx) ->
          frag ();
          sec (lbl "SV*" fid) (Resolution ctx))
        frags
  | Calls calls -> List.iter (walk_call ~frag ~sec) calls
  | Count call -> walk_call ~frag ~sec call
  | Ship { fids } -> List.iter (fun _ -> frag ()) fids

let rec walk_reply ~frag ~sec = function
  | Frag_results frs ->
      List.iter
        (fun fr ->
          frag ();
          Option.iter
            (fun vec -> sec (lbl "QV" fr.fr_fid) (Vectors vec))
            fr.fr_vec;
          List.iter
            (fun (sub, vec) -> sec (lbl "SV" sub) (Vectors vec))
            fr.fr_ctxs;
          if fr.fr_answers <> [] then
            sec (lbl "ans" fr.fr_fid) (Answers fr.fr_answers))
        frs
  | Final_answers { answers; ops = _ } ->
      if answers <> [] then sec "ans" (Answers answers)
  | Replies replies -> List.iter (walk_reply ~frag ~sec) replies
  | Counted { reply; counts = _ } -> walk_reply ~frag ~sec reply
  | Images images ->
      List.iter
        (fun (fid, fl) ->
          frag ();
          sec ("F" ^ string_of_int fid) (Frag_flat fl))
        images

let call_sections f call = walk_call ~frag:ignore ~sec:f call
let reply_sections f reply = walk_reply ~frag:ignore ~sec:f reply

type tally = { sections : int; section_bytes : int; frag_entries : int }

let tally msg =
  let sections = ref 0 and bytes = ref 0 and frags = ref 0 in
  let frag () = incr frags in
  let sec _ s =
    incr sections;
    bytes := !bytes + section_bytes s
  in
  (match msg with
  | Visit_request { call; _ } -> walk_call ~frag ~sec call
  | Visit_reply { reply = Ok r; _ } -> walk_reply ~frag ~sec r
  | Visit_reply { reply = Error _; _ }
  | Ping | Pong | Shutdown
  (* Run_done is session control (server-side state eviction); like
     stats traffic it carries no sections.  Its frame still crosses the
     wire, covered by the per-frame overhead allowance. *)
  | Run_done _
  (* Stats and span-harvest traffic is telemetry, not query
     evaluation: it carries no sections and is excluded from accounted
     traffic entirely. *)
  | Stats_request | Stats_reply _ | Spans_fetch | Spans_reply _
  (* Migration traffic is control plane, not query evaluation: a
     fragment image crossing the wire belongs to no run, so it never
     enters per-query guarantee accounting.  The admin byte volume is
     surfaced through pax_obs counters instead (docs/SHARDING.md). *)
  | Frag_fetch _ | Frag_image _ | Frag_install _ | Frag_retire _
  | Admin_reply _
  (* Cache-coherence traffic is likewise control plane: generation
     vectors belong to no run, so they never enter per-query guarantee
     accounting (docs/SERVING.md). *)
  | Gen_publish _ | Gen_event _ | Gen_fetch _ | Gen_reply _ -> ());
  { sections = !sections; section_bytes = !bytes; frag_entries = !frags }

(* Worst-case structure bytes (docs/NETWORK.md derives these): frame
   header + version + correlation id + tags + envelope varints and
   label; per fragment entry its identifiers, flags and counters; per
   section one adjacent varint identifier.  v2 raised the per-frame
   constant from 96 by the worst-case 8-byte correlation-id varint;
   elastic sharding adds a worst-case 10-byte placement-epoch varint
   to every visit request; distributed tracing adds a worst-case
   10-byte parent-span-id varint (the trace-context extension,
   present only when the coordinator traces). *)
let frame_overhead = 124
let frag_overhead = 48
let section_overhead = 12
