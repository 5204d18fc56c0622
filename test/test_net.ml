(* The socket transport, end to end over loopback Unix sockets:
   - wire codec round trips and totality under mutation;
   - differential runs: PaX2/PaX3 through forked site servers must be
     observably identical to the in-process transport (answers, visit
     counts, accounted messages), with measured socket bytes inside
     [accounted, accounted + documented framing overhead];
   - a SIGKILLed server surfaces as Site_unreachable once the retry
     budget is spent — never a hang (the suite runs under an alarm). *)

module Tree = Pax_xml.Tree
module Query = Pax_xpath.Query
module Formula = Pax_bool.Formula
module Var = Pax_bool.Var
module Fragment = Pax_frag.Fragment
module Cluster = Pax_dist.Cluster
module Transport = Pax_dist.Transport
module Codec = Pax_bool.Codec
module Wire = Pax_wire.Wire
module Sockio = Pax_net.Sockio
module Server = Pax_net.Server
module Client = Pax_net.Client

exception Timed_out

(* Hard guard: any hang in the socket machinery kills the test, not the
   suite. *)
let with_timeout secs f =
  let old =
    Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Timed_out))
  in
  ignore (Unix.alarm secs);
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.alarm 0);
      Sys.set_signal Sys.sigalrm old)
    f

(* Random-case counts scale with PAX_QCHECK_COUNT (the @slow suites). *)
let qcheck_count n =
  match Sys.getenv_opt "PAX_QCHECK_COUNT" with
  | Some s -> ( try int_of_string s with _ -> n)
  | None -> n

(* ------------------------------------------------------------------ *)
(* Wire codec units                                                   *)
(* ------------------------------------------------------------------ *)

let bits = Pax_bool.Bits.of_array

let sample_vec =
  [|
    Formula.true_;
    Formula.false_;
    Formula.conj
      (Formula.var (Var.Qual (3, 1)))
      (Formula.not_ (Formula.var (Var.Sel_ctx (7, 0))));
  |]

let sample_answer =
  { Wire.a_id = 42; a_tag = "item"; a_text = Some "a<b&\"c\""; a_attrs = [ ("id", "i7"); ("featured", "") ] }

let sample_msgs =
  [
    Wire.Visit_request
      {
        run = 123456;
        round = 0;
        site = 2;
        epoch = 0;
        label = "stage1";
        parent = None;
        call =
          Wire.Pax2_stage1
            {
              query = "//person[profile/education]";
              frags =
                [
                  { Wire.fe_fid = 0; fe_is_root = true; fe_init = None };
                  {
                    Wire.fe_fid = 3;
                    fe_is_root = false;
                    fe_init = Some sample_vec;
                  };
                ];
            };
      };
    Wire.Visit_request
      {
        run = 1;
        round = 1;
        site = 0;
        epoch = 3;
        label = "stage2";
        (* Trace context rides as a trailing varint; exercise a large id. *)
        parent = Some ((1 lsl 54) + 77);
        call =
          Wire.Pax2_stage2
            {
              frags =
                [ (1, bits [| true; false; true |], [ (2, bits [| false |]); (3, bits [||]) ]) ];
            };
      };
    Wire.Visit_request
      {
        run = 9;
        round = 0;
        site = 1;
        epoch = 1;
        label = "stage1";
        parent = Some 1;
        call = Wire.Pax3_stage1 { query = "a[b]//c"; fids = [ 0; 2; 5 ] };
      };
    Wire.Visit_request
      {
        run = 9;
        round = 1;
        site = 1;
        epoch = 4096;
        label = "stage2";
        parent = None;
        call =
          Wire.Pax3_stage2
            {
              query = "a[b]//c";
              frags =
                [
                  ( { Wire.fe_fid = 2; fe_is_root = false; fe_init = None },
                    [ (4, bits [| true; true |]) ] );
                ];
            };
      };
    Wire.Visit_request
      {
        run = 9;
        round = 2;
        site = 1;
        epoch = 7;
        label = "stage3";
        parent = Some 4194304;
        call = Wire.Pax3_stage3 { frags = [ (2, bits [| false; true |]) ] };
      };
    Wire.Visit_reply
      {
        run = 9;
        round = 0;
        reply =
          Ok
            (Wire.Frag_results
               [
                 {
                   Wire.fr_fid = 2;
                   fr_vec = Some sample_vec;
                   fr_ctxs = [ (4, sample_vec); (5, [||]) ];
                   fr_answers = [ sample_answer ];
                   fr_cands = 3;
                   fr_ops = 99;
                 };
               ]);
      };
    Wire.Visit_reply
      {
        run = 9;
        round = 2;
        reply =
          Ok (Wire.Final_answers { answers = [ sample_answer ]; ops = 7 });
      };
    Wire.Visit_reply
      { run = 5; round = 1; reply = Error "no stage-1 state for fragment 9" };
    (* Batch: one call list per visit, one reply list back. *)
    Wire.Visit_request
      {
        run = 10;
        round = 0;
        site = 2;
        epoch = 0;
        label = "stage1";
        parent = None;
        call =
          Wire.Calls
            [
              Wire.Pax2_stage1
                {
                  query = "//a[b]";
                  frags =
                    [ { Wire.fe_fid = 1; fe_is_root = false; fe_init = None } ];
                };
              Wire.Pax2_stage1 { query = "//c"; frags = [] };
              Wire.Pax3_stage3 { frags = [ (1, bits [| true |]) ] };
            ];
      };
    Wire.Visit_request
      {
        run = 10;
        round = 0;
        site = 2;
        epoch = 0;
        label = "stage1";
        parent = None;
        call = Wire.Calls [];
      };
    Wire.Visit_reply
      {
        run = 10;
        round = 1;
        reply =
          Ok
            (Wire.Replies
               [
                 Wire.Final_answers { answers = [ sample_answer ]; ops = 7 };
                 Wire.Final_answers { answers = []; ops = 0 };
               ]);
      };
    (* Count: a wrapped stage call, answered with counts. *)
    Wire.Visit_request
      {
        run = 12;
        round = 0;
        site = 1;
        epoch = 0;
        label = "stage1";
        parent = None;
        call =
          Wire.Count
            (Wire.Pax2_stage1
               {
                 query = "//a[b]";
                 frags =
                   [ { Wire.fe_fid = 1; fe_is_root = false; fe_init = None } ];
               });
      };
    Wire.Visit_reply
      {
        run = 12;
        round = 0;
        reply =
          Ok
            (Wire.Counted
               {
                 reply =
                   Wire.Frag_results
                     [
                       {
                         Wire.fr_fid = 1;
                         fr_vec = Some sample_vec;
                         fr_ctxs = [ (4, sample_vec) ];
                         fr_answers = [];
                         fr_cands = 2;
                         fr_ops = 31;
                       };
                     ];
                 counts = [ 300 ];
               });
      };
    Wire.Visit_reply
      {
        run = 12;
        round = 1;
        reply =
          Ok
            (Wire.Counted
               {
                 reply = Wire.Final_answers { answers = []; ops = 5 };
                 counts = [ 2 ];
               });
      };
    (* NaiveCentralized's ship call. *)
    Wire.Visit_request
      {
        run = 11;
        round = 0;
        site = 1;
        epoch = 0;
        label = "ship";
        parent = None;
        call = Wire.Ship { fids = [ 1; 4 ] };
      };
    Wire.Ping;
    Wire.Pong;
    Wire.Shutdown;
    Wire.Stats_request;
    Wire.Stats_reply [ ("pax_visits_total{site=\"1\"}", 4.); ("x", 0.5) ];
    Wire.Run_done { run = 987654321 };
    (* Elastic-sharding control plane (docs/SHARDING.md).  Image bytes
       are opaque at the wire layer, so arbitrary strings round-trip. *)
    Wire.Frag_fetch { fid = 3; kind = Wire.Tree_frag; parent = None };
    Wire.Frag_fetch { fid = 0; kind = Wire.Graph_frag; parent = Some 42 };
    Wire.Frag_image
      {
        fid = 3;
        image =
          Ok { Wire.fi_kind = Wire.Tree_frag; fi_bytes = "\x00flat\xffimage" };
      };
    Wire.Frag_image { fid = 9; image = Error "site server holds no fragment 9" };
    Wire.Frag_install
      {
        fid = 3;
        epoch = 2;
        image = { Wire.fi_kind = Wire.Graph_frag; fi_bytes = "pgf1\x01" };
        parent = Some 7;
      };
    Wire.Frag_retire { fid = 3; epoch = 2; kind = Wire.Tree_frag; parent = None };
    Wire.Admin_reply { reply = Ok "installed fragment 3 at epoch 2" };
    Wire.Admin_reply { reply = Error "corrupt flat image for fragment 3" };
    (* Span harvest (docs/OBSERVABILITY.md): telemetry control plane,
       never tallied.  Floats round-trip bit-exactly (IEEE-754 bits on
       the wire), so structural equality holds. *)
    Wire.Spans_fetch;
    Wire.Spans_reply { server_now = 12.5; spans = [] };
    Wire.Spans_reply
      {
        server_now = 1754700000.125;
        spans =
          [
            {
              Pax_obs.Span.sp_name = "stage kernel";
              sp_cat = "stage";
              sp_track = "site 2";
              sp_begin = 3.0625;
              sp_dur = 0.5;
              sp_args = [ ("run", "9"); ("round", "0") ];
              sp_seq = 4;
              sp_id = (17 lsl 22) lor 1023;
              sp_parent = Some ((3 lsl 22) lor 77);
            };
            {
              Pax_obs.Span.sp_name = "decode request";
              sp_cat = "wire";
              sp_track = "site 2";
              sp_begin = 0.;
              sp_dur = 0.;
              sp_args = [];
              sp_seq = 5;
              sp_id = (18 lsl 22) lor 1023;
              sp_parent = None;
            };
          ];
      };
  ]

(* A payload's message, its correlation id dropped. *)
let decode s = Result.map snd (Wire.decode_payload_corr s)

let test_roundtrip () =
  List.iter
    (fun msg ->
      match decode (Wire.encode_payload msg) with
      | Ok msg' ->
          Alcotest.(check bool) "encode/decode round trip" true (msg = msg')
      | Error e -> Alcotest.failf "decode failed: %a" Wire.pp_error e)
    sample_msgs

(* A [Ship] reply carries flat images, which hold a lock and an intern
   table: they compare by their encoding, not structurally. *)
let sample_image =
  let doc = Pax_xml.Parser.parse_string "<a x=\"1\"><b>t</b><c/></a>" in
  Pax_xml.Flat.of_tree doc.Tree.root

let image_msgs =
  [
    Wire.Visit_reply
      {
        run = 11;
        round = 0;
        reply = Ok (Wire.Images [ (1, sample_image); (4, sample_image) ]);
      };
    Wire.Visit_reply
      {
        run = 10;
        round = 0;
        reply =
          Ok
            (Wire.Replies
               [ Wire.Images [ (2, sample_image) ]; Wire.Frag_results [] ]);
      };
  ]

(* Pushed updates: each edit kind, the whole-image fallback, with and
   without a trace parent.  An inserted subtree travels as a flat
   image, so these too compare by their encoding. *)
let writer = (1 lsl 48) + 77

let update_msgs =
  let update ?parent ?(epoch = 0) fid version change =
    Wire.Frag_update { fid; epoch; version; change; parent }
  in
  let edit gen edit = Wire.Edit { base = (gen - 1, writer); edit } in
  [
    update 3 (5, writer) (edit 5 (Pax_xml.Flat.Set_text (1234, Some "42")));
    update ~parent:300 ~epoch:2 3 (6, writer)
      (edit 6 (Pax_xml.Flat.Set_text (12, None)));
    update 0 (7, writer) (edit 7 (Pax_xml.Flat.Delete 17));
    update 1 (2, writer) (edit 2 (Pax_xml.Flat.Insert (2, sample_image)));
    update ~parent:9 1 (3, writer)
      (Wire.Image (Pax_xml.Flat.encode sample_image));
  ]

(* What a write ships: a one-field Set_text on a large fragment, at
   generations and node ids of a long-running store, is a frame of a
   few dozen bytes, not the fragment's image. *)
let test_edit_frame_size () =
  let version = (100_000, writer) and base = (99_999, writer) in
  let edit = Pax_xml.Flat.Set_text (1_000_000, Some "Moldova, Republic Of") in
  let frame =
    Wire.encode_payload ~corr:(1 lsl 40)
      (Wire.Frag_update
         {
           fid = 3;
           epoch = 12;
           version;
           change = Wire.Edit { base; edit };
           parent = Some (1 lsl 40);
         })
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d + 4 bytes < 100" (String.length frame))
    true
    (4 + String.length frame < 100)

let test_image_roundtrip () =
  List.iter
    (fun msg ->
      match decode (Wire.encode_payload msg) with
      | Ok msg' ->
          Alcotest.(check string) "re-encoding is identical"
            (Wire.encode_payload msg) (Wire.encode_payload msg')
      | Error e -> Alcotest.failf "decode failed: %a" Wire.pp_error e)
    (image_msgs @ update_msgs)

(* The new frames' accounted bytes: a call list tallies as its calls, a
   ship reply as one flat-image section per fragment. *)
let test_tally_frames () =
  let req call =
    Wire.Visit_request
      { run = 1; round = 0; site = 0; epoch = 0; label = "l"; parent = None; call }
  in
  let sum ts =
    List.fold_left
      (fun (a : Wire.tally) (b : Wire.tally) ->
        {
          Wire.sections = a.Wire.sections + b.Wire.sections;
          section_bytes = a.Wire.section_bytes + b.Wire.section_bytes;
          frag_entries = a.Wire.frag_entries + b.Wire.frag_entries;
        })
      { Wire.sections = 0; section_bytes = 0; frag_entries = 0 }
      ts
  in
  let calls =
    [
      Wire.Pax3_stage1 { query = "a[b]//c"; fids = [ 0; 2 ] };
      Wire.Pax3_stage3 { frags = [ (2, bits [| false; true |]) ] };
    ]
  in
  Alcotest.(check bool) "Calls = sum of its calls" true
    (Wire.tally (req (Wire.Calls calls))
    = sum (List.map (fun c -> Wire.tally (req c)) calls));
  let call = List.hd calls in
  Alcotest.(check bool) "Count = its call" true
    (Wire.tally (req (Wire.Count call)) = Wire.tally (req call));
  Alcotest.(check bool) "Ship: one fragment entry per fid, no section" true
    (Wire.tally (req (Wire.Ship { fids = [ 1; 4 ] }))
    = { Wire.sections = 0; section_bytes = 0; frag_entries = 2 });
  let img = Wire.section_bytes (Wire.Frag_flat sample_image) in
  Alcotest.(check bool) "Images: one flat section per fragment" true
    (Wire.tally (List.hd image_msgs)
    = { Wire.sections = 2; section_bytes = 2 * img; frag_entries = 2 })

(* A wrapper inside a wrapper is refused by the decoder, so a hostile
   frame cannot make it recurse; the encoder cannot build one, so such
   frames are spliced by hand: a request or reply whose body ends in an
   empty [Ship] call or [Images] reply (a tag and a zero count) gets
   that body replaced. *)
let test_nested_calls () =
  let req call =
    Wire.Visit_request
      { run = 1; round = 0; site = 0; epoch = 0; label = "l"; parent = None; call }
  in
  let reply r = Wire.Visit_reply { run = 1; round = 0; reply = Ok r } in
  let splice msg body =
    let s = Wire.encode_payload msg in
    String.sub s 0 (String.length s - 2) ^ body
  in
  let call_with = splice (req (Wire.Ship { fids = [] }))
  and reply_with = splice (reply (Wire.Images [])) in
  (* Wrapper tags: Calls 7, Count 9, Replies 3, Counted 5; a plain
     [Ship {fids = [1]}] is "\x08\x01\x01", [Images []] "\x04\x00". *)
  let ship = "\x08\x01\x01" and images = "\x04\x00" in
  let ship_1 = Wire.Ship { fids = [ 1 ] } and no_images = Wire.Images [] in
  Alcotest.(check bool) "the splice point holds, one wrapper deep" true
    (decode (call_with ship) = Ok (req ship_1)
    && decode (call_with ("\x07\x01" ^ ship)) = Ok (req (Wire.Calls [ ship_1 ]))
    && decode (call_with ("\x09" ^ ship)) = Ok (req (Wire.Count ship_1))
    && decode (reply_with images) = Ok (reply no_images)
    && decode (reply_with ("\x03\x01" ^ images))
       = Ok (reply (Wire.Replies [ no_images ]))
    && decode (reply_with ("\x05" ^ images ^ "\x00"))
       = Ok (reply (Wire.Counted { reply = no_images; counts = [] })));
  List.iter
    (fun (what, payload) ->
      match decode payload with
      | Error (Wire.Corrupt _) -> ()
      | Ok _ -> Alcotest.failf "%s must not decode" what
      | Error e ->
          Alcotest.failf "%s: expected Corrupt, got %a" what Wire.pp_error e)
    [
      ("Calls in Calls", call_with ("\x07\x01\x07\x01" ^ ship));
      ("Count in Count", call_with ("\x09\x09" ^ ship));
      ("Count in Calls", call_with ("\x07\x01\x09" ^ ship));
      ("Calls in Count", call_with ("\x09\x07\x01" ^ ship));
      ("Replies in Replies", reply_with "\x03\x01\x03\x00");
      ("Counted in Counted", reply_with ("\x05\x05" ^ images ^ "\x00\x00"));
      ("Counted in Replies", reply_with ("\x03\x01\x05" ^ images ^ "\x00"));
      ("Replies in Counted", reply_with "\x05\x03\x00\x00");
    ];
  (* Nor does the encoder build one. *)
  let ship = ship_1 and counted r = Wire.Counted { reply = r; counts = [] } in
  List.iter
    (fun (what, msg) ->
      match Wire.encode_payload msg with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s must not encode" what)
    [
      ("Calls in Calls", req (Wire.Calls [ Wire.Calls [ ship ] ]));
      ("Count in Count", req (Wire.Count (Wire.Count ship)));
      ("Calls in Count", req (Wire.Count (Wire.Calls [ ship ])));
      ("Replies in Replies", reply (Wire.Replies [ Wire.Replies [] ]));
      ("Counted in Replies", reply (Wire.Replies [ counted no_images ]));
      ("Replies in Counted", reply (counted (Wire.Replies [])));
    ]

(* Protocol v2: the correlation id is an envelope field — stamped on a
   request, echoed on its reply. *)
let test_corr_roundtrip () =
  List.iter
    (fun msg ->
      List.iter
        (fun corr ->
          match Wire.decode_payload_corr (Wire.encode_payload ~corr msg) with
          | Ok (corr', msg') ->
              Alcotest.(check int) "correlation id echoes" corr corr';
              Alcotest.(check bool) "message round trips" true (msg = msg')
          | Error e ->
              Alcotest.failf "decode_payload_corr failed: %a" Wire.pp_error e)
        [ 0; 1; 255; 123_456; (1 lsl 54) + 3 ])
    sample_msgs

let test_decode_total () =
  (* Truncations at every length, byte flips at every position, for
     every sample message: decode must return, and never misparse a
     damaged frame as a longer-than-input value. *)
  List.iter
    (fun msg ->
      let s = Wire.encode_payload msg in
      for cut = 0 to String.length s - 1 do
        match decode (String.sub s 0 cut) with
        | Ok _ | Error _ -> ()
      done;
      for pos = 0 to String.length s - 1 do
        for byte = 0 to 255 do
          let b = Bytes.of_string s in
          Bytes.set b pos (Char.chr byte);
          match decode (Bytes.to_string b) with
          | Ok _ | Error _ -> ()
        done
      done)
    (sample_msgs @ image_msgs @ update_msgs)

let test_decode_errors () =
  let good = Wire.encode_payload Wire.Ping in
  (match decode (good ^ "junk") with
  | Error (Wire.Corrupt _) -> ()
  | _ -> Alcotest.fail "bytes beyond the message must be Corrupt");
  (* A section's payload must fill its u24 length exactly: a Vectors
     section of length 1 holds the empty vector; one of length 2 with a
     spare byte is corrupt. *)
  Alcotest.(check bool) "a section is read within its length" true
    (Codec.of_string_opt Wire.section "\x02\x00\x00\x01\x00"
     = Some (Wire.Vectors [||])
    && Codec.of_string_opt Wire.section "\x02\x00\x00\x02\x00\x00" = None);
  let bad_version = Bytes.of_string good in
  Bytes.set bad_version 0 '\xee';
  (match decode (Bytes.to_string bad_version) with
  | Error (Wire.Bad_version 0xee) -> ()
  | _ -> Alcotest.fail "wrong version byte must be Bad_version");
  (* The error names the offset: version, corr, tag, run, round, site
     and epoch take a byte each and the label "l" two, so the call's
     tag is byte 9. *)
  let req =
    Wire.encode_payload
      (Wire.Visit_request
         {
           run = 1;
           round = 0;
           site = 0;
           epoch = 0;
           label = "l";
           parent = None;
           call = Wire.Ship { fids = [] };
         })
  in
  let b = Bytes.of_string req in
  Bytes.set b 9 '\xff';
  match decode (Bytes.to_string b) with
  | Error (Wire.Corrupt m) ->
      Alcotest.(check string)
        "unknown call tag" "unknown call tag 255 at byte 9" m
  | _ -> Alcotest.fail "an unknown call tag must be Corrupt"

(* Accounting sizes every section from its payload's size function; for
   every kind that must be the encoded section's length, header
   included. *)
let gen_str = QCheck.Gen.(string_size ~gen:printable (int_range 0 40))

let gen_formula =
  let open QCheck.Gen in
  fix (fun self depth ->
      let leaf =
        oneof
          [
            return Formula.true_;
            return Formula.false_;
            map2 (fun f e -> Formula.var (Var.Qual (f, e))) nat small_nat;
            map2 (fun f e -> Formula.var (Var.Sel_ctx (f, e))) nat small_nat;
          ]
      in
      if depth = 0 then leaf
      else
        frequency
          [
            (2, leaf);
            (1, map Formula.not_ (self (depth - 1)));
            (1, map2 Formula.conj (self (depth - 1)) (self (depth - 1)));
            (1, map2 Formula.disj (self (depth - 1)) (self (depth - 1)));
          ])

let gen_answer =
  let open QCheck.Gen in
  map4
    (fun a_id a_tag a_text a_attrs -> { Wire.a_id; a_tag; a_text; a_attrs })
    (oneof [ small_nat; nat; int_range 0 (1 lsl 40) ])
    gen_str (opt gen_str)
    (list_size (int_range 0 3) (pair gen_str gen_str))

let gen_section : Wire.section QCheck.Gen.t =
  let open QCheck.Gen in
  oneof
    [
      map (fun q -> Wire.Query q) gen_str;
      map
        (fun fs -> Wire.Vectors fs)
        (array_size (int_range 0 12) (gen_formula 3));
      map (fun bs -> Wire.Resolution (bits bs)) (array_size (int_range 0 200) bool);
      map (fun a -> Wire.Answers a) (list_size (int_range 0 6) gen_answer);
      map (fun x -> Wire.Tree_data x) gen_str;
      map
        (fun (d : Tree.doc) -> Wire.Frag_flat (Pax_xml.Flat.of_tree d.Tree.root))
        (Test_helpers.Gen.doc ~max_nodes:30);
    ]

let prop_section_sizes =
  QCheck.Test.make ~name:"section sizes = 4 + payload"
    ~count:300
    (QCheck.make gen_section) (fun sec ->
      Wire.section_bytes sec = String.length (Codec.to_string Wire.section sec))

(* Random messages of every constructor: wrappers and their replies,
   error replies, control frames, with and without a trace parent. *)
let gen_msg : Wire.msg QCheck.Gen.t =
  let open QCheck.Gen in
  (* Varints carry up to 56 bits. *)
  let id =
    oneof [ small_nat; int_range 0 (1 lsl 20); int_range 0 ((1 lsl 56) - 1) ]
  in
  let bytes = string_size ~gen:char (int_range 0 12) in
  let few g = list_size (int_range 0 3) g in
  let vec = array_size (int_range 0 4) (gen_formula 2) in
  let bools = map bits (array_size (int_range 0 20) bool) in
  let frag_eval =
    map3
      (fun fe_fid fe_is_root fe_init -> { Wire.fe_fid; fe_is_root; fe_init })
      id bool (opt vec)
  in
  let subs = few (pair id bools) and fids = few id in
  let plain_call =
    oneof
      [
        map2
          (fun query frags -> Wire.Pax2_stage1 { query; frags })
          gen_str (few frag_eval);
        map (fun frags -> Wire.Pax2_stage2 { frags }) (few (triple id bools subs));
        map2 (fun query fids -> Wire.Pax3_stage1 { query; fids }) gen_str fids;
        map2
          (fun query frags -> Wire.Pax3_stage2 { query; frags })
          gen_str (few (pair frag_eval subs));
        map (fun frags -> Wire.Pax3_stage3 { frags }) (few (pair id bools));
        map2 (fun query fids -> Wire.Reach_stage1 { query; fids }) gen_str fids;
        map (fun fids -> Wire.Ship { fids }) fids;
      ]
  in
  let call =
    frequency
      [
        (4, plain_call);
        (1, map (fun calls -> Wire.Calls calls) (few plain_call));
        (1, map (fun call -> Wire.Count call) plain_call);
      ]
  in
  let answers = few gen_answer in
  let frag_result =
    map2
      (fun (fr_fid, fr_vec, fr_ctxs) (fr_answers, fr_cands, fr_ops) ->
        { Wire.fr_fid; fr_vec; fr_ctxs; fr_answers; fr_cands; fr_ops })
      (triple id (opt vec) (few (pair id vec)))
      (triple answers id id)
  in
  let image =
    map
      (fun (d : Tree.doc) -> Pax_xml.Flat.of_tree d.Tree.root)
      (Test_helpers.Gen.doc ~max_nodes:8)
  in
  let plain_reply =
    frequency
      [
        (3, map (fun frs -> Wire.Frag_results frs) (few frag_result));
        ( 3,
          map2
            (fun answers ops -> Wire.Final_answers { answers; ops })
            answers id );
        (1, map (fun images -> Wire.Images images) (few (pair id image)));
      ]
  in
  let reply =
    frequency
      [
        (4, plain_reply);
        (1, map (fun replies -> Wire.Replies replies) (few plain_reply));
        ( 1,
          map2
            (fun reply counts -> Wire.Counted { reply; counts })
            plain_reply (few id) );
      ]
  in
  let result ok = oneof [ map Result.ok ok; map Result.error bytes ] in
  let parent = opt id in
  let kind = oneofl [ Wire.Tree_frag; Wire.Graph_frag ] in
  let frag_image =
    map2 (fun fi_kind fi_bytes -> { Wire.fi_kind; fi_bytes }) kind bytes
  in
  let gens = few (pair id id) in
  let reading = oneof [ float_range (-1e9) 1e9; return 0.; return infinity ] in
  let span =
    map3
      (fun (sp_name, sp_cat, sp_track) (sp_begin, sp_dur, sp_args)
           (sp_seq, sp_id, sp_parent) ->
        {
          Pax_obs.Span.sp_name;
          sp_cat;
          sp_track;
          sp_begin;
          sp_dur;
          sp_args;
          sp_seq;
          sp_id;
          sp_parent;
        })
      (triple bytes bytes bytes)
      (triple reading (float_range 0. 1e3) (few (pair bytes bytes)))
      (triple id id (opt id))
  in
  oneof
    [
      map3
        (fun (run, round, site) (epoch, label) (call, parent) ->
          Wire.Visit_request { run; round; site; epoch; label; call; parent })
        (triple id id id) (pair id bytes) (pair call parent);
      map3
        (fun run round reply -> Wire.Visit_reply { run; round; reply })
        id id (result reply);
      oneofl
        [
          Wire.Ping; Wire.Pong; Wire.Shutdown; Wire.Stats_request; Wire.Spans_fetch;
        ];
      map (fun pairs -> Wire.Stats_reply pairs) (few (pair bytes reading));
      map (fun run -> Wire.Run_done { run }) id;
      map3
        (fun fid kind parent -> Wire.Frag_fetch { fid; kind; parent })
        id kind parent;
      map2
        (fun fid image -> Wire.Frag_image { fid; image })
        id (result frag_image);
      map4
        (fun fid epoch image parent ->
          Wire.Frag_install { fid; epoch; image; parent })
        id id frag_image parent;
      map4
        (fun fid epoch kind parent ->
          Wire.Frag_retire { fid; epoch; kind; parent })
        id id kind parent;
      map (fun reply -> Wire.Admin_reply { reply }) (result bytes);
      map2
        (fun server_now spans -> Wire.Spans_reply { server_now; spans })
        reading (few span);
      map3
        (fun kind gens parent -> Wire.Gen_publish { kind; gens; parent })
        kind gens parent;
      map2 (fun kind gens -> Wire.Gen_event { kind; gens }) kind gens;
      map2 (fun kind parent -> Wire.Gen_fetch { kind; parent }) kind parent;
      map2 (fun kind gens -> Wire.Gen_reply { kind; gens }) kind gens;
      map3
        (fun (fid, epoch, version) change parent ->
          Wire.Frag_update { fid; epoch; version; change; parent })
        (triple id id (pair id id))
        (oneof
           [
             map2
               (fun base edit -> Wire.Edit { base; edit })
               (pair id id)
               (oneof
                  [
                    map2
                      (fun id text -> Pax_xml.Flat.Set_text (id, text))
                      id (opt bytes);
                    map2 (fun id sub -> Pax_xml.Flat.Insert (id, sub)) id image;
                    map (fun id -> Pax_xml.Flat.Delete id) id;
                  ]);
             map (fun bytes -> Wire.Image bytes) bytes;
           ])
        parent;
    ]

(* Flat images hold a lock and an intern table, so messages carrying
   them compare by their encoding only. *)
let rec reply_has_images = function
  | Wire.Images _ -> true
  | Wire.Replies rs -> List.exists reply_has_images rs
  | Wire.Counted { reply; _ } -> reply_has_images reply
  | Wire.Frag_results _ | Wire.Final_answers _ -> false

let has_images = function
  | Wire.Visit_reply { reply = Ok r; _ } -> reply_has_images r
  | Wire.Frag_update
      { change = Wire.Edit { edit = Pax_xml.Flat.Insert _; _ }; _ } ->
      true
  | _ -> false

(* Frames that end in an optional trace parent or in an error or admin
   text are open-ended: cutting that last field off leaves a shorter,
   valid frame. *)
let open_ended = function
  | Wire.Visit_request { parent = Some _; _ }
  | Wire.Frag_fetch { parent = Some _; _ }
  | Wire.Frag_install { parent = Some _; _ }
  | Wire.Frag_retire { parent = Some _; _ }
  | Wire.Gen_publish { parent = Some _; _ }
  | Wire.Gen_fetch { parent = Some _; _ }
  | Wire.Frag_update { parent = Some _; _ }
  | Wire.Visit_reply { reply = Error _; _ }
  | Wire.Frag_image { image = Error _; _ }
  | Wire.Admin_reply _ ->
      true
  | _ -> false

(* The payload round-trips exactly and re-encodes to the same bytes,
   and every proper prefix is an error — except that a prefix of an
   open-ended frame may decode, and then only to the message whose
   encoding is exactly that prefix. *)
let prop_random_msgs =
  QCheck.Test.make ~name:"random messages round-trip; prefixes are errors"
    ~count:(qcheck_count 300)
    (QCheck.make gen_msg) (fun msg ->
      let corr = Hashtbl.hash msg land 0xFFFF in
      let s = Wire.encode_payload ~corr msg in
      let exact =
        match Wire.decode_payload_corr s with
        | Ok (corr', msg') ->
            corr' = corr
            && Wire.encode_payload ~corr msg' = s
            &&
            (has_images msg || msg' = msg)
        | Error _ -> false
      in
      let prefix_ok cut =
        let p = String.sub s 0 cut in
        match Wire.decode_payload_corr p with
        | Error _ -> true
        | Ok (corr', msg') ->
            open_ended msg && Wire.encode_payload ~corr:corr' msg' = p
      in
      exact && List.for_all prefix_ok (List.init (String.length s) Fun.id))

(* Decoding in place: a payload placed at a random offset inside a
   larger buffer, random bytes on both sides, decodes from its slice
   exactly as the payload alone does, tally included, and every shorter
   slice fails as a prefix must above. *)
let prop_slices =
  let pad = QCheck.Gen.(string_size ~gen:char (int_range 0 64)) in
  QCheck.Test.make ~name:"payloads decode in place; shorter slices are errors"
    ~count:(qcheck_count 300)
    (QCheck.make QCheck.Gen.(triple gen_msg pad pad))
    (fun (msg, before, after) ->
      let corr = Hashtbl.hash msg land 0xFFFF in
      let s = Wire.encode_payload ~corr msg in
      let buf = Bytes.of_string (before ^ s ^ after) in
      let off = String.length before in
      let exact =
        match
          (Wire.decode_slice buf off (String.length s), Wire.decode_payload_corr s)
        with
        | Ok (corr', msg', tally), Ok (corr'', msg'') ->
            corr' = corr && corr'' = corr
            && Wire.encode_payload ~corr msg' = s
            && (has_images msg || msg' = msg'')
            && tally = Wire.tally msg
        | _ -> false
      in
      let shorter_ok cut =
        match Wire.decode_slice buf off cut with
        | Error _ -> true
        | Ok (corr', msg', _) ->
            open_ended msg
            && Wire.encode_payload ~corr:corr' msg' = String.sub s 0 cut
      in
      exact && List.for_all shorter_ok (List.init (String.length s) Fun.id))

(* The codec's size is the encoded length, for every message; a frame
   appended behind other bytes is its u32 length and the payload. *)
let prop_msg_sizes =
  QCheck.Test.make ~name:"size = encoded length; frames append in place"
    ~count:(qcheck_count 300)
    (QCheck.make QCheck.Gen.(pair gen_msg (string_size ~gen:char (int_range 0 9))))
    (fun (msg, junk) ->
      let corr = Hashtbl.hash msg land 0xFFFF in
      let s = Wire.encode_payload ~corr msg in
      let w = Codec.writer () in
      Codec.append w Codec.rest junk;
      ignore (Wire.encode_frame w ~corr msg : Wire.tally);
      let header = Bytes.create 4 in
      Bytes.set_int32_be header 0 (Int32.of_int (String.length s));
      Codec.size Wire.envelope (Wire.version, corr, msg) = String.length s
      && Bytes.sub_string (Codec.buffer w) 0 (Codec.length w)
         = junk ^ Bytes.to_string header ^ s)

(* [Gc.minor_words] to encode every sample message into a connection's
   writer and to decode it where it lies, after one warm-up pass: the
   frame path allocates no more than these.  The decoded messages are
   most of the decode figure.  (Every sample frame is under the minor
   heap's 2 KiB limit on one block, so a copy of one would count.) *)
let sample_encode_words = 494
let sample_decode_words = 2058

let test_frame_words () =
  let w = Codec.writer () in
  let encode m =
    Codec.clear w;
    ignore (Sys.opaque_identity (Wire.encode_frame w ~corr:7 m))
  and decode () =
    ignore
      (Sys.opaque_identity
         (Wire.decode_slice (Codec.buffer w) 4 (Codec.length w - 4)))
  in
  let words f =
    List.iter f sample_msgs;
    let before = Gc.minor_words () in
    List.iter f sample_msgs;
    int_of_float (Gc.minor_words () -. before)
  in
  let enc = words encode
  and dec =
    words (fun m ->
        encode m;
        decode ())
    - words encode
  in
  if enc > sample_encode_words then
    Alcotest.failf "encoding the samples allocated %d minor words, over %d" enc
      sample_encode_words;
  if dec > sample_decode_words then
    Alcotest.failf "decoding the samples allocated %d minor words, over %d" dec
      sample_decode_words

(* The fixed samples behind the property: the query, vector and bools
   sections accounting charges, each sized as it is measured on the wire.
   The case keeps its name from when a separate Measure module held the
   accounting sizes. *)
let test_sections_measured () =
  let q = Query.of_string "//person[profile/education]/name" in
  let measured sec = String.length (Codec.to_string Wire.section sec) in
  List.iter
    (fun (name, sec) ->
      Alcotest.(check int) name (measured sec) (Wire.section_bytes sec))
    [
      ("query section", Wire.Query q.Query.source);
      ("vector section", Wire.Vectors sample_vec);
      ("bools section", Wire.Resolution (bits [| true; false |]));
    ]

(* Byte pins: MD5 digests of fixed encodings, generated once and never
   regenerated, so no codec change can alter a byte on the wire
   unnoticed.  The frames are every sample above plus a graph
   fragment's migration frame, each encoded with correlation id 7;
   then one section of each kind on its own; then the pushed updates,
   also with correlation id 7. *)
let pinned_graph_install =
  let g =
    Pax_graph.Gfrag.partition ~n:9
      ~edges:[ (0, 1); (1, 4); (2, 7); (4, 0); (5, 8); (7, 3); (8, 4) ]
      ~owner:(Array.init 9 (fun v -> v mod 3))
  in
  Wire.Frag_install
    {
      fid = 1;
      epoch = 5;
      image =
        {
          Wire.fi_kind = Wire.Graph_frag;
          fi_bytes = Pax_graph.Gfrag.encode (Pax_graph.Gfrag.fragment g 1);
        };
      parent = Some 300;
    }

let pinned_sections =
  [
    Wire.Query "//person[profile/education]/name";
    Wire.Vectors sample_vec;
    Wire.Resolution
      (bits [| true; false; true; true; false; false; true; false; true |]);
    Wire.Answers
      [ sample_answer; { sample_answer with a_text = None; a_attrs = [] } ];
    Wire.Tree_data "<a x=\"1\"><b>t</b></a>";
    Wire.Frag_flat sample_image;
  ]

let pinned_digests =
  [
    "3391ea453f619575be4fff42b3957fa8";
    "bf7aeb877e2194ce64d0263c6fe862a3";
    "e65efeacca321cf35d92571cde8dea93";
    "c246561fa5c8a9071a4a6262e31b89da";
    "42e933b71562a60dc35fa830c3f42ff3";
    "96f38e362e4bd40177c9eced7324084a";
    "18fdea1d98095f685969ff41e68b3c9b";
    "54655b47716382d3e0c8611954a5b1ae";
    "380bc571e2ae82cfdba1b2103be55bdf";
    "0787339397a6140dd987a32a7ea4f876";
    "3b84254729baf9fd5219cea7def810b0";
    "109a45b89f6ce1bd8b71c583d3244d89";
    "b729243b0bb8afb2b05b573e91cb4234";
    "b8ac4623a94670a9fdb607c644cfbe91";
    "00963fa573f357639d21a79310c4a4b9";
    "44cc83557943807cc1db6ef4004b1134";
    "29798ff6a82107db17f5956ccef0f9c8";
    "066858618b356a50d2a1a85bbc032985";
    "b0919edcbf3f2b7058f8c52c9e200817";
    "af909f37bedaa4449d72ba3d80b461f2";
    "e59d873f769a18fa285b51cd0646caa3";
    "771df35651e53cf13443950af96feb01";
    "2da9e6f6536d590758a2f4954b27f907";
    "21d6ea93e64f44552ebeb1be959e511c";
    "26bb5d2a6f0fbb91ab5a02fc6bf8ad24";
    "492af5a9dc222f3d170515384c3993f4";
    "e31304a5d42056b5634b33f7b6b7600e";
    "57bb420c342da6101ca257d7aac4decf";
    "cb15fba0a6621db17c2ae08ea6a6f846";
    "b77c2fb6d134de96c93fb1d91e4d837b";
    "0aa0694f429b7caa746a566c1b3ff478";
    "0c3ff20edfc67c6ce00bf57e9c214f0c";
    "9508eba1213a139c86ab99d551f5d826";
    "944869a73df198bbba63f5fa722a7cce";
    "bcfe0ac459aedc5cbe849b0044ced190";
    "5ffef5a4c56859034f2e3f7583c62247";
    "0e753a0302184323e08aefb3754dfcec";
    "3c68ba29c8dd4447bfd2ac1d0e771c38";
    "77e9a97b9df3d9a7eacfa3ca565d8d4b";
    "27b5a69a38378fdb98c789626dc83ee4";
    "006bb5525aa176516b5e3a421fd48224";
    "674b03019adaa22d4cffbd76ae035be0";
    "56ab9c7c5b025adbdc8148dabb7c2879";
    "d569a914a096685a54ca9e63a9fb1046";
    "fc50ca718429da8811abe9d4e4775a16";
    "0023543f623e2b14366a8cd5475c9a2e";
  ]

let test_byte_pins () =
  let frames =
    List.map
      (fun m -> Wire.encode_payload ~corr:7 m)
      (sample_msgs @ image_msgs @ [ pinned_graph_install ])
  in
  let sections = List.map (Codec.to_string Wire.section) pinned_sections in
  let updates = List.map (fun m -> Wire.encode_payload ~corr:7 m) update_msgs in
  let got =
    List.map
      (fun s -> Digest.to_hex (Digest.string s))
      (frames @ sections @ updates)
  in
  Alcotest.(check (list string))
    "digests of pinned encodings" pinned_digests got

let test_addr_parse () =
  let ok s expected =
    match Sockio.addr_of_string s with
    | Ok a -> Alcotest.(check string) s expected (Sockio.addr_to_string a)
    | Error e -> Alcotest.failf "%s: %s" s e
  in
  ok "unix:/tmp/x.sock" "unix:/tmp/x.sock";
  ok "/tmp/x.sock" "unix:/tmp/x.sock";
  ok "./rel.sock" "unix:./rel.sock";
  ok "localhost:7000" "localhost:7000";
  ok ":7000" "127.0.0.1:7000";
  List.iter
    (fun s ->
      match Sockio.addr_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S should not parse" s)
    [ ""; "host:"; "host:0"; "host:99999"; "unix:"; "noport" ]

(* ------------------------------------------------------------------ *)
(* Framing: one buffered reader, any write boundaries                 *)
(* ------------------------------------------------------------------ *)

let frame_header n =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.to_string b

let write_all fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

(* Payloads of 0 B to 100 KiB (the reader starts at a few KiB), and the
   chunk sizes a writer cuts their frames into, cycled: chunks of a few
   bytes split headers, large ones carry several frames at once. *)
let gen_framing =
  let open QCheck.Gen in
  let payload =
    frequency
      [
        (3, int_range 0 64);
        (3, int_range 65 6000);
        (1, int_range 6001 102_400);
      ]
    >>= fun n ->
    map
      (fun seed ->
        String.init n (fun i -> Char.chr ((seed + (i * 7919)) land 255)))
      (int_bound 255)
  in
  let chunk =
    frequency
      [ (3, int_range 1 7); (3, int_range 8 5000); (1, int_range 5001 200_000) ]
  in
  pair (list_size (int_range 0 8) payload) (list_size (int_range 1 8) chunk)

let print_framing (payloads, chunks) =
  let ints l = String.concat "," (List.map string_of_int l) in
  Printf.sprintf "payload sizes [%s], chunk sizes [%s]"
    (ints (List.map String.length payloads))
    (ints chunks)

let prop_framing =
  QCheck.Test.make ~name:"reader = frames written"
    ~count:(qcheck_count 100)
    (QCheck.make ~print:print_framing gen_framing)
    (fun (payloads, chunks) ->
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      let stream =
        String.concat ""
          (List.concat_map
             (fun p -> [ frame_header (String.length p); p ])
             payloads)
      in
      let rfd, wfd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let writer =
        Thread.create
          (fun () ->
            let chunks = Array.of_list chunks in
            let rec go off i =
              if off < String.length stream then begin
                let n =
                  min
                    chunks.(i mod Array.length chunks)
                    (String.length stream - off)
                in
                write_all wfd (String.sub stream off n);
                go (off + n) (i + 1)
              end
            in
            (try go 0 0 with Unix.Unix_error _ -> ());
            Unix.close wfd)
          ()
      in
      let rd = Sockio.reader rfd in
      let rec drain acc =
        match Sockio.read_frame ~timeout:10. rd with
        | Some p -> drain (p :: acc)
        | None -> List.rev acc
      in
      Fun.protect
        ~finally:(fun () ->
          Unix.close rfd;
          Thread.join writer)
        (fun () -> drain [] = payloads))

(* A reader over a fresh socket pair; [w] is the writing end. *)
let with_reader f =
  let rfd, w = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close rfd;
      Unix.close w)
    (fun () -> f (Sockio.reader rfd) w)

let test_framing_edges () =
  let expect_failure name rd =
    match Sockio.read_frame ~timeout:5. rd with
    | exception Failure _ -> ()
    | _ -> Alcotest.failf "%s: expected Failure" name
  in
  let frame = Alcotest.(option string) in
  with_reader (fun rd w ->
      write_all w (frame_header 3 ^ "abc");
      Unix.shutdown w Unix.SHUTDOWN_SEND;
      Alcotest.check frame "the frame" (Some "abc") (Sockio.read_frame rd);
      Alcotest.check frame "EOF between frames" None (Sockio.read_frame rd));
  with_reader (fun rd w ->
      write_all w "\000\000";
      Unix.shutdown w Unix.SHUTDOWN_SEND;
      expect_failure "EOF inside a header" rd);
  with_reader (fun rd w ->
      write_all w (frame_header 10 ^ "abcde");
      Unix.shutdown w Unix.SHUTDOWN_SEND;
      expect_failure "EOF inside a payload" rd);
  (* The stream stays open: the length alone must be refused, before a
     buffer is sized by it. *)
  List.iter
    (fun n ->
      with_reader (fun rd w ->
          write_all w (frame_header n);
          let before = Gc.allocated_bytes () in
          expect_failure (Printf.sprintf "a header of %d" n) rd;
          let grew = Gc.allocated_bytes () -. before in
          if grew > 1048576. then
            Alcotest.failf "refusing a header of %d allocated %.0f bytes" n
              grew))
    [ Sockio.max_frame + 1; 0xFFFF_FFFF ];
  (* A timeout inside a frame loses nothing: the next read resumes it. *)
  with_reader (fun rd w ->
      write_all w (frame_header 6 ^ "abc");
      (match Sockio.read_frame ~timeout:0.05 rd with
      | exception Sockio.Timeout -> ()
      | _ -> Alcotest.fail "half a frame must time out");
      write_all w "def";
      Alcotest.check frame "the resumed frame" (Some "abcdef")
        (Sockio.read_frame ~timeout:5. rd))

(* ------------------------------------------------------------------ *)
(* Differential: sockets vs in-process                                *)
(* ------------------------------------------------------------------ *)

(* An Exp-2-shaped setup: an XMark document cut at its site subtrees,
   fragments round-robined over fewer machines than fragments. *)
let make_setup () =
  let doc = Pax_xmark.Xmark.doc ~seed:11 ~total_nodes:1600 ~n_sites:4 in
  let ft =
    Fragment.fragmentize doc ~cuts:(Fragment.cuts_by_tag doc ~tag:"site")
  in
  (doc, ft)

let queries =
  [
    "//person[profile/education]";
    "//person/profile/age";
    "//regions/*/item/name";
    "//person[profile/interest/@category]/name";
    "/site/open_auctions/open_auction[bidder]";
    "//item[location/text() = \"United States\"]";
  ]

let site_frags cl ft site =
  List.map
    (fun fid -> (fid, (Fragment.fragment ft fid).Fragment.root))
    (Cluster.fragments_on cl site)

let with_servers ?service_delay ft ~n_sites f =
  let cl = Pax_dist.Placement.cluster_round_robin ft ~n_sites in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pax_net_test_%d_%d" (Unix.getpid ()) (Random.int 100000))
  in
  Sys.mkdir dir 0o755;
  let addrs =
    Array.init n_sites (fun site ->
        Sockio.Unix_path (Filename.concat dir (Printf.sprintf "s%d.sock" site)))
  in
  let pids =
    Array.to_list
      (Array.mapi
         (fun site addr ->
           Server.spawn ?service_delay ~addr ~frags:(site_frags cl ft site) ())
         addrs)
  in
  let client = Client.create ~timeout:20. ~addrs () in
  Cluster.set_transport cl (Some (Client.transport client));
  Fun.protect
    ~finally:(fun () ->
      Client.shutdown_sites client;
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with _ -> ());
          try ignore (Unix.waitpid [] pid) with _ -> ())
        pids;
      Array.iter
        (fun a ->
          match a with
          | Sockio.Unix_path p -> ( try Sys.remove p with _ -> ())
          | Sockio.Tcp _ -> ())
        addrs;
      try Sys.rmdir dir with _ -> ())
    (fun () -> f cl client pids addrs)

let accounted (r : Cluster.report) =
  r.Cluster.control_bytes + r.Cluster.answer_bytes + r.Cluster.tree_bytes

(* Byte honesty: the sections that crossed the sockets this run are
   exactly the accounted bytes, and the measured bytes stay within the
   documented framing overhead of them. *)
let check_bytes name cl_net rep_n =
  let stats =
    match Cluster.net_stats cl_net with
    | Some s -> s
    | None -> Alcotest.fail (name "net_stats missing")
  in
  let measured = stats.Transport.sent_bytes + stats.Transport.received_bytes in
  Alcotest.(check (option int))
    (name "report.measured_bytes")
    (Some measured) rep_n.Cluster.measured_bytes;
  let acct = accounted rep_n in
  Alcotest.(check int)
    (name "section bytes = accounted bytes")
    acct stats.Transport.section_bytes;
  if measured < acct then
    Alcotest.failf "%s: measured %d < accounted %d" (name "lower bound")
      measured acct;
  let bound =
    acct
    + (stats.Transport.frames * Wire.frame_overhead)
    + (stats.Transport.frag_entries * Wire.frag_overhead)
    + (stats.Transport.sections * Wire.section_overhead)
  in
  if measured > bound then
    Alcotest.failf "%s: measured %d > accounted %d + overhead %d"
      (name "upper bound") measured acct (bound - acct)

let check_differential engine_name engine () =
  with_timeout 120 (fun () ->
      let _, ft = make_setup () in
      let n_sites = 3 in
      let cl_ctrl = Pax_dist.Placement.cluster_round_robin ft ~n_sites in
      with_servers ft ~n_sites (fun cl_net _client _pids _addrs ->
          List.iter
            (fun qs ->
              let q = Query.of_string qs in
              let r_ctrl : Pax_core.Run_result.t = engine cl_ctrl q in
              let r_net : Pax_core.Run_result.t = engine cl_net q in
              let name what = Printf.sprintf "%s %s: %s" engine_name qs what in
              Alcotest.(check (list int))
                (name "answers")
                r_ctrl.Pax_core.Run_result.answer_ids
                r_net.Pax_core.Run_result.answer_ids;
              let rep_c = r_ctrl.Pax_core.Run_result.report in
              let rep_n = r_net.Pax_core.Run_result.report in
              Alcotest.(check (array int))
                (name "per-site visits")
                rep_c.Cluster.visits rep_n.Cluster.visits;
              Alcotest.(check (list string))
                (name "rounds")
                rep_c.Cluster.rounds rep_n.Cluster.rounds;
              Alcotest.(check int)
                (name "accounted control bytes")
                rep_c.Cluster.control_bytes rep_n.Cluster.control_bytes;
              Alcotest.(check int)
                (name "accounted answer bytes")
                rep_c.Cluster.answer_bytes rep_n.Cluster.answer_bytes;
              Alcotest.(check bool)
                (name "identical message log")
                true
                (Cluster.messages cl_ctrl = Cluster.messages cl_net);
              Alcotest.(check int)
                (name "total ops")
                rep_c.Cluster.total_ops rep_n.Cluster.total_ops;
              check_bytes name cl_net rep_n)
            queries))

(* Count over site servers: its calls travel wrapped, and the replies
   carry counts where PaX2's carry answer elements, so the sections on
   the wire are exactly what it accounts — no answer bytes at all. *)
let test_count_over_sockets () =
  with_timeout 120 (fun () ->
      let _, ft = make_setup () in
      let n_sites = 3 in
      let cl_ctrl = Pax_dist.Placement.cluster_round_robin ft ~n_sites in
      with_servers ft ~n_sites (fun cl_net _client _pids _addrs ->
          List.iter
            (fun (qs, annotations) ->
              let q = Query.of_string qs in
              let name what =
                Printf.sprintf "count %s (annotations=%b): %s" qs annotations
                  what
              in
              let n_ctrl, rep_c = Pax_core.Count.run ~annotations cl_ctrl q in
              let n_net, rep_n = Pax_core.Count.run ~annotations cl_net q in
              let pax2 = Pax_core.Pax2.run ~annotations cl_ctrl q in
              Alcotest.(check int) (name "count = |PaX2 answers|")
                (List.length pax2.Pax_core.Run_result.answer_ids)
                n_ctrl;
              Alcotest.(check int) (name "answers") n_ctrl n_net;
              Alcotest.(check (array int))
                (name "visits") rep_c.Cluster.visits rep_n.Cluster.visits;
              Alcotest.(check int)
                (name "total ops") rep_c.Cluster.total_ops
                rep_n.Cluster.total_ops;
              Alcotest.(check int) (name "no answer bytes") 0
                rep_n.Cluster.answer_bytes;
              (* Annotated calls carry uncharged init vectors. *)
              if not annotations then check_bytes name cl_net rep_n)
            (List.map (fun qs -> (qs, false)) queries
            @ [ ("//person[profile/education]", true) ])))

(* PaX2 over site servers with a stage cache: a hot run's stage-1 call
   leaves out the fragments the cache answers, so their vectors and
   answers neither travel nor get accounted, and the sections on the
   wire are still exactly what the run accounts. *)
let test_pax2_cached_over_sockets () =
  with_timeout 120 (fun () ->
      let _, ft = make_setup () in
      with_servers ft ~n_sites:3 (fun cl_net _client _pids _addrs ->
          let entries = Hashtbl.create 16 in
          let hits = ref [] in
          Cluster.set_stage_cache cl_net
            {
              Pax_dist.Stage_cache.describe = "test";
              lookup =
                (fun ~qkey ~fid ->
                  let e = Hashtbl.find_opt entries (qkey, fid) in
                  if Option.is_some e then hits := fid :: !hits;
                  e);
              store = (fun ~qkey ~fid fr -> Hashtbl.replace entries (qkey, fid) fr);
            };
          let total_hits = ref 0 in
          List.iter
            (fun qs ->
              let q = Query.of_string qs in
              let name what = Printf.sprintf "cached pax2 %s: %s" qs what in
              let cold = Pax_core.Pax2.run cl_net q in
              hits := [];
              let hot = Pax_core.Pax2.run cl_net q in
              let cached = !hits in
              total_hits := !total_hits + List.length cached;
              Alcotest.(check (list int))
                (name "hot answers = cold answers")
                cold.Pax_core.Run_result.answer_ids
                hot.Pax_core.Run_result.answer_ids;
              let rep_hot = hot.Pax_core.Run_result.report in
              check_bytes name cl_net rep_hot;
              if accounted rep_hot > accounted cold.Pax_core.Run_result.report
              then Alcotest.fail (name "hot run accounts more than cold");
              (* Stage 1's messages follow its round start, up to the
                 next round's. *)
              let rec stage1 in_round = function
                | [] -> []
                | Pax_dist.Trace.Round_start { label; _ } :: rest ->
                    stage1 (label = "stage1") rest
                | Pax_dist.Trace.Message { label; _ } :: rest when in_round ->
                    label :: stage1 in_round rest
                | _ :: rest -> stage1 in_round rest
              in
              let labels = stage1 false (Pax_dist.Trace.events hot.trace) in
              List.iter
                (fun fid ->
                  List.iter
                    (fun l ->
                      if List.mem l labels then
                        Alcotest.failf "%s" (name ("stage 1 carries cached " ^ l)))
                    [
                      Printf.sprintf "QV(F%d)" fid; Printf.sprintf "ans(F%d)" fid;
                    ])
                cached)
            queries;
          Alcotest.(check bool) "the cache was hit" true (!total_hits > 0)))

(* Annotated runs ship explicit init vectors; answers must still agree
   (byte parity is not asserted here — fe_init is extra wire payload
   the simulator's model does not charge for). *)
let check_differential_annotated () =
  with_timeout 120 (fun () ->
      let _, ft = make_setup () in
      let n_sites = 3 in
      let cl_ctrl = Pax_dist.Placement.cluster_round_robin ft ~n_sites in
      with_servers ft ~n_sites (fun cl_net _client _pids _addrs ->
          List.iter
            (fun qs ->
              let q = Query.of_string qs in
              List.iter
                (fun (engine_name, engine) ->
                  let r_ctrl : Pax_core.Run_result.t =
                    engine ~annotations:true cl_ctrl q
                  in
                  let r_net : Pax_core.Run_result.t =
                    engine ~annotations:true cl_net q
                  in
                  Alcotest.(check (list int))
                    (Printf.sprintf "%s %s: annotated answers" engine_name qs)
                    r_ctrl.Pax_core.Run_result.answer_ids
                    r_net.Pax_core.Run_result.answer_ids;
                  Alcotest.(check (array int))
                    (Printf.sprintf "%s %s: annotated visits" engine_name qs)
                    r_ctrl.Pax_core.Run_result.report.Cluster.visits
                    r_net.Pax_core.Run_result.report.Cluster.visits)
                [
                  ("pax2", fun ~annotations cl q ->
                      Pax_core.Pax2.run ~annotations cl q);
                  ("pax3", fun ~annotations cl q ->
                      Pax_core.Pax3.run ~annotations cl q);
                ])
            [ "//person[profile/education]"; "//regions/*/item/name" ]))

(* A sub-fragment the annotations prune from stage 1 has an empty
   unified qualifier vector; a candidate that reads one of its entries
   must see false at a site server as it does in process. *)
let test_pruned_qualifier () =
  with_timeout 60 (fun () ->
      let c = Test_helpers.Data.clientele () in
      let ft = Test_helpers.Data.clientele_ftree c in
      let cl_ctrl = Pax_dist.Placement.cluster_round_robin ft ~n_sites:3 in
      with_servers ft ~n_sites:3 (fun cl_net _client _pids _addrs ->
          let qs = "client[not(country/text() = \"US\")]/name" in
          let q = Query.of_string qs in
          let root = c.Test_helpers.Data.doc.Pax_xml.Tree.root in
          let expected = Test_helpers.Pointer.eval_ids q root in
          let r_ctrl = Pax_core.Pax2.run ~annotations:true cl_ctrl q in
          let r_net = Pax_core.Pax2.run ~annotations:true cl_net q in
          Alcotest.(check (list int)) "in process" expected
            r_ctrl.Pax_core.Run_result.answer_ids;
          Alcotest.(check (list int)) "over sockets" expected
            r_net.Pax_core.Run_result.answer_ids))

(* Every engine describes its rounds as wire calls, so ParBoX, Naive,
   Count and Batch run over site servers too, with the same answers,
   visits, rounds, ops, trace and accounted messages as in process. *)
let test_every_engine () =
  with_timeout 120 (fun () ->
      let _, ft = make_setup () in
      let n_sites = 3 in
      let cl_ctrl = Pax_dist.Placement.cluster_round_robin ft ~n_sites in
      let qs = List.map Query.of_string queries in
      let ids ids = String.concat "," (List.map string_of_int ids) in
      (* Each run: its answer, printed, and its report. *)
      let runs =
        List.map
          (fun qual ->
            ( "parbox",
              fun cl ->
                let b, rep = Pax_core.Parbox.eval_string cl qual in
                (string_of_bool b, rep) ))
          [
            "//person/profile/age";
            "//item[location/text() = \"United States\"]";
            "//person[profile/age/val() > 1000000]";
          ]
        @ List.map
            (fun q ->
              ( "naive",
                fun cl ->
                  let r = Pax_core.Naive.run cl q in
                  ( ids r.Pax_core.Run_result.answer_ids,
                    r.Pax_core.Run_result.report ) ))
            qs
        @ List.map
            (fun q ->
              ( "count",
                fun cl ->
                  let n, rep = Pax_core.Count.run cl q in
                  (string_of_int n, rep) ))
            qs
        @ [
            ( "batch",
              fun cl ->
                let b = Pax_core.Batch.run cl qs in
                ( String.concat ";"
                    (List.map
                       (fun (_, nodes) ->
                         ids (List.map (fun (n : Tree.node) -> n.Tree.id) nodes))
                       b.Pax_core.Batch.results),
                  b.Pax_core.Batch.report ) );
          ]
      in
      with_servers ft ~n_sites (fun cl_net _client _pids _addrs ->
          List.iteri
            (fun i (name, run) ->
              let observe cl =
                let answer, (rep : Cluster.report) = run cl in
                ( answer,
                  rep,
                  Pax_dist.Trace.events (Cluster.trace cl),
                  Cluster.messages cl )
              in
              let a1, r1, t1, m1 = observe cl_ctrl in
              let a2, r2, t2, m2 = observe cl_net in
              let what x = Printf.sprintf "%s #%d: %s" name i x in
              Alcotest.(check string) (what "answers") a1 a2;
              Alcotest.(check (array int))
                (what "visits") r1.Cluster.visits r2.Cluster.visits;
              Alcotest.(check (list string))
                (what "rounds") r1.Cluster.rounds r2.Cluster.rounds;
              Alcotest.(check int)
                (what "total ops") r1.Cluster.total_ops r2.Cluster.total_ops;
              Alcotest.(check bool) (what "trace events") true (t1 = t2);
              Alcotest.(check bool) (what "message log") true (m1 = m2))
            runs))

(* A lost reply is delivered again, once per [Visit] event: the site
   server receives exactly the trace's physical visits, and every
   delivery pays the server's service delay. *)
let test_lost_reply_deliveries () =
  with_timeout 60 (fun () ->
      let _, ft = make_setup () in
      let n_sites = 3 and site = 1 and delay = 0.001 in
      with_servers ~service_delay:delay ft ~n_sites
        (fun cl client _pids _addrs ->
          Cluster.set_fault cl
            (Pax_dist.Fault.lose_reply ~times:2 ~site ~round:0 ());
          let r =
            Pax_core.Pax2.run cl (Query.of_string "//person[profile/education]")
          in
          let tr = r.Pax_core.Run_result.trace in
          let physical = Pax_dist.Trace.physical_visits tr ~site in
          Alcotest.(check int) "two replays on top of the logical visits"
            (Pax_dist.Trace.logical_visits tr ~site + 2)
            physical;
          let recv =
            List.assoc_opt "pax_net_visit_frames_total{dir=\"recv\"}"
              (Client.fetch_stats client site)
          in
          Alcotest.(check (option (float 0.))) "frames received = physical visits"
            (Some (float_of_int physical)) recv;
          let total = r.Pax_core.Run_result.report.Cluster.total_seconds in
          if total < delay *. float_of_int physical then
            Alcotest.failf "total_seconds %g < %g x %d deliveries" total delay
              physical))

(* ------------------------------------------------------------------ *)
(* Failure: a killed server is a typed error, not a hang              *)
(* ------------------------------------------------------------------ *)

let test_killed_server () =
  with_timeout 60 (fun () ->
      let _, ft = make_setup () in
      with_servers ft ~n_sites:3 (fun cl_net _client pids _addrs ->
          Cluster.set_retry cl_net
            {
              Pax_dist.Retry.max_attempts = 3;
              base_delay = 0.01;
              multiplier = 1.0;
              max_delay = 0.01;
            };
          let q = Query.of_string "//person[profile/education]" in
          (* A clean run first: connections to every site are live. *)
          let r = Pax_core.Pax2.run cl_net q in
          Alcotest.(check bool) "warm run answers" true
            (r.Pax_core.Run_result.answer_ids <> []);
          (* Kill one site's server; its connection dies under the
             client.  The next run must fail typed, after the retry
             budget, naming the dead site. *)
          let dead = List.nth pids 1 in
          Unix.kill dead Sys.sigkill;
          ignore (Unix.waitpid [] dead);
          match Pax_core.Pax2.run cl_net q with
          | _ -> Alcotest.fail "run against a dead site must not succeed"
          | exception Cluster.Site_unreachable { site; attempts; _ } ->
              Alcotest.(check int) "the killed site" 1 site;
              Alcotest.(check int) "after the retry budget" 3 attempts))

(* The reconnect path: a server killed between runs and respawned at the
   same address with the same fragments.  The client finds its cached
   connection dead, drops it, reconnects and resends — the next run
   must answer exactly like the warm one. *)
let test_restarted_server () =
  with_timeout 60 (fun () ->
      let _, ft = make_setup () in
      with_servers ft ~n_sites:3 (fun cl_net _client pids addrs ->
          let q = Query.of_string "//person[profile/education]" in
          let warm = Pax_core.Pax2.run cl_net q in
          let dead = List.nth pids 1 in
          Unix.kill dead Sys.sigkill;
          ignore (Unix.waitpid [] dead);
          let pid =
            Server.spawn ~addr:addrs.(1) ~frags:(site_frags cl_net ft 1) ()
          in
          Fun.protect
            ~finally:(fun () ->
              (try Unix.kill pid Sys.sigkill with _ -> ());
              try ignore (Unix.waitpid [] pid) with _ -> ())
            (fun () ->
              let r = Pax_core.Pax2.run cl_net q in
              Alcotest.(check (list int))
                "answers after the restart" warm.Pax_core.Run_result.answer_ids
                r.Pax_core.Run_result.answer_ids;
              Alcotest.(check (array int))
                "visits after the restart"
                warm.Pax_core.Run_result.report.Cluster.visits
                r.Pax_core.Run_result.report.Cluster.visits)))

(* A server that was never started: connection refused from the very
   first attempt, same typed failure. *)
let test_refused_connection () =
  with_timeout 60 (fun () ->
      let _, ft = make_setup () in
      let cl = Pax_dist.Placement.cluster_round_robin ft ~n_sites:2 in
      let dir = Filename.get_temp_dir_name () in
      let addrs =
        [|
          Sockio.Unix_path (Filename.concat dir "pax_net_nobody_0.sock");
          Sockio.Unix_path (Filename.concat dir "pax_net_nobody_1.sock");
        |]
      in
      let client = Client.create ~timeout:5. ~addrs () in
      Cluster.set_transport cl (Some (Client.transport client));
      Cluster.set_retry cl
        {
          Pax_dist.Retry.max_attempts = 2;
          base_delay = 0.01;
          multiplier = 1.0;
          max_delay = 0.01;
        };
      let q = Query.of_string "//person" in
      match Pax_core.Pax3.run cl q with
      | _ -> Alcotest.fail "no servers: run must fail"
      | exception Cluster.Site_unreachable { attempts; _ } ->
          Alcotest.(check int) "budget spent" 2 attempts)

(* A site that answers [Stats_request] but never a visit.  Stats
   replies keep arriving on the connection every ~10 ms, yet the visit
   must still expire at the client's 0.3 s deadline and spend the retry
   budget: deadlines are checked whether or not frames arrive. *)
let test_busy_connection () =
  with_timeout 30 (fun () ->
      let _, ft = make_setup () in
      let cl = Pax_dist.Placement.cluster_round_robin ft ~n_sites:1 in
      let path =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "pax_net_busy_%d.sock" (Unix.getpid ()))
      in
      let addr = Sockio.Unix_path path in
      let lfd = Sockio.listen addr in
      let stop = Atomic.make false in
      let site fd =
        let rd = Sockio.reader fd in
        let rec loop () =
          match Sockio.read_frame rd with
          | None -> ()
          | Some payload ->
              (match Wire.decode_payload_corr payload with
              | Ok (corr, Wire.Stats_request) ->
                  Sockio.write_frame fd
                    (Wire.encode_payload ~corr (Wire.Stats_reply []))
              | _ -> ());
              loop ()
        in
        (try loop () with _ -> ());
        Unix.close fd
      in
      let acceptor =
        Thread.create
          (fun () ->
            while not (Atomic.get stop) do
              if Sockio.poll_readable lfd 0.05 then
                ignore (Thread.create site (fst (Unix.accept lfd)))
            done)
          ()
      in
      let client = Client.create ~timeout:0.3 ~addrs:[| addr |] () in
      (* Polls for at most 10 s, so a client that never expires the
         visit still ends the run (late) instead of hanging. *)
      let poller =
        Thread.create
          (fun () ->
            let until = Unix.gettimeofday () +. 10. in
            while (not (Atomic.get stop)) && Unix.gettimeofday () < until do
              (try ignore (Client.fetch_stats client 0)
               with Failure _ | Unix.Unix_error _ | Sockio.Timeout -> ());
              Thread.delay 0.01
            done)
          ()
      in
      Cluster.set_transport cl (Some (Client.transport client));
      Cluster.set_retry cl
        {
          Pax_dist.Retry.max_attempts = 2;
          base_delay = 0.01;
          multiplier = 1.0;
          max_delay = 0.01;
        };
      Fun.protect
        ~finally:(fun () ->
          Atomic.set stop true;
          Thread.join poller;
          Thread.join acceptor;
          Client.close client;
          Unix.close lfd;
          try Sys.remove path with _ -> ())
        (fun () ->
          let t0 = Unix.gettimeofday () in
          match Pax_core.Pax2.run cl (Query.of_string "//person") with
          | _ -> Alcotest.fail "a visit nobody answers cannot succeed"
          | exception Cluster.Site_unreachable { attempts; _ } ->
              Alcotest.(check int) "budget spent" 2 attempts;
              let took = Unix.gettimeofday () -. t0 in
              if took > 5. then
                Alcotest.failf "the visit expired after %.1f s, not ~0.3 s"
                  took))

(* ------------------------------------------------------------------ *)
(* The multiplexer: waiters read their own replies                    *)
(* ------------------------------------------------------------------ *)

(* Scripted sites: [serve site fd] runs on a thread of its own for each
   connection accepted at site [site]'s socket. *)
let with_scripted_sites n serve f =
  let dir = Filename.get_temp_dir_name () in
  let tag = Random.int 1_000_000 in
  let paths =
    Array.init n (fun i ->
        Filename.concat dir
          (Printf.sprintf "pax_net_mux_%d_%d_%d.sock" (Unix.getpid ()) tag i))
  in
  let addrs = Array.map (fun p -> Sockio.Unix_path p) paths in
  let lfds = Array.map Sockio.listen addrs in
  let stop = Atomic.make false in
  let acceptors =
    Array.mapi
      (fun site lfd ->
        Thread.create
          (fun () ->
            while not (Atomic.get stop) do
              if Sockio.poll_readable lfd 0.05 then begin
                let fd, _ = Unix.accept lfd in
                ignore
                  (Thread.create
                     (fun () ->
                       (try serve site fd with _ -> ());
                       try Unix.close fd with _ -> ())
                     ())
              end
            done)
          ())
      lfds
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Array.iter Thread.join acceptors;
      Array.iter Unix.close lfds;
      Array.iter (fun p -> try Sys.remove p with _ -> ()) paths)
    (fun () -> f addrs)

(* The next visit request on a scripted site's connection, skipping
   session control ([Run_done]); [None] at EOF. *)
let rec next_visit rd =
  match Sockio.read_frame rd with
  | None -> None
  | Some p -> (
      match Wire.decode_payload_corr p with
      | Ok ((_, Wire.Visit_request _) as v) -> Some v
      | _ -> next_visit rd)

let no_retry ~site ~attempt:_ ~reason =
  Alcotest.failf "site %d: unexpected delivery failure: %s" site reason

(* Two handles run rounds over the same two connections at once.  Each
   site holds a pair of requests and answers the later one first, a
   few ms apart, so whichever thread reads a socket reads the other
   round's reply before its own.  The reply's ops name the request's
   run, round and site: each round must get exactly its own replies. *)
let test_mux_interleaved () =
  with_timeout 60 (fun () ->
      let serve site fd =
        let rd = Sockio.reader fd in
        let reply (corr, msg) =
          match msg with
          | Wire.Visit_request { run; round; _ } ->
              Sockio.write_frame fd
                (Wire.encode_payload ~corr
                   (Wire.Visit_reply
                      {
                        run;
                        round;
                        reply =
                          Ok
                            (Wire.Final_answers
                               {
                                 answers = [];
                                 ops =
                                   ((run land 0xFFFFF) * 10_000) + (round * 10)
                                   + site;
                               });
                      }))
          | _ -> ()
        in
        let rec loop () =
          match next_visit rd with
          | None -> ()
          | Some a -> (
              match next_visit rd with
              | None -> ()
              | Some b ->
                  reply b;
                  Thread.delay 0.003;
                  reply a;
                  loop ())
        in
        loop ()
      in
      with_scripted_sites 2 serve (fun addrs ->
          let client = Client.create ~timeout:10. ~addrs () in
          let rounds = 20 in
          let drive () =
            let tr = Client.handle_transport (Client.handle client) in
            List.init rounds (fun round ->
                tr.Transport.visit_round ~round ~label:"r" ~retry:no_retry
                  [ (0, Wire.Ship { fids = [] }); (1, Wire.Ship { fids = [] }) ]
                |> List.map (fun (site, reply, _) ->
                       match reply with
                       | Wire.Final_answers { ops; _ } ->
                           Alcotest.(check int) "reply of this round and site"
                             ((round * 10) + site) (ops mod 10_000);
                           ops / 10_000
                       | _ -> Alcotest.fail "unexpected reply body"))
          in
          let other = ref [] in
          let th = Thread.create (fun () -> other := drive ()) () in
          let mine = drive () in
          Thread.join th;
          Client.close client;
          let runs l = List.sort_uniq compare (List.concat l) in
          Alcotest.(check int) "one run's replies in each round" 1
            (List.length (runs mine));
          Alcotest.(check int) "all the other's rounds came back" rounds
            (List.length !other);
          Alcotest.(check int) "one run's replies in the other's rounds" 1
            (List.length (runs !other));
          Alcotest.(check bool) "each round got its own run's replies" true
            (runs mine <> runs !other)))

(* The hand-off rule.  Handle A posts and starts reading the one
   connection; handle B posts 2 ms later and, finding the read turn
   taken, sleeps.  The site answers A at once and B 10 ms later.  When A
   has its reply it must hand the turn to B: if it did not, no one would
   read B's reply until B's 50 ms deadline poll. *)
let test_mux_hand_off () =
  with_timeout 60 (fun () ->
      let serve _site fd =
        let rd = Sockio.reader fd in
        let reply (corr, msg) =
          match msg with
          | Wire.Visit_request { run; round; _ } ->
              Sockio.write_frame fd
                (Wire.encode_payload ~corr
                   (Wire.Visit_reply
                      {
                        run;
                        round;
                        reply = Ok (Wire.Final_answers { answers = []; ops = 0 });
                      }))
          | _ -> ()
        in
        let rec loop () =
          match next_visit rd with
          | None -> ()
          | Some a -> (
              match next_visit rd with
              | None -> ()
              | Some b ->
                  reply a;
                  Thread.delay 0.01;
                  reply b;
                  loop ())
        in
        loop ()
      in
      with_scripted_sites 1 serve (fun addrs ->
          let client = Client.create ~timeout:10. ~addrs () in
          let rounds = 20 in
          (* Both start each round together, so A, done first, waits
             here instead of reading B's reply with its next round. *)
          let m = Mutex.create () and cv = Condition.create () in
          let arrived = ref 0 in
          let barrier round =
            Mutex.lock m;
            incr arrived;
            Condition.broadcast cv;
            while !arrived < 2 * (round + 1) do
              Condition.wait cv m
            done;
            Mutex.unlock m
          in
          let drive ~lag () =
            let tr = Client.handle_transport (Client.handle client) in
            for round = 0 to rounds - 1 do
              barrier round;
              if lag then Thread.delay 0.002;
              ignore
                (tr.Transport.visit_round ~round ~label:"r" ~retry:no_retry
                   [ (0, Wire.Ship { fids = [] }) ])
            done
          in
          let t0 = Unix.gettimeofday () in
          let b = Thread.create (drive ~lag:true) () in
          drive ~lag:false ();
          Thread.join b;
          let took = Unix.gettimeofday () -. t0 in
          Client.close client;
          (* About 12 ms a round with the hand-off, 52 ms without. *)
          if took > float_of_int rounds *. 0.04 then
            Alcotest.failf "%d rounds took %.2f s: the read turn was not handed on"
              rounds took))

(* A [Gen_event] pushed on a connection no one waits on still reaches
   the hook: the idle reader reads it. *)
let test_mux_idle_push () =
  with_timeout 30 (fun () ->
      let serve _site fd =
        let rd = Sockio.reader fd in
        let rec loop () =
          match Sockio.read_frame rd with
          | None -> ()
          | Some p ->
              (match Wire.decode_payload_corr p with
              | Ok (corr, Wire.Stats_request) ->
                  Sockio.write_frame fd
                    (Wire.encode_payload ~corr (Wire.Stats_reply []));
                  Thread.delay 0.1;
                  Sockio.write_frame fd
                    (Wire.encode_payload
                       (Wire.Gen_event
                          { kind = Wire.Tree_frag; gens = [ (3, 7) ] }))
              | _ -> ());
              loop ()
        in
        loop ()
      in
      with_scripted_sites 1 serve (fun addrs ->
          let client = Client.create ~timeout:10. ~addrs () in
          let got = Atomic.make None in
          Client.on_gen_event client (fun _ gens -> Atomic.set got (Some gens));
          Alcotest.(check (list (pair string (float 0.)))) "stats" []
            (Client.fetch_stats client 0);
          let until = Unix.gettimeofday () +. 5. in
          while Atomic.get got = None && Unix.gettimeofday () < until do
            Thread.delay 0.01
          done;
          Client.close client;
          Alcotest.(check (option (list (pair int int))))
            "the push reached the hook" (Some [ (3, 7) ]) (Atomic.get got)))

(* Each query in [queries] run [per_thread] times by each of [threads]
   threads, each run on a handle of its own over [client]; checks the
   answers against the in-process run.  Returns the rounds run. *)
let concurrent_runs ~threads ~per_thread ft client ~n_sites =
  let cl_ctrl = Pax_dist.Placement.cluster_round_robin ft ~n_sites in
  let expected =
    List.map
      (fun qs ->
        (qs, (Pax_core.Pax2.run cl_ctrl (Query.of_string qs)).Pax_core.Run_result.answer_ids))
      queries
  in
  let rounds = Atomic.make 0 in
  let worker i () =
    let cl = Pax_dist.Placement.cluster_round_robin ft ~n_sites in
    for k = 0 to per_thread - 1 do
      let qs, answers = List.nth expected ((i + k) mod List.length expected) in
      let h = Client.handle client in
      Cluster.set_transport cl (Some (Client.handle_transport h));
      let r = Pax_core.Pax2.run cl (Query.of_string qs) in
      Client.finish_run h;
      if r.Pax_core.Run_result.answer_ids <> answers then
        Alcotest.failf "%s: answers differ from the in-process run" qs;
      ignore
        (Atomic.fetch_and_add rounds
           (List.length r.Pax_core.Run_result.report.Cluster.rounds))
    done
  in
  let ths = List.init threads (fun i -> Thread.create (worker i) ()) in
  List.iter Thread.join ths;
  Atomic.get rounds

(* Concurrent handles run many rounds against real servers with no
   service delay.  A reply left unread while its waiter sleeps waits for
   the 50 ms deadline poll, so lost hand-offs would show as a run time
   near rounds x 50 ms; the whole load must take a small part of it. *)
let test_mux_no_stall () =
  with_timeout 120 (fun () ->
      let _, ft = make_setup () in
      let n_sites = 3 in
      with_servers ft ~n_sites (fun _cl client _pids _addrs ->
          let t0 = Unix.gettimeofday () in
          let rounds = concurrent_runs ~threads:4 ~per_thread:30 ft client ~n_sites in
          let took = Unix.gettimeofday () -. t0 in
          if took > float_of_int rounds *. 0.05 /. 5. then
            Alcotest.failf "%d rounds took %.2f s: rounds wait for the poll"
              rounds took))

(* Deferred [Run_done] still sheds each finished run's state: under a
   stream of concurrent runs a site holds about as many run states as
   there are runs in flight, far from its LRU cap; and once the stream
   stops, the frames still queued on the idle connections reach their
   servers, which then hold none. *)
let test_mux_run_done () =
  with_timeout 120 (fun () ->
      let _, ft = make_setup () in
      let n_sites = 3 in
      let cl = Pax_dist.Placement.cluster_round_robin ft ~n_sites in
      let dir = Filename.get_temp_dir_name () in
      let tag = Random.int 1_000_000 in
      let servers =
        Array.init n_sites (fun site ->
            let path =
              Filename.concat dir
                (Printf.sprintf "pax_net_done_%d_%d_%d.sock" (Unix.getpid ())
                   tag site)
            in
            let addr = Sockio.Unix_path path in
            let lfd = Sockio.listen addr in
            let srv = Server.create ~frags:(site_frags cl ft site) () in
            (path, addr, lfd, srv, Thread.create (fun () -> Server.serve srv lfd) ()))
      in
      let client =
        Client.create ~timeout:20.
          ~addrs:(Array.map (fun (_, a, _, _, _) -> a) servers)
          ()
      in
      let states () =
        Array.fold_left
          (fun m (_, _, _, srv, _) -> max m (Server.n_run_states srv))
          0 servers
      in
      Fun.protect
        ~finally:(fun () ->
          Client.shutdown_sites client;
          Array.iter
            (fun (path, _, lfd, _, th) ->
              Thread.join th;
              Unix.close lfd;
              try Sys.remove path with _ -> ())
            servers)
        (fun () ->
          let threads = 2 in
          let peak = ref 0 and stop = Atomic.make false in
          let sampler =
            Thread.create
              (fun () ->
                while not (Atomic.get stop) do
                  peak := max !peak (states ());
                  Thread.delay 0.0005
                done)
              ()
          in
          ignore (concurrent_runs ~threads ~per_thread:40 ft client ~n_sites);
          Atomic.set stop true;
          Thread.join sampler;
          if !peak > (2 * threads) + 2 then
            Alcotest.failf "a site held %d run states with %d runs in flight"
              !peak threads;
          let until = Unix.gettimeofday () +. 5. in
          while states () > 0 && Unix.gettimeofday () < until do
            Thread.delay 0.01
          done;
          Alcotest.(check int) "idle connections' Run_done reached their sites"
            0 (states ())))

let () =
  Random.self_init ();
  Alcotest.run "net"
    [
      ( "wire",
        [
          Alcotest.test_case "round trips" `Quick test_roundtrip;
          Alcotest.test_case "image round trips" `Quick test_image_roundtrip;
          Alcotest.test_case "tally of call lists and images" `Quick
            test_tally_frames;
          Alcotest.test_case "nested call lists are corrupt" `Quick
            test_nested_calls;
          Alcotest.test_case "correlation ids" `Quick test_corr_roundtrip;
          Alcotest.test_case "decode is total" `Quick test_decode_total;
          Alcotest.test_case "decode errors" `Quick test_decode_errors;
          Alcotest.test_case "sections = Measure" `Quick
            test_sections_measured;
          QCheck_alcotest.to_alcotest prop_section_sizes;
          QCheck_alcotest.to_alcotest prop_random_msgs;
          QCheck_alcotest.to_alcotest prop_slices;
          QCheck_alcotest.to_alcotest prop_msg_sizes;
          Alcotest.test_case "frame path allocation" `Quick test_frame_words;
          Alcotest.test_case "byte pins" `Quick test_byte_pins;
          Alcotest.test_case "addresses" `Quick test_addr_parse;
          Alcotest.test_case "an edit frame is small" `Quick
            test_edit_frame_size;
        ] );
      ( "framing",
        [
          QCheck_alcotest.to_alcotest prop_framing;
          Alcotest.test_case "reader edges" `Quick test_framing_edges;
        ] );
      ( "differential",
        [
          Alcotest.test_case "pax2 over sockets" `Quick
            (check_differential "pax2" (fun cl q -> Pax_core.Pax2.run cl q));
          Alcotest.test_case "pax3 over sockets" `Quick
            (check_differential "pax3" (fun cl q -> Pax_core.Pax3.run cl q));
          Alcotest.test_case "annotated engines" `Quick
            check_differential_annotated;
          Alcotest.test_case "pruned qualifier" `Quick test_pruned_qualifier;
          Alcotest.test_case "every engine over sockets" `Quick
            test_every_engine;
          Alcotest.test_case "count over sockets" `Quick
            test_count_over_sockets;
          Alcotest.test_case "cached pax2 over sockets" `Quick
            test_pax2_cached_over_sockets;
          Alcotest.test_case "one delivery per lost reply" `Quick
            test_lost_reply_deliveries;
        ] );
      ( "failures",
        [
          Alcotest.test_case "killed server" `Quick test_killed_server;
          Alcotest.test_case "restarted server" `Quick test_restarted_server;
          Alcotest.test_case "refused connection" `Quick
            test_refused_connection;
          Alcotest.test_case "busy connection" `Quick test_busy_connection;
        ] );
      ( "mux",
        [
          Alcotest.test_case "interleaved rounds, replies out of order" `Quick
            test_mux_interleaved;
          Alcotest.test_case "the read turn is handed on" `Quick
            test_mux_hand_off;
          Alcotest.test_case "a push with no waiter reaches the hook" `Quick
            test_mux_idle_push;
          Alcotest.test_case "no stalls under concurrent rounds" `Quick
            test_mux_no_stall;
          Alcotest.test_case "deferred Run_done bounds run states" `Quick
            test_mux_run_done;
        ] );
    ]
