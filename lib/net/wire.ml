module Codec = Pax_bool.Codec
module Formula = Pax_bool.Formula
module Flat = Pax_xml.Flat
module Span = Pax_obs.Span
module Tree = Pax_xml.Tree

let version = 2

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
  | Resolution of Pax_bool.Bits.t
  | Answers of answer list
  | Tree_data of string
  | Frag_flat of Pax_xml.Flat.t

type frag_eval = {
  fe_fid : int;
  fe_is_root : bool;
  fe_init : Formula.t array option;
}

type sub_resolution = (int * Pax_bool.Bits.t) list

type call =
  | Pax2_stage1 of { query : string; frags : frag_eval list }
  | Pax2_stage2 of { frags : (int * Pax_bool.Bits.t * sub_resolution) list }
  | Pax3_stage1 of { query : string; fids : int list }
  | Pax3_stage2 of { query : string; frags : (frag_eval * sub_resolution) list }
  | Pax3_stage3 of { frags : (int * Pax_bool.Bits.t) list }
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

let is_stale_epoch m = String.starts_with ~prefix:stale_epoch_prefix m

type version = int * int

type frag_change =
  | Edit of { base : version; edit : Flat.edit }
  | Image of string

let stale_base_prefix = "stale-base:"

let stale_base_error ~fid ~held ~base =
  let show = function
    | None -> "no version"
    | Some (g, w) -> Printf.sprintf "version (%d, %d)" g w
  in
  Printf.sprintf "%s fragment %d holds %s, the edit needs %s"
    stale_base_prefix fid (show held) (show (Some base))

let is_stale_base m = String.starts_with ~prefix:stale_base_prefix m

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
  | Frag_update of {
      fid : int;
      epoch : int;
      version : version;
      change : frag_change;
      parent : int option;
    }

type error = Bad_version of int | Corrupt of string

let pp_error ppf = function
  | Bad_version v -> Format.fprintf ppf "unsupported protocol version %d" v
  | Corrupt msg -> Format.fprintf ppf "corrupt frame: %s" msg

(* ------------------------------------------------------------------ *)
(* codecs: one description per shipped type                           *)
(* ------------------------------------------------------------------ *)

open Codec

let bit b set = if set then b else 0

(* Answer lists are most of a read's reply bytes: a count, then per
   answer its id, tag, optional text and attributes, by one tight loop. *)
let answer_list =
  element_list
    ~id:(fun a -> a.a_id)
    ~tag:(fun a -> a.a_tag)
    ~text:(fun a -> a.a_text)
    ~attrs:(fun a -> a.a_attrs)
    (fun a_id a_tag a_text a_attrs -> { a_id; a_tag; a_text; a_attrs })

(* Flat's column image keeps its own format and size function (pax_xml
   cannot see pax_bool); its section carries it as the rest of the
   section's bounds. *)
let flat =
  {
    size = Flat.encoded_bytes;
    write = (fun w fl -> rest.write w (Flat.encode fl));
    read =
      (fun r ->
        match Flat.decode (rest.read r) with
        | Some fl -> fl
        | None -> fail r "bad flat-fragment payload");
  }

(* A section is a kind byte, then its payload under a u24 length:
   exactly 4 + payload bytes. *)
let k_query =
  case 1 (sized rest) (fun q -> Query q) (function
    | Query q -> q
    | _ -> assert false)

let k_vectors =
  case 2 (sized formulas) (fun fs -> Vectors fs) (function
    | Vectors fs -> fs
    | _ -> assert false)

let k_resolution =
  case 3 (sized bools) (fun bs -> Resolution bs) (function
    | Resolution bs -> bs
    | _ -> assert false)

let k_answers =
  case 4 (sized answer_list) (fun a -> Answers a) (function
    | Answers a -> a
    | _ -> assert false)

let k_tree =
  case 5 (sized rest) (fun xml -> Tree_data xml) (function
    | Tree_data xml -> xml
    | _ -> assert false)

let k_flat =
  case 6 (sized flat) (fun fl -> Frag_flat fl) (function
    | Frag_flat fl -> fl
    | _ -> assert false)

let section =
  union "section kind"
    [
      Case k_query; Case k_vectors; Case k_resolution; Case k_answers;
      Case k_tree; Case k_flat;
    ]
    (function
      | Query _ -> Case k_query
      | Vectors _ -> Case k_vectors
      | Resolution _ -> Case k_resolution
      | Answers _ -> Case k_answers
      | Tree_data _ -> Case k_tree
      | Frag_flat _ -> Case k_flat)

let section_bytes = size section

(* Where a call or reply holds one kind of section, any other is
   corrupt.  Every section a call or reply holds, and every fragment
   entry, goes through a counter, so encoding or decoding a frame
   tallies it in the same pass ({!tally}). *)
let section_counter = 0
let entry_counter = 1
let counted_section what k = counted section_counter (expect what k)
let entry c = counted entry_counter c
let query = counted_section "a query section" k_query
let vectors = counted_section "a vectors section" k_vectors
let resolution = counted_section "a resolution section" k_resolution
let answers = counted_section "an answers section" k_answers
let flat_section = counted_section "a flat-fragment section" k_flat

(* ------------------------------------------------------------------ *)
(* calls                                                              *)
(* ------------------------------------------------------------------ *)

let fids = list (entry varint)
let subs = list (pair varint resolution)

(* The fragment id, then a flags byte: bit 1 the root flag, bit 2 an
   initial vector that follows. *)
let frag_eval =
  record4
    (field (fun fe -> fe.fe_fid) varint)
    (field
       (fun fe -> bit 1 fe.fe_is_root lor bit 2 (Option.is_some fe.fe_init))
       (flags "frag-eval flags" ~bits:2))
    (field (fun fe -> fe.fe_is_root) (flag 1))
    (field (fun fe -> fe.fe_init) (if_flag 2 vectors))
    (fun fe_fid _ fe_is_root fe_init -> { fe_fid; fe_is_root; fe_init })

let c_pax2_stage1 =
  case 1
    (pair query (list (entry frag_eval)))
    (fun (query, frags) -> Pax2_stage1 { query; frags })
    (function
      | Pax2_stage1 { query; frags } -> (query, frags) | _ -> assert false)

let c_pax2_stage2 =
  case 2
    (list (entry (triple varint resolution subs)))
    (fun frags -> Pax2_stage2 { frags })
    (function Pax2_stage2 { frags } -> frags | _ -> assert false)

let c_pax3_stage1 =
  case 3 (pair query fids)
    (fun (query, fids) -> Pax3_stage1 { query; fids })
    (function Pax3_stage1 { query; fids } -> (query, fids) | _ -> assert false)

let c_pax3_stage2 =
  case 4
    (pair query (list (entry (pair frag_eval subs))))
    (fun (query, frags) -> Pax3_stage2 { query; frags })
    (function
      | Pax3_stage2 { query; frags } -> (query, frags) | _ -> assert false)

let c_pax3_stage3 =
  case 5
    (list (entry (pair varint resolution)))
    (fun frags -> Pax3_stage3 { frags })
    (function Pax3_stage3 { frags } -> frags | _ -> assert false)

let c_reach_stage1 =
  case 6 (pair query fids)
    (fun (query, fids) -> Reach_stage1 { query; fids })
    (function
      | Reach_stage1 { query; fids } -> (query, fids) | _ -> assert false)

let c_ship =
  case 8 fids
    (fun fids -> Ship { fids })
    (function Ship { fids } -> fids | _ -> assert false)

let plain_calls =
  [
    Case c_pax2_stage1; Case c_pax2_stage2; Case c_pax3_stage1;
    Case c_pax3_stage2; Case c_pax3_stage3; Case c_reach_stage1; Case c_ship;
  ]

let plain_call_case = function
  | Pax2_stage1 _ -> Case c_pax2_stage1
  | Pax2_stage2 _ -> Case c_pax2_stage2
  | Pax3_stage1 _ -> Case c_pax3_stage1
  | Pax3_stage2 _ -> Case c_pax3_stage2
  | Pax3_stage3 _ -> Case c_pax3_stage3
  | Reach_stage1 _ -> Case c_reach_stage1
  | Ship _ -> Case c_ship
  | Calls _ | Count _ -> invalid_arg "Wire: a call wrapper inside a wrapper"

(* [Calls] and [Count] wrap plain calls only, so no frame nests
   wrappers and a hostile one cannot make the decoder recurse. *)
let plain_call = union "wrapped call tag" plain_calls plain_call_case

let c_calls =
  case 7 (list plain_call)
    (fun calls -> Calls calls)
    (function Calls calls -> calls | _ -> assert false)

let c_count =
  case 9 plain_call
    (fun call -> Count call)
    (function Count call -> call | _ -> assert false)

let call =
  union "call tag"
    (Case c_calls :: Case c_count :: plain_calls)
    (function
      | Calls _ -> Case c_calls
      | Count _ -> Case c_count
      | call -> plain_call_case call)

(* ------------------------------------------------------------------ *)
(* replies                                                            *)
(* ------------------------------------------------------------------ *)

(* The fragment id, then a flags byte: bit 1 a root vector that
   follows, bit 2 an answers section after the context vectors. *)
let frag_result =
  record7
    (field (fun fr -> fr.fr_fid) varint)
    (field
       (fun fr -> bit 1 (Option.is_some fr.fr_vec) lor bit 2 (fr.fr_answers <> []))
       (flags "frag-result flags" ~bits:2))
    (field (fun fr -> fr.fr_vec) (if_flag 1 vectors))
    (field (fun fr -> fr.fr_ctxs) (list (pair varint vectors)))
    (field (fun fr -> fr.fr_answers) (nonempty 2 answers))
    (field (fun fr -> fr.fr_cands) varint)
    (field (fun fr -> fr.fr_ops) varint)
    (fun fr_fid _ fr_vec fr_ctxs fr_answers fr_cands fr_ops ->
      { fr_fid; fr_vec; fr_ctxs; fr_answers; fr_cands; fr_ops })

let r_frag_results =
  case 1
    (list (entry frag_result))
    (fun frs -> Frag_results frs)
    (function Frag_results frs -> frs | _ -> assert false)

(* A flags byte, 1 when an answers section follows, then the ops. *)
let r_final =
  case 2
    (pair
       (record2
          (field (fun answers -> bit 1 (answers <> []))
             (flags "final-answers flag" ~bits:1))
          (field Fun.id (nonempty 1 answers))
          (fun _ answers -> answers))
       varint)
    (fun (answers, ops) -> Final_answers { answers; ops })
    (function
      | Final_answers { answers; ops } -> (answers, ops) | _ -> assert false)

let r_images =
  case 4
    (list (entry (pair varint flat_section)))
    (fun images -> Images images)
    (function Images images -> images | _ -> assert false)

let plain_replies = [ Case r_frag_results; Case r_final; Case r_images ]

let plain_reply_case = function
  | Frag_results _ -> Case r_frag_results
  | Final_answers _ -> Case r_final
  | Images _ -> Case r_images
  | Replies _ | Counted _ -> invalid_arg "Wire: a reply wrapper inside a wrapper"

let plain_reply = union "wrapped reply tag" plain_replies plain_reply_case

let r_replies =
  case 3 (list plain_reply)
    (fun replies -> Replies replies)
    (function Replies replies -> replies | _ -> assert false)

let r_counted =
  case 5
    (pair plain_reply (list varint))
    (fun (reply, counts) -> Counted { reply; counts })
    (function Counted { reply; counts } -> (reply, counts) | _ -> assert false)

let reply =
  union "reply tag"
    (Case r_replies :: Case r_counted :: plain_replies)
    (function
      | Replies _ -> Case r_replies
      | Counted _ -> Case r_counted
      | reply -> plain_reply_case reply)

(* ------------------------------------------------------------------ *)
(* messages                                                           *)
(* ------------------------------------------------------------------ *)

(* Fragment images are opaque byte strings at this layer: tree images
   are {!Pax_xml.Flat.encode} output (total-decoding, intern-remapping
   at the receiver), graph images are [Gfrag.encode] output.  pax_wire
   cannot depend on pax_graph, so validation happens at install time,
   not decode time. *)
let kind =
  let tree = case 1 unit (fun () -> Tree_frag) (fun _ -> ())
  and graph = case 2 unit (fun () -> Graph_frag) (fun _ -> ()) in
  union "fragment kind" [ Case tree; Case graph ] (function
    | Tree_frag -> Case tree
    | Graph_frag -> Case graph)

let frag_image =
  record2
    (field (fun i -> i.fi_kind) kind)
    (field (fun i -> i.fi_bytes) string)
    (fun fi_kind fi_bytes -> { fi_kind; fi_bytes })

(* Harvested spans (Spans_reply).  Pure telemetry like stats traffic —
   no sections, excluded from accounted traffic — but the clock
   readings must survive byte-exactly for offset alignment, hence
   IEEE-754 bits like metric values. *)
let span =
  map
    (fun ( (sp_name, sp_cat, sp_track),
           ((sp_begin, sp_dur), (sp_seq, sp_id, sp_parent), sp_args) ) ->
      {
        Span.sp_name;
        sp_cat;
        sp_track;
        sp_begin;
        sp_dur;
        sp_args;
        sp_seq;
        sp_id;
        sp_parent;
      })
    (fun (sp : Span.span) ->
      ( (sp.sp_name, sp.sp_cat, sp.sp_track),
        ( (sp.sp_begin, sp.sp_dur),
          (sp.sp_seq, sp.sp_id, sp.sp_parent),
          sp.sp_args ) ))
    (pair
       (triple string string string)
       (triple
          (pair
             (guard "bad span begin" (fun b -> not (Float.is_nan b)) float)
             (guard "bad span duration" (fun d -> d >= 0.) float))
          (triple varint varint (option varint))
          (list (pair string string))))

(* Generation vectors: (fid, generation) pairs; receivers max-merge, so
   replay and reordering are harmless (docs/SERVING.md). *)
let gens = list (pair varint varint)

(* The optional trace-context extension: a single trailing varint (the
   coordinator-side parent span id) appended to the body of visit,
   migration and publish requests when the sender is tracing.  Absent
   when tracing is off — those frames are byte-identical to
   pre-extension builds — and decoders accept both forms, so the
   extension is a pure control-plane add-on: it never enters [tally],
   only the per-frame overhead allowance. *)
let parent = trailing varint

let m_request =
  case 1
    (triple (triple varint varint varint) (triple varint string call) parent)
    (fun ((run, round, site), (epoch, label, call), parent) ->
      Visit_request { run; round; site; epoch; label; call; parent })
    (function
      | Visit_request { run; round; site; epoch; label; call; parent } ->
          ((run, round, site), (epoch, label, call), parent)
      | _ -> assert false)

(* An error reply's text runs to the end of the frame. *)
let m_reply =
  case 2
    (triple varint varint (result reply rest))
    (fun (run, round, reply) -> Visit_reply { run; round; reply })
    (function
      | Visit_reply { run; round; reply } -> (run, round, reply)
      | _ -> assert false)

let bare tag m = case tag unit (fun () -> m) (fun _ -> ())
let m_ping = bare 3 Ping
let m_pong = bare 4 Pong
let m_shutdown = bare 5 Shutdown
let m_stats_request = bare 6 Stats_request

(* Metric values travel as IEEE-754 bits, so counters compare with [=]
   across the wire. *)
let m_stats_reply =
  case 7
    (list (pair string float))
    (fun pairs -> Stats_reply pairs)
    (function Stats_reply pairs -> pairs | _ -> assert false)

let m_run_done =
  case 8 varint
    (fun run -> Run_done { run })
    (function Run_done { run } -> run | _ -> assert false)

let m_frag_fetch =
  case 9 (triple varint kind parent)
    (fun (fid, kind, parent) -> Frag_fetch { fid; kind; parent })
    (function
      | Frag_fetch { fid; kind; parent } -> (fid, kind, parent)
      | _ -> assert false)

let m_frag_image =
  case 10
    (pair varint (result frag_image rest))
    (fun (fid, image) -> Frag_image { fid; image })
    (function Frag_image { fid; image } -> (fid, image) | _ -> assert false)

let m_frag_install =
  case 11
    (pair (triple varint varint frag_image) parent)
    (fun ((fid, epoch, image), parent) ->
      Frag_install { fid; epoch; image; parent })
    (function
      | Frag_install { fid; epoch; image; parent } ->
          ((fid, epoch, image), parent)
      | _ -> assert false)

let m_frag_retire =
  case 12
    (pair (triple varint varint kind) parent)
    (fun ((fid, epoch, kind), parent) ->
      Frag_retire { fid; epoch; kind; parent })
    (function
      | Frag_retire { fid; epoch; kind; parent } -> ((fid, epoch, kind), parent)
      | _ -> assert false)

let m_admin_reply =
  case 13 (result rest rest)
    (fun reply -> Admin_reply { reply })
    (function Admin_reply { reply } -> reply | _ -> assert false)

let m_spans_fetch = bare 14 Spans_fetch

let m_spans_reply =
  case 15
    (pair float (list span))
    (fun (server_now, spans) -> Spans_reply { server_now; spans })
    (function
      | Spans_reply { server_now; spans } -> (server_now, spans)
      | _ -> assert false)

let m_gen_publish =
  case 16 (triple kind gens parent)
    (fun (kind, gens, parent) -> Gen_publish { kind; gens; parent })
    (function
      | Gen_publish { kind; gens; parent } -> (kind, gens, parent)
      | _ -> assert false)

let m_gen_event =
  case 17 (pair kind gens)
    (fun (kind, gens) -> Gen_event { kind; gens })
    (function Gen_event { kind; gens } -> (kind, gens) | _ -> assert false)

let m_gen_fetch =
  case 18 (pair kind parent)
    (fun (kind, parent) -> Gen_fetch { kind; parent })
    (function Gen_fetch { kind; parent } -> (kind, parent) | _ -> assert false)

let m_gen_reply =
  case 19 (pair kind gens)
    (fun (kind, gens) -> Gen_reply { kind; gens })
    (function Gen_reply { kind; gens } -> (kind, gens) | _ -> assert false)

(* An update pushed to the site holding the fragment: the edit, named
   against the version it patches, or the whole image.  An inserted
   subtree travels as its flat image, under a u24 length. *)
let frag_version = pair varint varint

let edit =
  let set_text =
    case 1
      (pair varint (option string))
      (fun (id, text) -> Flat.Set_text (id, text))
      (function Flat.Set_text (id, text) -> (id, text) | _ -> assert false)
  and insert =
    case 2
      (pair varint (sized flat))
      (fun (id, sub) -> Flat.Insert (id, sub))
      (function Flat.Insert (id, sub) -> (id, sub) | _ -> assert false)
  and delete =
    case 3 varint
      (fun id -> Flat.Delete id)
      (function Flat.Delete id -> id | _ -> assert false)
  in
  union "edit kind" [ Case set_text; Case insert; Case delete ] (function
    | Flat.Set_text _ -> Case set_text
    | Flat.Insert _ -> Case insert
    | Flat.Delete _ -> Case delete)

let change =
  let edit =
    case 1 (pair frag_version edit)
      (fun (base, edit) -> Edit { base; edit })
      (function Edit { base; edit } -> (base, edit) | _ -> assert false)
  and image =
    case 2 string
      (fun bytes -> Image bytes)
      (function Image bytes -> bytes | _ -> assert false)
  in
  union "fragment change" [ Case edit; Case image ] (function
    | Edit _ -> Case edit
    | Image _ -> Case image)

let m_frag_update =
  case 20
    (pair (triple varint varint frag_version) (pair change parent))
    (fun ((fid, epoch, version), (change, parent)) ->
      Frag_update { fid; epoch; version; change; parent })
    (function
      | Frag_update { fid; epoch; version; change; parent } ->
          ((fid, epoch, version), (change, parent))
      | _ -> assert false)

let msg =
  union "message tag"
    [
      Case m_request; Case m_reply; Case m_ping; Case m_pong; Case m_shutdown;
      Case m_stats_request; Case m_stats_reply; Case m_run_done;
      Case m_frag_fetch; Case m_frag_image; Case m_frag_install;
      Case m_frag_retire; Case m_admin_reply; Case m_spans_fetch;
      Case m_spans_reply; Case m_gen_publish; Case m_gen_event;
      Case m_gen_fetch; Case m_gen_reply; Case m_frag_update;
    ]
    (function
      | Visit_request _ -> Case m_request
      | Visit_reply _ -> Case m_reply
      | Ping -> Case m_ping
      | Pong -> Case m_pong
      | Shutdown -> Case m_shutdown
      | Stats_request -> Case m_stats_request
      | Stats_reply _ -> Case m_stats_reply
      | Run_done _ -> Case m_run_done
      | Frag_fetch _ -> Case m_frag_fetch
      | Frag_image _ -> Case m_frag_image
      | Frag_install _ -> Case m_frag_install
      | Frag_retire _ -> Case m_frag_retire
      | Admin_reply _ -> Case m_admin_reply
      | Spans_fetch -> Case m_spans_fetch
      | Spans_reply _ -> Case m_spans_reply
      | Gen_publish _ -> Case m_gen_publish
      | Gen_event _ -> Case m_gen_event
      | Gen_fetch _ -> Case m_gen_fetch
      | Gen_reply _ -> Case m_gen_reply
      | Frag_update _ -> Case m_frag_update)

(* The v2 envelope carries a correlation id right after the version
   byte, on every message: the coordinator stamps each request with a
   fresh id and the server echoes it back, so many in-flight runs can
   share one socket and the client can demultiplex replies without
   inspecting bodies.  [corr] is envelope, not a section: it never
   enters [tally], only the per-frame framing-overhead allowance
   ({!frame_overhead}).  0 means "uncorrelated" (pings, shutdowns,
   unsolicited frames). *)
let envelope = triple u8 varint msg

(* ------------------------------------------------------------------ *)
(* accounting                                                         *)
(* ------------------------------------------------------------------ *)

type tally = { sections : int; section_bytes : int; frag_entries : int }

(* Only visit calls and replies hold counted sections and entries.
   Session control (Run_done), telemetry (stats, spans), migration,
   updates and the generation feed carry none: they belong to no run,
   so they never enter per-query guarantee accounting, and an error
   reply carries none either.  Their frames still cross the wire,
   covered by the per-frame overhead allowance. *)
let tally_of counts =
  {
    sections = counts.(2 * section_counter);
    section_bytes = counts.((2 * section_counter) + 1);
    frag_entries = counts.(2 * entry_counter);
  }

let encode_payload ?(corr = 0) m = to_string envelope (version, corr, m)

(* A frame is the payload under a u32 length, which is filled in place
   once the payload is written. *)
let frame = framed envelope

let encode_frame w ?(corr = 0) m =
  append w frame (version, corr, m);
  tally_of (counts w)

let tally m = encode_frame (writer ()) m

let decode_slice b off len =
  if len > 0 && Bytes.get_uint8 b off <> version then
    Error (Bad_version (Bytes.get_uint8 b off))
  else
    match of_slice_counted envelope b off len with
    | (_, corr, m), counts -> Ok (corr, m, tally_of counts)
    | exception Decode_error { pos; reason } ->
        Error (Corrupt (Printf.sprintf "%s at byte %d" reason pos))

let decode_payload_corr s =
  match decode_slice (Bytes.unsafe_of_string s) 0 (String.length s) with
  | Ok (corr, m, _) -> Ok (corr, m)
  | Error e -> Error e

(* [lbl "QV" 3] is "QV(F3)". *)
let lbl name fid = name ^ "(F" ^ string_of_int fid ^ ")"

let walk_init ~sec fe =
  Option.iter (fun init -> sec (lbl "init" fe.fe_fid) (Vectors init)) fe.fe_init

let walk_subs ~sec subs =
  List.iter (fun (sub, bs) -> sec (lbl "QV*" sub) (Resolution bs)) subs

(* The one walk over a call's or reply's sections, in wire order, with
   the label accounting gives each. *)
let rec call_sections sec = function
  | Pax2_stage1 { query; frags } ->
      sec "Q" (Query query);
      List.iter (walk_init ~sec) frags
  | Pax2_stage2 { frags } ->
      List.iter
        (fun (fid, ctx, subs) ->
          sec (lbl "SV*" fid) (Resolution ctx);
          walk_subs ~sec subs)
        frags
  | Pax3_stage1 { query; fids = _ } | Reach_stage1 { query; fids = _ } ->
      sec "Q" (Query query)
  | Pax3_stage2 { query; frags } ->
      sec "Q" (Query query);
      List.iter
        (fun (fe, subs) ->
          walk_init ~sec fe;
          walk_subs ~sec subs)
        frags
  | Pax3_stage3 { frags } ->
      List.iter (fun (fid, ctx) -> sec (lbl "SV*" fid) (Resolution ctx)) frags
  | Calls calls -> List.iter (call_sections sec) calls
  | Count call -> call_sections sec call
  | Ship { fids = _ } -> ()

let rec reply_sections sec = function
  | Frag_results frs ->
      List.iter
        (fun fr ->
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
  | Replies replies -> List.iter (reply_sections sec) replies
  | Counted { reply; counts = _ } -> reply_sections sec reply
  | Images images ->
      List.iter
        (fun (fid, fl) -> sec ("F" ^ string_of_int fid) (Frag_flat fl))
        images

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
