type visit_fate = Visit_ok | Lost_request | Lost_reply | Down

type msg_ctx = {
  m_src : Trace.endpoint;
  m_dst : Trace.endpoint;
  m_kind : Trace.msg_kind;
  m_label : string;
  m_round : int;
  m_attempt : int;
}

type action = Deliver | Drop | Duplicate | Delay of float

type t = {
  message : msg_ctx -> action;
  visit : site:int -> round:int -> attempt:int -> visit_fate;
}

let none =
  {
    message = (fun _ -> Deliver);
    visit = (fun ~site:_ ~round:_ ~attempt:_ -> Visit_ok);
  }

let on_message t ctx = t.message ctx
let on_visit t ~site ~round ~attempt = t.visit ~site ~round ~attempt

let make ?message ?visit () =
  {
    message = Option.value ~default:none.message message;
    visit = Option.value ~default:none.visit visit;
  }

(* A decision in [0, 1) from the seed and a context tuple.  Hashtbl.hash
   is deterministic for these immediate/string tuples, which is all the
   replayability we need. *)
let roll seed salt ctx =
  let h = Hashtbl.hash (seed, salt, ctx) in
  float_of_int (h land 0xfffff) /. 1048576.

let seeded ?(drop = 0.) ?(dup = 0.) ?(delay = 0.) ?(lose = 0.) ?(crash = 0.)
    ~seed () =
  let message ctx =
    let c = (ctx.m_kind, ctx.m_label, ctx.m_src, ctx.m_dst, ctx.m_round,
             ctx.m_attempt) in
    if roll seed "msg-drop" c < drop then Drop
    else if roll seed "msg-dup" c < dup then Duplicate
    else if roll seed "msg-delay" c < delay then
      Delay (0.0001 +. (0.002 *. roll seed "msg-delay-len" c))
    else Deliver
  in
  let visit ~site ~round ~attempt =
    (* Crashes are decided per (site, round) and last one or two
       attempts, so every crashed site restarts within the default
       retry budget. *)
    let crashed = roll seed "crash" (site, round) < crash in
    let down_for = 1 + (Hashtbl.hash (seed, "crash-len", site, round) land 1) in
    if crashed && attempt <= down_for then Down
    else if roll seed "visit-req" (site, round, attempt) < lose then
      Lost_request
    else if roll seed "visit-rep" (site, round, attempt) < lose then Lost_reply
    else Visit_ok
  in
  { message; visit }

let drop_message ?(times = 1) pred =
  make
    ~message:(fun ctx ->
      if ctx.m_attempt <= times && pred ctx then Drop else Deliver)
    ()

let duplicate_message pred =
  make
    ~message:(fun ctx ->
      if ctx.m_attempt = 1 && pred ctx then Duplicate else Deliver)
    ()

let delay_message ~seconds pred =
  make ~message:(fun ctx -> if pred ctx then Delay seconds else Deliver) ()

let crash_site ?(down_for = max_int) ~site ~round () =
  make
    ~visit:(fun ~site:s ~round:r ~attempt ->
      if s = site && r = round && attempt <= down_for then Down else Visit_ok)
    ()

let lose_reply ?(times = 1) ~site ~round () =
  make
    ~visit:(fun ~site:s ~round:r ~attempt ->
      if s = site && r = round && attempt <= times then Lost_reply
      else Visit_ok)
    ()

let all plans =
  let message ctx =
    let rec first = function
      | [] -> Deliver
      | p :: rest -> (
          match p.message ctx with Deliver -> first rest | decision -> decision)
    in
    first plans
  in
  let visit ~site ~round ~attempt =
    let rec first = function
      | [] -> Visit_ok
      | p :: rest -> (
          match p.visit ~site ~round ~attempt with
          | Visit_ok -> first rest
          | fate -> fate)
    in
    first plans
  in
  { message; visit }
