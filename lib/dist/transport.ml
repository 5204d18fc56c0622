module Wire = Pax_wire.Wire

type stats = {
  sent_bytes : int;
  received_bytes : int;
  section_bytes : int;
  sections : int;
  frag_entries : int;
  frames : int;
}

let zero_stats =
  {
    sent_bytes = 0;
    received_bytes = 0;
    section_bytes = 0;
    sections = 0;
    frag_entries = 0;
    frames = 0;
  }

let diff_stats a b =
  {
    sent_bytes = a.sent_bytes - b.sent_bytes;
    received_bytes = a.received_bytes - b.received_bytes;
    section_bytes = a.section_bytes - b.section_bytes;
    sections = a.sections - b.sections;
    frag_entries = a.frag_entries - b.frag_entries;
    frames = a.frames - b.frames;
  }

exception Remote_failure of { site : int; message : string }

type t = {
  describe : string;
  visit_round :
    round:int ->
    label:string ->
    retry:(site:int -> attempt:int -> reason:string -> unit) ->
    (int * Wire.call) list ->
    (int * Wire.reply * float) list;
  stats : unit -> stats;
  reset_run : unit -> unit;
  close : unit -> unit;
}

type handler = int -> round:int -> Wire.call -> Wire.reply

let local ?obs ~domains ~service_delay handler =
  let visit_round ~round ~label:_ ~retry:_ calls =
    Array.to_list
      (Pool.map ?obs (Pool.shared ~domains)
         (fun (site, call) ->
           let t0 = Pax_obs.Clock.now () in
           let reply = handler site ~round call in
           (site, reply, Pax_obs.Clock.now () -. t0 +. service_delay))
         (Array.of_list calls))
  in
  {
    describe = "in-process";
    visit_round;
    stats = (fun () -> zero_stats);
    reset_run = ignore;
    close = ignore;
  }
