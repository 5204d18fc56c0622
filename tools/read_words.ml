(* What a socket read allocates on the coordinator.

   usage: read_words [READS]   (default 3000)

   Forks the serving benchmark's four site servers over its FT2 tree
   and placement (perfbench/inputs.ml, compiled in), mounts PaX2 on a
   coordinator over sockets with no stage cache, as serve-cpu does, and
   runs serve-cpu's query texts (seed 1) one at a time through
   [Coordinator.run]: 300 to warm up, then READS measured.  Prints the
   coordinator's minor words and promoted words per read, read from
   [Gc.minor_words] and [Gc.quick_stat] around the measured reads: the
   collector threads and the mux's readers share the main domain, so
   both count everything the coordinator allocates for a read. *)

module Fragment = Pax_frag.Fragment
module Sockio = Pax_net.Sockio
module Server = Pax_net.Server
module Client = Pax_net.Client
module Coordinator = Pax_serve.Coordinator

let warm_up = 300

let () =
  let reads = try int_of_string Sys.argv.(1) with _ -> 3000 in
  let ft = Inputs.ft2 () in
  let inp = Inputs.of_tree ft in
  let dir = Filename.temp_file "pax_read_words" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let addrs =
    Array.init Inputs.n_sites (fun s ->
        Sockio.Unix_path (Filename.concat dir (Printf.sprintf "s%d.sock" s)))
  in
  let pids =
    Array.mapi
      (fun site addr ->
        let frags =
          List.filter_map
            (fun fid ->
              if Inputs.assign fid = site then
                Some (fid, (Fragment.fragment ft fid).Fragment.root)
              else None)
            (List.init (Fragment.n_fragments ft) Fun.id)
        in
        Server.spawn ~addr ~frags ())
      addrs
  in
  let mux = Client.create ~timeout:30. ~addrs () in
  let coord =
    Coordinator.create (Coordinator.Sockets mux)
      [
        Coordinator.mount
          (Pax_core.Engines.pax2 ft ~n_sites:Inputs.n_sites
             ~assign:Inputs.assign);
      ]
  in
  let next =
    Inputs.reads_only (Inputs.stream inp ~mix:Inputs.Uniform ~seed:1 ~id:0)
  in
  let run q =
    match Coordinator.run coord q with
    | Ok _ -> ()
    | Error _ -> failwith ("read refused: " ^ q)
  in
  List.iter run (Inputs.take warm_up next);
  let texts = Inputs.take reads next in
  let w0 = Gc.minor_words () and p0 = (Gc.quick_stat ()).Gc.promoted_words in
  List.iter run texts;
  let w1 = Gc.minor_words () and p1 = (Gc.quick_stat ()).Gc.promoted_words in
  let per x = x /. float_of_int reads in
  Printf.printf "reads %d\nminor_words_per_read %.0f\npromoted_words_per_read %.0f\n"
    reads (per (w1 -. w0)) (per (p1 -. p0));
  Coordinator.close coord;
  Client.shutdown_sites mux;
  Array.iter (fun pid -> ignore (Unix.waitpid [] pid)) pids;
  Array.iter
    (function
      | Sockio.Unix_path p -> ( try Sys.remove p with Sys_error _ -> ())
      | Sockio.Tcp _ -> ())
    addrs;
  try Sys.rmdir dir with Sys_error _ -> ()
