(* The bench harness's JSON: [Pax_obs.Json]'s values, strict parser
   and accessors, plus the printer result files are written with and
   [write]. *)

include Pax_obs.Json

(* Two-space indented, keys in insertion order: stable diffs when the
   file is committed. *)
let to_string_indented (v : t) : string =
  let b = Buffer.create 1024 in
  let pad n = Buffer.add_string b (String.make n ' ') in
  let rec go ind = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Num f -> Buffer.add_string b (num_repr f)
    | Str s ->
        Buffer.add_char b '"';
        Buffer.add_string b (escape s);
        Buffer.add_char b '"'
    | List [] -> Buffer.add_string b "[]"
    | List xs ->
        Buffer.add_string b "[\n";
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_string b ",\n";
            pad (ind + 2);
            go (ind + 2) x)
          xs;
        Buffer.add_char b '\n';
        pad ind;
        Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj kvs ->
        Buffer.add_string b "{\n";
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_string b ",\n";
            pad (ind + 2);
            Buffer.add_char b '"';
            Buffer.add_string b (escape k);
            Buffer.add_string b "\": ";
            go (ind + 2) x)
          kvs;
        Buffer.add_char b '\n';
        pad ind;
        Buffer.add_char b '}'
  in
  go 0 v;
  Buffer.add_char b '\n';
  Buffer.contents b

let parse_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  parse_exn s

(* ---------------- writing a result -------------------------------- *)

(* Where a harness writes its result: [PAX_BENCH_OUT] when set, else
   [name] inside [bench-results/] under the working directory.  That
   directory is ignored by git, so a rerun never overwrites a committed
   BENCH_*.json; committing a result is a deliberate copy. *)
let results_dir = "bench-results"

let write name v =
  let path =
    match Sys.getenv_opt "PAX_BENCH_OUT" with
    | Some p -> p
    | None ->
        if not (Sys.file_exists results_dir) then Sys.mkdir results_dir 0o755;
        Filename.concat results_dir name
  in
  let oc = open_out path in
  output_string oc (to_string_indented v);
  output_char oc '\n';
  close_out oc;
  path
