(* Documentation checker, run by `dune build @check`:

     - every page under docs/ must be reachable from README.md by
       following relative markdown links;
     - every relative markdown link in the root *.md files and docs/
       must resolve to an existing file or directory;
     - every inline-code reference that looks like a repo path
       (`lib/net/wire.ml`, `bench/throughput.ml`, `docs/SERVING.md:12`)
       must name something that exists — stale paths are how docs rot;
     - every inline-code `Module.name` reference in docs/, README.md
       and DESIGN.md whose module is a repo source file must name a
       [let], [val], [type] or record field of that file (.ml or .mli;
       any file of that name counts) — renamed and deleted functions
       rot docs the same way.

   Fenced code blocks are skipped entirely (they hold shell transcripts
   and example output, not navigation).  Absolute paths, globs,
   `_build/...` artifacts and hidden paths (dune copies no dot-directory
   into its build sandbox) are never treated as repo references.  Runs
   from the repository root; exits 1 listing every problem found. *)

let errors = ref []
let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt

let starts s p =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let ends s suf =
  let n = String.length s and m = String.length suf in
  n >= m && String.sub s (n - m) m = suf

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* Collapse "." and ".." components so links resolve the way a
   markdown viewer would. *)
let normalize path =
  let rec go acc = function
    | [] -> List.rev acc
    | ("." | "") :: rest -> go acc rest
    | ".." :: rest -> (
        match acc with
        | _ :: tl -> go tl rest
        | [] -> go [ ".." ] rest)
    | p :: rest -> go (p :: acc) rest
  in
  String.concat "/" (go [] (String.split_on_char '/' path))

(* One pass over a markdown file: [(line, target)] for every
   [text](target) link and [(line, code)] for every inline `code`
   span, both outside fenced blocks. *)
let scan_md text =
  let links = ref [] and codes = ref [] in
  let in_fence = ref false in
  List.iteri
    (fun lineno line ->
      let ln = lineno + 1 in
      if starts (String.trim line) "```" then in_fence := not !in_fence
      else if not !in_fence then begin
        let n = String.length line in
        let i = ref 0 in
        while !i < n do
          if line.[!i] = '`' then (
            match String.index_from_opt line (!i + 1) '`' with
            | Some j ->
                codes := (ln, String.sub line (!i + 1) (j - !i - 1)) :: !codes;
                i := j + 1
            | None -> i := n)
          else incr i
        done;
        let i = ref 0 in
        while !i + 1 < n do
          if line.[!i] = ']' && line.[!i + 1] = '(' then (
            match String.index_from_opt line (!i + 2) ')' with
            | Some j ->
                links := (ln, String.sub line (!i + 2) (j - !i - 2)) :: !links;
                i := j + 1
            | None -> i := n)
          else incr i
        done
      end)
    (String.split_on_char '\n' text);
  (List.rev !links, List.rev !codes)

let scans : (string, (int * string) list * (int * string) list) Hashtbl.t =
  Hashtbl.create 16

let scan file =
  match Hashtbl.find_opt scans file with
  | Some r -> r
  | None ->
      let r = scan_md (read_file file) in
      Hashtbl.replace scans file r;
      r

(* "docs/X.md#anchor \"title\"" -> "docs/X.md"; "" for same-page
   anchors. *)
let clean_target t =
  let t = String.trim t in
  let t =
    match String.index_opt t ' ' with
    | Some i -> String.sub t 0 i
    | None -> t
  in
  let t =
    if String.length t >= 2 && t.[0] = '<' && ends t ">" then
      String.sub t 1 (String.length t - 2)
    else t
  in
  match String.index_opt t '#' with
  | Some 0 -> ""
  | Some i -> String.sub t 0 i
  | None -> t

let external_target t = contains t "://" || starts t "mailto:"

(* `lib/net/wire.ml:42`, `lib/net/wire.ml:42-60` and
   `lib/net/wire.ml:42,60` -> `lib/net/wire.ml` *)
let strip_line_suffix tok =
  let digit c = c >= '0' && c <= '9' in
  match String.rindex_opt tok ':' with
  | Some i
    when i + 1 < String.length tok
         && digit tok.[i + 1]
         && String.for_all
              (fun c -> digit c || c = '-' || c = ',')
              (String.sub tok (i + 1) (String.length tok - i - 1)) ->
      String.sub tok 0 i
  | _ -> tok

(* Conservative: only slash-bearing tokens rooted in a repo directory
   or carrying a source-file extension count as path references. *)
let looks_like_path tok =
  tok <> ""
  && (not (String.contains tok ' '))
  && String.contains tok '/'
  && (not (String.contains tok '*'))
  && (not (String.contains tok '<'))
  && (not (String.contains tok '$'))
  && (not (String.contains tok '('))
  && (not (String.contains tok '{'))
  && (not (starts tok "http"))
  && (not (starts tok "/"))
  && (not (starts tok "."))
  && (not (starts tok "_build"))
  && (not (contains tok "//"))
  && (not (ends tok ".exe"))
  && (List.exists (starts tok)
        [ "lib/"; "bin/"; "test/"; "bench/"; "docs/"; "tools/" ]
     || List.exists (ends tok) [ ".ml"; ".mli"; ".md"; ".json" ])

(* ---------------- the operability contract -------------------------

   Every CLI flag `bin/pax_cli.ml` declares (the quoted names inside
   Cmdliner's [info [ "name"; ... ]] lists) and every PAX_* environment
   variable the sources read must appear in docs/OPERATIONS.md — an
   undocumented knob is an inoperable one, and this check is what keeps
   the reference table honest as flags are added.  The environment
   table is checked the other way too: a variable it lists that no
   source mentions any more is a knob that silently does nothing. *)

(* Extract the string-literal lists of [info [ ... ]] occurrences.
   [Cmd.info "name"] takes a bare string, not a list, so requiring the
   next non-blank character to be '[' skips it; positional arguments
   use [info []] and contribute nothing. *)
let cli_flags path =
  let s = read_file path in
  let n = String.length s in
  let word_char c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_'
  in
  let flags = ref [] in
  let i = ref 0 in
  while !i + 4 <= n do
    if
      String.sub s !i 4 = "info"
      && (!i = 0 || not (word_char s.[!i - 1]))
      && (!i + 4 >= n || not (word_char s.[!i + 4]))
    then begin
      let j = ref (!i + 4) in
      while !j < n && (s.[!j] = ' ' || s.[!j] = '\n' || s.[!j] = '\t') do
        incr j
      done;
      if !j < n && s.[!j] = '[' then begin
        let k = ref (!j + 1) in
        let stop = ref false in
        while (not !stop) && !k < n && s.[!k] <> ']' do
          if s.[!k] = '"' then (
            match String.index_from_opt s (!k + 1) '"' with
            | Some e ->
                flags := String.sub s (!k + 1) (e - !k - 1) :: !flags;
                k := e + 1
            | None -> stop := true)
          else incr k
        done;
        i := !k
      end
      else i := !j
    end
    else incr i
  done;
  List.sort_uniq compare !flags

(* PAX_ followed by an upper-case/digit/underscore run. *)
let env_vars_of s =
  let n = String.length s in
  let vars = ref [] in
  let i = ref 0 in
  while !i + 4 <= n do
    if String.sub s !i 4 = "PAX_" then begin
      let j = ref (!i + 4) in
      while
        !j < n
        && ((s.[!j] >= 'A' && s.[!j] <= 'Z')
           || (s.[!j] >= '0' && s.[!j] <= '9')
           || s.[!j] = '_')
      do
        incr j
      done;
      if !j > !i + 4 then vars := String.sub s !i (!j - !i) :: !vars;
      i := !j
    end
    else incr i
  done;
  !vars

let rec ml_files dir =
  if Sys.file_exists dir && Sys.is_directory dir then
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then ml_files p
           else if ends f ".ml" || ends f ".mli" then [ p ]
           else [])
  else []

(* The PAX_* names in the first column of the "Environment variables"
   table: rows of that section that open with a backquoted variable. *)
let env_table_vars ops =
  let in_section = ref false in
  List.filter_map
    (fun line ->
      if starts line "## " then begin
        in_section := String.trim line = "## Environment variables";
        None
      end
      else if !in_section && starts line "| `PAX_" then
        match String.index_from_opt line 3 '`' with
        | Some j -> Some (String.sub line 3 (j - 3))
        | None -> None
      else None)
    (String.split_on_char '\n' ops)

let check_operations () =
  let ops_file = "docs/OPERATIONS.md" in
  if not (Sys.file_exists ops_file) then
    err "%s: missing (the CLI and environment reference lives here)" ops_file
  else begin
    let ops = read_file ops_file in
    let cli = "bin/pax_cli.ml" in
    if Sys.file_exists cli then
      List.iter
        (fun flag ->
          let needle =
            if String.length flag = 1 then Printf.sprintf "`-%s" flag
            else Printf.sprintf "`--%s" flag
          in
          if not (contains ops needle) then
            err "%s: flag --%s from %s is undocumented" ops_file flag cli)
        (cli_flags cli);
    let vars =
      List.concat_map
        (fun p -> env_vars_of (read_file p))
        (List.concat_map ml_files [ "lib"; "bin"; "bench"; "test"; "tools" ])
      |> List.sort_uniq compare
    in
    List.iter
      (fun v ->
        if not (contains ops v) then
          err "%s: environment variable %s is undocumented" ops_file v)
      vars;
    List.iter
      (fun v ->
        if not (List.mem v vars) then
          err "%s: environment variable %s is read by no source" ops_file v)
      (env_table_vars ops)
  end

(* ---------------- `Module.name` references ------------------------ *)

let ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

(* `Cluster.run_round`, `Pax_dist.Cluster.run_round` -> ("Cluster",
   "run_round"): capitalized path components, then one lowercase
   name. *)
let module_ref code =
  match List.rev (String.split_on_char '.' (String.trim code)) with
  | name :: (m :: _ as mods)
    when name <> ""
         && (name.[0] = '_' || (name.[0] >= 'a' && name.[0] <= 'z'))
         && String.for_all ident_char name
         && List.for_all
              (fun m ->
                m <> "" && m.[0] >= 'A' && m.[0] <= 'Z'
                && String.for_all ident_char m)
              mods ->
      Some (m, name)
  | _ -> None

let words line =
  let n = String.length line in
  let rec go i acc =
    if i >= n then List.rev acc
    else if ident_char line.[i] then (
      let j = ref i in
      while !j < n && ident_char line.[!j] do
        incr j
      done;
      go !j (String.sub line i (!j - i) :: acc))
    else go (i + 1) acc
  in
  go 0 []

(* Does this source line define [name]?  A binding ([let], [let rec],
   [and], [val], [external]), a type ([type 'a name = ...]: the last
   word before [=]) or a record field ([name :] opening the line or
   following [{], [;] or [mutable]). *)
let defines line name =
  let rec binding = function
    | kw :: (n :: _ as rest) ->
        (n = name && List.mem kw [ "let"; "rec"; "and"; "val"; "external" ])
        || binding rest
    | _ -> false
  in
  let ws = words line in
  let type_def =
    match ws with
    | ("type" | "and") :: _ -> (
        let head =
          match String.index_opt line '=' with
          | Some i -> String.sub line 0 i
          | None -> line
        in
        match List.rev (words head) with n :: _ -> n = name | [] -> false)
    | _ -> false
  in
  let field seg =
    let seg = String.trim seg in
    let seg =
      if starts seg "mutable " then
        String.trim (String.sub seg 8 (String.length seg - 8))
      else seg
    in
    let m = String.length name in
    starts seg name
    && (let rest = String.trim (String.sub seg m (String.length seg - m)) in
        starts rest ":" && not (starts rest ":=" || starts rest "::"))
  in
  binding ws || type_def
  || List.exists field
       (String.split_on_char ';'
          (String.concat ";" (String.split_on_char '{' line)))

let source_modules () =
  let tbl = Hashtbl.create 128 in
  List.iter
    (fun p ->
      let m =
        String.capitalize_ascii
          (Filename.remove_extension (Filename.basename p))
      in
      Hashtbl.replace tbl m
        (p :: Option.value (Hashtbl.find_opt tbl m) ~default:[]))
    (List.concat_map ml_files
       [ "lib"; "bin"; "bench"; "test"; "tools"; "perfbench" ]);
  tbl

let check_module_refs files =
  let modules = source_modules () in
  let lines = Hashtbl.create 64 in
  let lines_of p =
    match Hashtbl.find_opt lines p with
    | Some l -> l
    | None ->
        let l = String.split_on_char '\n' (read_file p) in
        Hashtbl.replace lines p l;
        l
  in
  List.iter
    (fun file ->
      let _, codes = scan file in
      List.iter
        (fun (ln, code) ->
          match module_ref code with
          | None -> ()
          | Some (m, name) -> (
              match Hashtbl.find_opt modules m with
              | None -> () (* not a repo module: Stdlib, Unix, ... *)
              | Some srcs ->
                  if
                    not
                      (List.exists
                         (fun p ->
                           List.exists (fun l -> defines l name) (lines_of p))
                         srcs)
                  then
                    err "%s:%d: `%s`: %s defines no %s" file ln code
                      (String.concat " or " (List.sort compare srcs))
                      name))
        codes)
    files

let md_files_in dir =
  if Sys.file_exists dir && Sys.is_directory dir then
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> ends f ".md")
    |> List.map (fun f -> if dir = "." then f else Filename.concat dir f)
    |> List.sort compare
  else []

let () =
  if not (Sys.file_exists "README.md") then (
    prerr_endline "check_docs: run from the repository root (no README.md)";
    exit 2);
  let all_md = md_files_in "." @ md_files_in "docs" in
  (* Reachability: follow relative .md links from README.md. *)
  let visited = Hashtbl.create 16 in
  let queue = Queue.create () in
  Hashtbl.replace visited "README.md" ();
  Queue.add "README.md" queue;
  while not (Queue.is_empty queue) do
    let file = Queue.pop queue in
    if Sys.file_exists file then
      let links, _ = scan file in
      List.iter
        (fun (_, raw) ->
          let t = clean_target raw in
          if t <> "" && not (external_target t) then
            let resolved = normalize (Filename.concat (Filename.dirname file) t) in
            if
              ends resolved ".md"
              && Sys.file_exists resolved
              && not (Hashtbl.mem visited resolved)
            then (
              Hashtbl.replace visited resolved ();
              Queue.add resolved queue))
        links
  done;
  (* Link resolution and code-path references, for every page (broken
     links in an unreachable page are still broken). *)
  List.iter
    (fun file ->
      let links, codes = scan file in
      List.iter
        (fun (ln, raw) ->
          let t = clean_target raw in
          if t <> "" && not (external_target t) then
            let resolved = normalize (Filename.concat (Filename.dirname file) t) in
            if not (Sys.file_exists resolved) then
              err "%s:%d: broken link (%s)" file ln raw)
        links;
      List.iter
        (fun (ln, code) ->
          let tok = strip_line_suffix (String.trim code) in
          if looks_like_path tok && not (Sys.file_exists tok) then
            err "%s:%d: stale code reference `%s`" file ln code)
        codes)
    all_md;
  List.iter
    (fun d ->
      if not (Hashtbl.mem visited d) then
        err "%s: not reachable from README.md" d)
    (md_files_in "docs");
  check_operations ();
  check_module_refs
    (List.filter Sys.file_exists [ "README.md"; "DESIGN.md" ]
    @ md_files_in "docs");
  match List.rev !errors with
  | [] -> Printf.printf "check_docs: %d pages OK\n" (List.length all_md)
  | es ->
      List.iter prerr_endline es;
      Printf.eprintf "check_docs: %d problem(s)\n" (List.length es);
      exit 1
