module Formula = Pax_bool.Formula
module Var = Pax_bool.Var
module Fragment = Pax_frag.Fragment

let ground_exn what f =
  match Formula.to_bool f with
  | Some b -> b
  | None ->
      invalid_arg
        (Printf.sprintf "evalFT: %s failed to ground (%s)" what
           (Formula.to_string f))

(* Pruned fragments have an empty resolved vector and read as false:
   the annotation analysis guarantees the value cannot matter. *)
let qual_lookup resolved = function
  | Var.Qual (fid, e) ->
      let vec = resolved.(fid) in
      Some (Formula.bool (e < Array.length vec && vec.(e)))
  | Var.Sel_ctx _ | Var.Qual_at _ -> None

let ctx_lookup resolved = function
  | Var.Sel_ctx (fid, i) ->
      let vec = resolved.(fid) in
      Some (Formula.bool (i < Array.length vec && vec.(i)))
  | Var.Qual _ | Var.Qual_at _ -> None

let resolve_quals ft ~root_vecs =
  let n = Fragment.n_fragments ft in
  let resolved = Array.make n [||] in
  let lookup = qual_lookup resolved in
  (* Children have larger ids than their parents: a reverse sweep is a
     bottom-up traversal of the fragment tree. *)
  for fid = n - 1 downto 0 do
    resolved.(fid) <-
      (match root_vecs fid with
      | None -> [||]
      | Some vec ->
          Array.map
            (fun f -> ground_exn "qualifier entry" (Formula.subst lookup f))
            vec)
  done;
  resolved

let resolve_contexts ft ~root_ctx ~ctx_of ~qual_lookup =
  let n = Fragment.n_fragments ft in
  let resolved = Array.make n [||] in
  resolved.(0) <- Array.copy root_ctx;
  let lookup v =
    match v with
    | Var.Sel_ctx _ -> ctx_lookup resolved v
    | Var.Qual _ -> qual_lookup v
    | Var.Qual_at _ -> None
  in
  (* Parents have smaller ids: a forward sweep is top-down. *)
  for fid = 1 to n - 1 do
    resolved.(fid) <-
      (match ctx_of fid with
      | None -> [||]
      | Some vec ->
          Array.map
            (fun f -> ground_exn "context entry" (Formula.subst lookup f))
            vec)
  done;
  resolved

let unify_contexts ft ~n_sel ~contexts ~qual_lookup =
  let raw = Array.make (Fragment.n_fragments ft) None in
  Array.iter
    (List.iter (fun (sub, vec) -> raw.(sub) <- Some vec))
    contexts;
  resolve_contexts ft
    ~root_ctx:(Array.make n_sel false)
    ~ctx_of:(fun fid -> raw.(fid))
    ~qual_lookup

let full_lookup ~quals ~ctxs v =
  match v with
  | Var.Qual _ -> qual_lookup quals v
  | Var.Sel_ctx _ -> ctx_lookup ctxs v
  | Var.Qual_at _ -> None
