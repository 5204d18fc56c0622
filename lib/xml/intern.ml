(* A string <-> small-int symbol table.

   One table per fragment store: every tag (and attribute key) that
   appears in any fragment is interned once, so the flat representation
   ({!Flat}) stores int codes and stage passes compare tags with [=] on
   ints.  Every operation is safe to call from any domain — the serving
   layer rebuilds flat images from scheduler threads.  Interning and
   [find] take the lock (OCaml 5 [Hashtbl] is not safe under concurrent
   read + resize).  [name] does not: codes are only ever appended, so
   the code -> string direction is published as an immutable snapshot,
   replaced under the lock and read with one atomic load.  The hot
   loops never touch this module: they carry pre-resolved codes. *)

(* The first [n] names; [names] may be longer, and its slots past [n]
   are written only by a later intern, which publishes a new view. *)
type view = { names : string array; n : int }

type t = {
  view : view Atomic.t;
  codes : (string, int) Hashtbl.t;  (* string -> code *)
  lock : Mutex.t;
}

let create () =
  {
    view = Atomic.make { names = Array.make 16 ""; n = 0 };
    codes = Hashtbl.create 64;
    lock = Mutex.create ();
  }

(* Nothing inside raises, so no handler is installed. *)
let locked t f =
  Mutex.lock t.lock;
  let x = f () in
  Mutex.unlock t.lock;
  x

let intern t s =
  locked t (fun () ->
      match Hashtbl.find_opt t.codes s with
      | Some c -> c
      | None ->
          let { names; n = c } = Atomic.get t.view in
          let names =
            if c < Array.length names then names
            else begin
              let grown = Array.make (2 * c) "" in
              Array.blit names 0 grown 0 c;
              grown
            end
          in
          names.(c) <- s;
          Hashtbl.add t.codes s c;
          Atomic.set t.view { names; n = c + 1 };
          c)

let find t s =
  locked t (fun () ->
      match Hashtbl.find_opt t.codes s with Some c -> c | None -> -1)

let name t c =
  let v = Atomic.get t.view in
  if c < 0 || c >= v.n then invalid_arg "Intern.name: unknown code";
  Array.unsafe_get v.names c

let size t = (Atomic.get t.view).n
