type kind = Element | Virtual of int

type node = {
  id : int;
  tag : string;
  mutable text : string option;
  attrs : (string * string) list;
  mutable children : node list;
  kind : kind;
}

type doc = { root : node; node_count : int }
type builder = { mutable next : int }

let builder () = { next = 0 }
let builder_from n = { next = n }

let fresh b =
  let id = b.next in
  b.next <- id + 1;
  id

let allocated b = b.next

let elem b ?text ?(attrs = []) tag children =
  { id = fresh b; tag; text; attrs; children; kind = Element }

let leaf b tag text = elem b ~text tag []

let virtual_node b fid =
  { id = fresh b; tag = "@virtual"; text = None; attrs = []; children = [];
    kind = Virtual fid }

let is_virtual n = match n.kind with Virtual _ -> true | Element -> false
let virtual_fragment n = match n.kind with Virtual fid -> Some fid | Element -> None
let text_of n = match n.text with Some s -> s | None -> ""

let number_of_text s = float_of_string_opt (String.trim s)
let float_of n = Option.bind n.text number_of_text

let attr n name = List.assoc_opt name n.attrs

let rec iter f n =
  f n;
  List.iter (iter f) n.children

let rec fold f acc n = List.fold_left (fold f) (f acc n) n.children

let rec iter_post f n =
  List.iter (iter_post f) n.children;
  f n

let size n = fold (fun acc _ -> acc + 1) 0 n

let rec depth n =
  1 + List.fold_left (fun d c -> max d (depth c)) 0 n.children

let doc_of_root root = { root; node_count = size root }

let select p root =
  List.rev (fold (fun acc n -> if p n then n :: acc else acc) [] root)

(* Serialized size: open+close tags, attributes, text.  This is the byte
   count an actual XML serialization would take, used as the "MB" unit of
   the paper's data-size axes. *)
let node_bytes n =
  let tag_len = String.length n.tag in
  let attr_len =
    List.fold_left (fun acc (k, v) -> acc + String.length k + String.length v + 4)
      0 n.attrs
  in
  let text_len = match n.text with Some s -> String.length s | None -> 0 in
  (2 * tag_len) + 5 + attr_len + text_len

let byte_size n = fold (fun acc m -> acc + node_bytes m) 0 n
let answer_byte_size n = 8 + node_bytes n

let rec equal_structure a b =
  a.tag = b.tag && a.text = b.text && a.attrs = b.attrs && a.kind = b.kind
  && List.length a.children = List.length b.children
  && List.for_all2 equal_structure a.children b.children

let rec copy n = { n with children = List.map copy n.children }

let rec pp ppf n =
  match n.kind with
  | Virtual fid -> Format.fprintf ppf "@[<h>⟨F%d⟩@]" fid
  | Element -> (
      match (n.children, n.text) with
      | [], None -> Format.fprintf ppf "<%s/>" n.tag
      | [], Some t -> Format.fprintf ppf "<%s>%s</%s>" n.tag t n.tag
      | cs, t ->
          Format.fprintf ppf "@[<v 2><%s>%s@,%a@]@,</%s>" n.tag
            (match t with Some t -> t | None -> "")
            (Format.pp_print_list pp) cs n.tag)
