exception Syntax_error of { pos : int; msg : string }

type token =
  | SLASH
  | DSLASH
  | LBRACK
  | RBRACK
  | LPAREN
  | RPAREN
  | STAR
  | DOT
  | NAME of string
  | TEXT_FN  (* text() *)
  | VAL_FN  (* val() *)
  | STR of string
  | NUM of float
  | CMP of Ast.cmp
  | AT
  | AND
  | OR
  | NOT
  | BANG
  | EOF

let token_to_string = function
  | SLASH -> "/"
  | DSLASH -> "//"
  | LBRACK -> "["
  | RBRACK -> "]"
  | LPAREN -> "("
  | RPAREN -> ")"
  | STAR -> "*"
  | DOT -> "."
  | NAME s -> s
  | TEXT_FN -> "text()"
  | VAL_FN -> "val()"
  | STR s -> Printf.sprintf "%S" s
  | NUM f -> Printf.sprintf "%g" f
  | CMP op -> Ast.cmp_to_string op
  | AT -> "@"
  | AND -> "and"
  | OR -> "or"
  | NOT -> "not"
  | BANG -> "!"
  | EOF -> "<eof>"

(* ------------------------------------------------------------------ *)
(* Lexer                                                              *)
(* ------------------------------------------------------------------ *)

type lexer = { src : string; mutable pos : int; mutable tok : token; mutable tok_pos : int }

let error lx msg = raise (Syntax_error { pos = lx.tok_pos; msg })

let is_name_start = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' -> true
  | _ -> false

let is_name_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | ':' -> true
  | _ -> false

let is_digit = function '0' .. '9' -> true | _ -> false

let rec scan lx =
  let n = String.length lx.src in
  if lx.pos >= n then EOF
  else
    let c = lx.src.[lx.pos] in
    match c with
    | ' ' | '\t' | '\n' | '\r' ->
        lx.pos <- lx.pos + 1;
        scan lx
    | '/' ->
        if lx.pos + 1 < n && lx.src.[lx.pos + 1] = '/' then begin
          lx.pos <- lx.pos + 2;
          DSLASH
        end
        else begin
          lx.pos <- lx.pos + 1;
          SLASH
        end
    | '[' -> lx.pos <- lx.pos + 1; LBRACK
    | ']' -> lx.pos <- lx.pos + 1; RBRACK
    | '(' -> lx.pos <- lx.pos + 1; LPAREN
    | ')' -> lx.pos <- lx.pos + 1; RPAREN
    | '*' -> lx.pos <- lx.pos + 1; STAR
    | '@' -> lx.pos <- lx.pos + 1; AT
    | '.' when not (lx.pos + 1 < n && is_digit lx.src.[lx.pos + 1]) ->
        lx.pos <- lx.pos + 1;
        DOT
    | '=' -> lx.pos <- lx.pos + 1; CMP Ast.Eq
    | '!' ->
        if lx.pos + 1 < n && lx.src.[lx.pos + 1] = '=' then begin
          lx.pos <- lx.pos + 2;
          CMP Ast.Neq
        end
        else begin
          lx.pos <- lx.pos + 1;
          BANG
        end
    | '<' ->
        if lx.pos + 1 < n && lx.src.[lx.pos + 1] = '=' then begin
          lx.pos <- lx.pos + 2;
          CMP Ast.Le
        end
        else begin
          lx.pos <- lx.pos + 1;
          CMP Ast.Lt
        end
    | '>' ->
        if lx.pos + 1 < n && lx.src.[lx.pos + 1] = '=' then begin
          lx.pos <- lx.pos + 2;
          CMP Ast.Ge
        end
        else begin
          lx.pos <- lx.pos + 1;
          CMP Ast.Gt
        end
    | '&' ->
        if lx.pos + 1 < n && lx.src.[lx.pos + 1] = '&' then begin
          lx.pos <- lx.pos + 2;
          AND
        end
        else raise (Syntax_error { pos = lx.pos; msg = "expected &&" })
    | '|' ->
        if lx.pos + 1 < n && lx.src.[lx.pos + 1] = '|' then begin
          lx.pos <- lx.pos + 2;
          OR
        end
        else raise (Syntax_error { pos = lx.pos; msg = "expected ||" })
    | '"' | '\'' ->
        let quote = c in
        let start = lx.pos + 1 in
        let rec find i =
          if i >= n then
            raise (Syntax_error { pos = lx.pos; msg = "unterminated string" })
          else if lx.src.[i] = quote then i
          else find (i + 1)
        in
        let stop = find start in
        lx.pos <- stop + 1;
        STR (String.sub lx.src start (stop - start))
    | c when is_digit c || c = '.' || c = '-' ->
        let start = lx.pos in
        if c = '-' then lx.pos <- lx.pos + 1;
        while
          lx.pos < n
          && (is_digit lx.src.[lx.pos] || lx.src.[lx.pos] = '.'
             || lx.src.[lx.pos] = 'e' || lx.src.[lx.pos] = 'E'
             || (lx.src.[lx.pos] = '+' || lx.src.[lx.pos] = '-')
                && (lx.src.[lx.pos - 1] = 'e' || lx.src.[lx.pos - 1] = 'E'))
        do
          lx.pos <- lx.pos + 1
        done;
        let lit = String.sub lx.src start (lx.pos - start) in
        (match float_of_string_opt lit with
        | Some f -> NUM f
        | None -> raise (Syntax_error { pos = start; msg = "bad number " ^ lit }))
    | c when is_name_start c ->
        let start = lx.pos in
        while lx.pos < n && is_name_char lx.src.[lx.pos] do
          lx.pos <- lx.pos + 1
        done;
        let name = String.sub lx.src start (lx.pos - start) in
        let followed_by_parens =
          lx.pos + 1 < n && lx.src.[lx.pos] = '(' && lx.src.[lx.pos + 1] = ')'
        in
        (match name with
        | "and" -> AND
        | "or" -> OR
        | "not" -> NOT
        | "text" when followed_by_parens ->
            lx.pos <- lx.pos + 2;
            TEXT_FN
        | "val" when followed_by_parens ->
            lx.pos <- lx.pos + 2;
            VAL_FN
        | _ -> NAME name)
    | c ->
        raise
          (Syntax_error
             { pos = lx.pos; msg = Printf.sprintf "unexpected character %C" c })

let next lx =
  lx.tok_pos <- lx.pos;
  lx.tok <- scan lx

let make_lexer src =
  let lx = { src; pos = 0; tok = EOF; tok_pos = 0 } in
  next lx;
  lx

let expect lx tok =
  if lx.tok = tok then next lx
  else
    error lx
      (Printf.sprintf "expected %s but found %s" (token_to_string tok)
         (token_to_string lx.tok))

(* ------------------------------------------------------------------ *)
(* Parser                                                             *)
(* ------------------------------------------------------------------ *)

(* A parsed path may end in text()/val(); the trailing function is only
   legal directly before a comparison inside a qualifier. *)
type path_end = Plain | Ends_text | Ends_val | Ends_attr of string

let seq p q = if p = Ast.Empty then q else Ast.Slash (p, q)

(* seg := '*' | '.' | NAME, followed by zero or more qualifiers *)
let rec parse_seg lx : Ast.path =
  let base =
    match lx.tok with
    | STAR ->
        next lx;
        Ast.Wildcard
    | DOT ->
        next lx;
        Ast.Empty
    | NAME n ->
        next lx;
        Ast.Tag n
    | t -> error lx ("expected a step but found " ^ token_to_string t)
  in
  let rec quals acc =
    if lx.tok = LBRACK then begin
      next lx;
      let q = parse_qual lx in
      expect lx RBRACK;
      quals (Ast.Qualified (acc, q))
    end
    else acc
  in
  quals base

(* relpath := seg (('/'|'//') seg)*, allowing text()/val() as the last
   segment when [in_qual]. *)
and parse_relpath lx ~in_qual : Ast.path * path_end =
  let rec go acc =
    match lx.tok with
    | SLASH ->
        next lx;
        continue acc ~dslash:false
    | DSLASH ->
        next lx;
        continue acc ~dslash:true
    | _ -> (acc, Plain)
  and continue acc ~dslash =
    match lx.tok with
    (* p/text() is the text of val(p, ·): no extra step needed;
       p//text() genuinely widens to descendants-or-self. *)
    | TEXT_FN when in_qual ->
        next lx;
        ((if dslash then Ast.Dslash (acc, Ast.Empty) else acc), Ends_text)
    | VAL_FN when in_qual ->
        next lx;
        ((if dslash then Ast.Dslash (acc, Ast.Empty) else acc), Ends_val)
    | AT when in_qual ->
        next lx;
        let name =
          match lx.tok with
          | NAME n ->
              next lx;
              n
          | t -> error lx ("expected an attribute name, found " ^ token_to_string t)
        in
        ((if dslash then Ast.Dslash (acc, Ast.Empty) else acc), Ends_attr name)
    | _ ->
        let s = parse_seg lx in
        go (if dslash then Ast.Dslash (acc, s) else seq acc s)
  in
  match lx.tok with
  | TEXT_FN when in_qual ->
      next lx;
      (Ast.Empty, Ends_text)
  | VAL_FN when in_qual ->
      next lx;
      (Ast.Empty, Ends_val)
  | AT when in_qual ->
      next lx;
      let name =
        match lx.tok with
        | NAME n ->
            next lx;
            n
        | t -> error lx ("expected an attribute name, found " ^ token_to_string t)
      in
      (Ast.Empty, Ends_attr name)
  | _ ->
      let s = parse_seg lx in
      go s

and parse_qual lx : Ast.qual = parse_or lx

and parse_or lx =
  let left = parse_and lx in
  if lx.tok = OR then begin
    next lx;
    Ast.QOr (left, parse_or lx)
  end
  else left

and parse_and lx =
  let left = parse_unary lx in
  if lx.tok = AND then begin
    next lx;
    Ast.QAnd (left, parse_and lx)
  end
  else left

and parse_unary lx =
  match lx.tok with
  | NOT ->
      next lx;
      expect lx LPAREN;
      let q = parse_qual lx in
      expect lx RPAREN;
      Ast.QNot q
  | BANG ->
      next lx;
      Ast.QNot (parse_unary lx)
  | LPAREN ->
      next lx;
      let q = parse_qual lx in
      expect lx RPAREN;
      q
  | _ -> parse_pred lx

(* pred := path [('/text()'|'/val()')] [op rhs]; a string RHS without an
   explicit function is sugar for text(), a numeric RHS for val(). *)
and parse_pred lx =
  (* Tolerate a leading '/' or '//' inside qualifiers (the paper writes
     [/profile/age > 20]); it is interpreted relative to the context. *)
  let path, ending =
    match lx.tok with
    | DSLASH ->
        next lx;
        let p, e = parse_relpath lx ~in_qual:true in
        (Ast.Dslash (Ast.Empty, p), e)
    | SLASH ->
        next lx;
        parse_relpath lx ~in_qual:true
    | _ -> parse_relpath lx ~in_qual:true
  in
  match (ending, lx.tok) with
  | Ends_text, CMP Ast.Eq ->
      next lx;
      string_rhs lx path
  | Ends_text, CMP Ast.Neq ->
      next lx;
      let q = string_rhs lx path in
      Ast.QNot q
  | Ends_text, t ->
      error lx ("text() must be compared with = or !=, found " ^ token_to_string t)
  | Ends_val, CMP op ->
      next lx;
      num_rhs lx path op
  | Ends_val, t -> error lx ("val() must be compared, found " ^ token_to_string t)
  | Ends_attr name, CMP Ast.Eq -> (
      next lx;
      match lx.tok with
      | STR v ->
          next lx;
          Ast.QAttr (path, name, Some v)
      | t -> error lx ("expected a string literal, found " ^ token_to_string t))
  | Ends_attr name, CMP Ast.Neq -> (
      next lx;
      match lx.tok with
      | STR v ->
          next lx;
          Ast.QNot (Ast.QAttr (path, name, Some v))
      | t -> error lx ("expected a string literal, found " ^ token_to_string t))
  | Ends_attr _, CMP _ ->
      error lx "attributes compare with = or != only"
  | Ends_attr name, _ -> Ast.QAttr (path, name, None)
  | Plain, CMP op -> (
      next lx;
      match lx.tok with
      | STR _ when op = Ast.Eq -> string_rhs lx path
      | STR _ when op = Ast.Neq -> Ast.QNot (string_rhs lx path)
      | STR _ -> error lx "strings compare with = or != only"
      | NUM _ -> num_rhs lx path op
      | t -> error lx ("expected a literal after comparison, found " ^ token_to_string t))
  | Plain, _ -> Ast.QPath path

and string_rhs lx path =
  match lx.tok with
  | STR s ->
      next lx;
      Ast.QText (path, s)
  | t -> error lx ("expected a string literal, found " ^ token_to_string t)

and num_rhs lx path op =
  match lx.tok with
  | NUM f ->
      next lx;
      Ast.QVal (path, op, f)
  | t -> error lx ("expected a number, found " ^ token_to_string t)

let query src : Ast.t =
  let lx = make_lexer src in
  let absolute, path =
    match lx.tok with
    | SLASH ->
        next lx;
        let p, _ = parse_relpath lx ~in_qual:false in
        (true, p)
    | DSLASH ->
        next lx;
        let p, _ = parse_relpath lx ~in_qual:false in
        (true, Ast.Dslash (Ast.Empty, p))
    | _ ->
        let p, _ = parse_relpath lx ~in_qual:false in
        (false, p)
  in
  if lx.tok <> EOF then
    error lx ("trailing input: " ^ token_to_string lx.tok);
  { Ast.absolute; path }

let qual src : Ast.qual =
  let lx = make_lexer src in
  let q = parse_qual lx in
  if lx.tok <> EOF then error lx ("trailing input: " ^ token_to_string lx.tok);
  q
