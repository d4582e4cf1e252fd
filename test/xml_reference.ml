(* The index-scanning parser's reference: the byte-at-a-time parser it
   replaced, kept verbatim so a differential property can check that both
   accept the same documents and build the same trees. *)

open Mini_xml

let fail_at pos fmt =
  Format.kasprintf
    (fun s -> raise (Parse_error (Printf.sprintf "%s at offset %d" s pos)))
    fmt

let is_blank s = String.for_all (fun c -> c = ' ' || c = '\t' || c = '\n' || c = '\r') s

type parser_state = { src : string; mutable pos : int }

let peek p = if p.pos < String.length p.src then Some p.src.[p.pos] else None
let advance p = p.pos <- p.pos + 1

let looking_at p s =
  let n = String.length s in
  p.pos + n <= String.length p.src && String.sub p.src p.pos n = s

let skip_ws p =
  let rec loop () =
    match peek p with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance p;
      loop ()
    | _ -> ()
  in
  loop ()

let expect p c =
  match peek p with
  | Some c' when c' = c -> advance p
  | Some c' -> fail_at p.pos "expected '%c', found '%c'" c c'
  | None -> fail_at p.pos "expected '%c', found end of input" c

let is_name_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' | ':' -> true
  | _ -> false

let is_name_start c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false

let parse_name p =
  (match peek p with
   | Some c when is_name_start c -> ()
   | Some c -> fail_at p.pos "name cannot start with '%c'" c
   | None -> fail_at p.pos "expected name");
  let start = p.pos in
  let rec loop () =
    match peek p with
    | Some c when is_name_char c ->
      advance p;
      loop ()
    | _ -> ()
  in
  loop ();
  if p.pos = start then fail_at p.pos "expected name";
  String.sub p.src start (p.pos - start)

let parse_entity p =
  (* Cursor is on '&'. *)
  let start = p.pos in
  advance p;
  let rec find_semi n =
    if n > 8 then fail_at start "unterminated entity"
    else
      match peek p with
      | Some ';' ->
        advance p;
        String.sub p.src (start + 1) (p.pos - start - 2)
      | Some _ ->
        advance p;
        find_semi (n + 1)
      | None -> fail_at start "unterminated entity"
  in
  match find_semi 0 with
  | "lt" -> "<"
  | "gt" -> ">"
  | "amp" -> "&"
  | "quot" -> "\""
  | "apos" -> "'"
  | e when String.length e > 2 && e.[0] = '#' && e.[1] = 'x' ->
    (match int_of_string_opt ("0x" ^ String.sub e 2 (String.length e - 2)) with
     | Some cp when cp < 128 -> String.make 1 (Char.chr cp)
     | _ -> fail_at start "unsupported numeric entity &%s;" e)
  | e when String.length e > 1 && e.[0] = '#' ->
    (match int_of_string_opt (String.sub e 1 (String.length e - 1)) with
     | Some cp when cp < 128 -> String.make 1 (Char.chr cp)
     | _ -> fail_at start "unsupported numeric entity &%s;" e)
  | e -> fail_at start "unknown entity &%s;" e

let parse_attr_value p =
  let quote =
    match peek p with
    | Some ('"' as q) | Some ('\'' as q) ->
      advance p;
      q
    | _ -> fail_at p.pos "expected quoted attribute value"
  in
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek p with
    | None -> fail_at p.pos "unterminated attribute value"
    | Some c when c = quote -> advance p
    | Some '&' ->
      Buffer.add_string buf (parse_entity p);
      loop ()
    | Some c ->
      advance p;
      Buffer.add_char buf c;
      loop ()
  in
  loop ();
  Buffer.contents buf

let skip_comment p =
  (* Cursor is on "<!--". *)
  p.pos <- p.pos + 4;
  let rec loop () =
    if looking_at p "-->" then p.pos <- p.pos + 3
    else if p.pos >= String.length p.src then fail_at p.pos "unterminated comment"
    else begin
      advance p;
      loop ()
    end
  in
  loop ()

let skip_decl p =
  (* Cursor is on "<?". *)
  let rec loop () =
    if looking_at p "?>" then p.pos <- p.pos + 2
    else if p.pos >= String.length p.src then fail_at p.pos "unterminated declaration"
    else begin
      advance p;
      loop ()
    end
  in
  loop ()

let rec parse_element p =
  expect p '<';
  let tag = parse_name p in
  let rec parse_attrs acc =
    skip_ws p;
    match peek p with
    | Some '>' ->
      advance p;
      let children = parse_children p tag in
      { tag; attrs = List.rev acc; children }
    | Some '/' ->
      advance p;
      expect p '>';
      { tag; attrs = List.rev acc; children = [] }
    | Some c when is_name_char c ->
      let name = parse_name p in
      skip_ws p;
      expect p '=';
      skip_ws p;
      let value = parse_attr_value p in
      parse_attrs ((name, value) :: acc)
    | _ -> fail_at p.pos "malformed tag <%s ...>" tag
  in
  parse_attrs []

and parse_children p tag =
  let children = ref [] in
  let buf = Buffer.create 16 in
  let flush_text () =
    if Buffer.length buf > 0 then begin
      let s = Buffer.contents buf in
      Buffer.clear buf;
      if not (is_blank s) then children := Text s :: !children
    end
  in
  let rec loop () =
    match peek p with
    | None -> fail_at p.pos "unterminated element <%s>" tag
    | Some '<' when looking_at p "</" ->
      flush_text ();
      p.pos <- p.pos + 2;
      let close = parse_name p in
      skip_ws p;
      expect p '>';
      if close <> tag then
        fail_at p.pos "mismatched close tag </%s> for <%s>" close tag
    | Some '<' when looking_at p "<!--" ->
      flush_text ();
      skip_comment p;
      loop ()
    | Some '<' ->
      flush_text ();
      children := Element (parse_element p) :: !children;
      loop ()
    | Some '&' ->
      Buffer.add_string buf (parse_entity p);
      loop ()
    | Some c ->
      advance p;
      Buffer.add_char buf c;
      loop ()
  in
  loop ();
  List.rev !children

let of_string s =
  let p = { src = s; pos = 0 } in
  skip_ws p;
  while looking_at p "<?" || looking_at p "<!--" do
    if looking_at p "<?" then skip_decl p else skip_comment p;
    skip_ws p
  done;
  let root = parse_element p in
  skip_ws p;
  while looking_at p "<!--" do
    skip_comment p;
    skip_ws p
  done;
  if p.pos <> String.length s then fail_at p.pos "trailing garbage";
  root
