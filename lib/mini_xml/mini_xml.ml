type node =
  | Element of element
  | Text of string

and element = {
  tag : string;
  attrs : (string * string) list;
  children : node list;
}

exception Parse_error of string

let fail_at pos fmt =
  Format.kasprintf
    (fun s -> raise (Parse_error (Printf.sprintf "%s at offset %d" s pos)))
    fmt

(* ------------------------------------------------------------------ *)
(* Construction helpers                                                *)
(* ------------------------------------------------------------------ *)

let elt ?(attrs = []) tag children = { tag; attrs; children }
let text s = Text s
let leaf ?attrs tag content = Element (elt ?attrs tag [ Text content ])
let node e = Element e

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape_text buf s =
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | c -> Buffer.add_char buf c)
    s

let escape_attr buf s =
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s

let is_blank s = String.for_all (fun c -> c = ' ' || c = '\t' || c = '\n' || c = '\r') s

let rec print_element buf ~indent ~depth e =
  let pad n =
    if indent then begin
      if Buffer.length buf > 0 then Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (2 * n) ' ')
    end
  in
  pad depth;
  Buffer.add_char buf '<';
  Buffer.add_string buf e.tag;
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf k;
      Buffer.add_string buf "=\"";
      escape_attr buf v;
      Buffer.add_char buf '"')
    e.attrs;
  let meaningful =
    List.filter (function Text s -> not (is_blank s) | Element _ -> true) e.children
  in
  match meaningful with
  | [] -> Buffer.add_string buf "/>"
  | [ Text s ] ->
    (* Single text child stays inline: <name>value</name>. *)
    Buffer.add_char buf '>';
    escape_text buf s;
    Buffer.add_string buf "</";
    Buffer.add_string buf e.tag;
    Buffer.add_char buf '>'
  | children ->
    Buffer.add_char buf '>';
    List.iter
      (function
        | Element child -> print_element buf ~indent ~depth:(depth + 1) child
        | Text s ->
          pad (depth + 1);
          escape_text buf s)
      children;
    pad depth;
    Buffer.add_string buf "</";
    Buffer.add_string buf e.tag;
    Buffer.add_char buf '>'

(* Every render goes through one buffer, so its one large allocation is
   the exact-size result.  A fresh buffer grown from 256 bytes by
   doubling would also allocate a 2 KB block for each domain XML (about
   2 KB), and a block that size goes straight to the major heap.  A
   render that grew the buffer past [keep_bytes] hands the memory back. *)
let render_buf = Buffer.create 4096
let render_mutex = Mutex.create ()
let keep_bytes = 65536

let to_string ?(indent = true) e =
  Mutex.lock render_mutex;
  Fun.protect
    ~finally:(fun () ->
      if Buffer.length render_buf > keep_bytes then Buffer.reset render_buf
      else Buffer.clear render_buf;
      Mutex.unlock render_mutex)
    (fun () ->
      print_element render_buf ~indent ~depth:0 e;
      Buffer.contents render_buf)

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

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

(* ------------------------------------------------------------------ *)
(* Query helpers                                                       *)
(* ------------------------------------------------------------------ *)

let children_named e tag =
  List.filter_map
    (function Element c when c.tag = tag -> Some c | Element _ | Text _ -> None)
    e.children

let child e tag =
  match children_named e tag with [] -> None | c :: _ -> Some c

let child_exn e tag =
  match child e tag with
  | Some c -> c
  | None ->
    raise (Parse_error (Printf.sprintf "missing element <%s> under <%s>" tag e.tag))

let attr e name = List.assoc_opt name e.attrs

let attr_exn e name =
  match attr e name with
  | Some v -> v
  | None ->
    raise
      (Parse_error (Printf.sprintf "missing attribute %S on <%s>" name e.tag))

let text_content e =
  let buf = Buffer.create 16 in
  List.iter
    (function Text s -> Buffer.add_string buf s | Element _ -> ())
    e.children;
  String.trim (Buffer.contents buf)

let int_attr_exn e name =
  let v = attr_exn e name in
  match int_of_string_opt v with
  | Some n -> n
  | None ->
    raise
      (Parse_error
         (Printf.sprintf "attribute %S of <%s> is not an integer: %S" name e.tag v))

let int_content_exn e =
  let v = text_content e in
  match int_of_string_opt v with
  | Some n -> n
  | None ->
    raise (Parse_error (Printf.sprintf "<%s> content is not an integer: %S" e.tag v))
