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

let is_ws c = c = ' ' || c = '\t' || c = '\n' || c = '\r'
let is_blank s = String.for_all is_ws s

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

(* The parser scans [src] by index.  A run of text or an attribute value
   is one [String.sub] unless it holds an entity, and whitespace between
   elements is skipped without a copy.  Every entity decodes to one byte. *)

type parser_state = { src : string; mutable pos : int }

let at_end p = p.pos >= String.length p.src

let rec same s i lit j = j = String.length lit || (s.[i + j] = lit.[j] && same s i lit (j + 1))

(* [lit] occurs in [s] at [i]. *)
let occurs_at s i lit = i + String.length lit <= String.length s && same s i lit 0

let looking_at p lit = occurs_at p.src p.pos lit

let skip_ws p =
  while (not (at_end p)) && is_ws p.src.[p.pos] do
    p.pos <- p.pos + 1
  done

(* Move the cursor past the first [lit] at or after [from]. *)
let skip_past p ~from lit what =
  let last = String.length p.src - String.length lit in
  let rec find i =
    if i > last then fail_at (String.length p.src) "unterminated %s" what
    else if occurs_at p.src i lit then p.pos <- i + String.length lit
    else find (i + 1)
  in
  find from

let skip_comment p = skip_past p ~from:(p.pos + 4) "-->" "comment"
let skip_decl p = skip_past p ~from:(p.pos + 1) "?>" "declaration"

let expect p c =
  if at_end p then fail_at p.pos "expected '%c', found end of input" c
  else if p.src.[p.pos] <> c then fail_at p.pos "expected '%c', found '%c'" c p.src.[p.pos]
  else p.pos <- p.pos + 1

let is_name_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' | ':' -> true
  | _ -> false

let is_name_start c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false

(* The end of the name at the cursor, which stays put. *)
let name_end p =
  if at_end p then fail_at p.pos "expected name";
  if not (is_name_start p.src.[p.pos]) then
    fail_at p.pos "name cannot start with '%c'" p.src.[p.pos];
  let i = ref (p.pos + 1) in
  while !i < String.length p.src && is_name_char p.src.[!i] do
    incr i
  done;
  !i

let parse_name p =
  let start = p.pos and stop = name_end p in
  p.pos <- stop;
  String.sub p.src start (stop - start)

(* Cursor is on '&': the ';' must come within nine bytes. *)
let parse_entity p =
  let start = p.pos in
  let stop = min (String.length p.src) (start + 10) in
  let rec semi i =
    if i >= stop then fail_at start "unterminated entity"
    else if p.src.[i] = ';' then i
    else semi (i + 1)
  in
  let semi = semi (start + 1) in
  p.pos <- semi + 1;
  match String.sub p.src (start + 1) (semi - start - 1) with
  | "lt" -> '<'
  | "gt" -> '>'
  | "amp" -> '&'
  | "quot" -> '"'
  | "apos" -> '\''
  | e when String.length e > 1 && e.[0] = '#' -> (
    let digits = String.sub e 1 (String.length e - 1) in
    let hex = String.length e > 2 && e.[1] = 'x' in
    match int_of_string_opt (if hex then "0" ^ digits else digits) with
    | Some cp when cp >= 0 && cp < 128 -> Char.chr cp
    | _ -> fail_at start "unsupported numeric entity &%s;" e)
  | e -> fail_at start "unknown entity &%s;" e

let rec plain s stop i =
  if i < String.length s && s.[i] <> stop && s.[i] <> '&' then plain s stop (i + 1) else i

(* The bytes from the cursor up to the first [stop] byte or the end of
   input, entities decoded; the cursor moves there. *)
let parse_run p stop =
  let s = p.src and start = p.pos in
  p.pos <- plain s stop start;
  if at_end p || s.[p.pos] = stop then String.sub s start (p.pos - start)
  else begin
    let buf = Buffer.create (2 * (p.pos - start) + 16) in
    Buffer.add_substring buf s start (p.pos - start);
    while (not (at_end p)) && s.[p.pos] <> stop do
      if s.[p.pos] = '&' then Buffer.add_char buf (parse_entity p)
      else begin
        Buffer.add_char buf s.[p.pos];
        p.pos <- p.pos + 1
      end
    done;
    Buffer.contents buf
  end

let parse_attr_value p =
  let quote = if at_end p then ' ' else p.src.[p.pos] in
  if quote <> '"' && quote <> '\'' then fail_at p.pos "expected quoted attribute value";
  p.pos <- p.pos + 1;
  let v = parse_run p quote in
  if at_end p then fail_at p.pos "unterminated attribute value";
  p.pos <- p.pos + 1;
  v

let rec parse_element p =
  expect p '<';
  let tag = parse_name p in
  parse_attrs p tag []

and parse_attrs p tag acc =
  skip_ws p;
  let c = if at_end p then ' ' else p.src.[p.pos] in
  if c = '>' then begin
    p.pos <- p.pos + 1;
    let children = parse_children p tag [] in
    { tag; attrs = List.rev acc; children }
  end
  else if c = '/' then begin
    p.pos <- p.pos + 1;
    expect p '>';
    { tag; attrs = List.rev acc; children = [] }
  end
  else if is_name_char c then begin
    let name = parse_name p in
    skip_ws p;
    expect p '=';
    skip_ws p;
    let value = parse_attr_value p in
    parse_attrs p tag ((name, value) :: acc)
  end
  else fail_at p.pos "malformed tag <%s ...>" tag

(* A text run ends at the next '<'; one that decodes to whitespace only
   is dropped, as is a comment. *)
and parse_children p tag acc =
  let start = p.pos in
  skip_ws p;
  let acc =
    if at_end p || p.src.[p.pos] = '<' then acc
    else begin
      p.pos <- start;
      let t = parse_run p '<' in
      if is_blank t then acc else Text t :: acc
    end
  in
  if at_end p then fail_at p.pos "unterminated element <%s>" tag
  else if looking_at p "</" then begin
    p.pos <- p.pos + 2;
    let stop = name_end p in
    let close_pos = p.pos in
    p.pos <- stop;
    skip_ws p;
    expect p '>';
    if not (stop - close_pos = String.length tag && occurs_at p.src close_pos tag) then
      fail_at p.pos "mismatched close tag </%s> for <%s>"
        (String.sub p.src close_pos (stop - close_pos)) tag;
    List.rev acc
  end
  else if looking_at p "<!--" then begin
    skip_comment p;
    parse_children p tag acc
  end
  else parse_children p tag (Element (parse_element p) :: acc)

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
