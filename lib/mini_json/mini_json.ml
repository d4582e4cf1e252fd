type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail_at pos fmt =
  Format.kasprintf (fun s -> raise (Parse_error (Printf.sprintf "%s at offset %d" s pos))) fmt

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape_into buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let rec print_into buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool true -> Buffer.add_string buf "true"
  | Bool false -> Buffer.add_string buf "false"
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f ->
    (* %.17g roundtrips doubles; strip a trailing "." ambiguity by always
       including enough precision.  Infinities/NaN are not valid JSON, so
       we refuse rather than emit garbage. *)
    if Float.is_nan f || Float.is_integer f && Float.abs f = Float.infinity
    then raise (Parse_error "cannot serialize non-finite float")
    else Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | String s ->
    Buffer.add_char buf '"';
    escape_into buf s;
    Buffer.add_char buf '"'
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        print_into buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        escape_into buf k;
        Buffer.add_string buf "\":";
        print_into buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 128 in
  print_into buf v;
  Buffer.contents buf

let pp fmt v = Format.pp_print_string fmt (to_string v)

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

type parser_state = { src : string; mutable pos : int }

let peek p = if p.pos < String.length p.src then Some p.src.[p.pos] else None

let advance p = p.pos <- p.pos + 1

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

let expect_keyword p kw =
  let n = String.length kw in
  if p.pos + n <= String.length p.src && String.sub p.src p.pos n = kw then
    p.pos <- p.pos + n
  else fail_at p.pos "expected keyword %s" kw

let hex_digit pos c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | c -> fail_at pos "invalid hex digit '%c'" c

(* Encode a BMP code point as UTF-8. *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end

let parse_string_body p =
  expect p '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek p with
    | None -> fail_at p.pos "unterminated string"
    | Some '"' ->
      advance p;
      Buffer.contents buf
    | Some '\\' ->
      advance p;
      (match peek p with
       | None -> fail_at p.pos "unterminated escape"
       | Some c ->
         advance p;
         (match c with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
            if p.pos + 4 > String.length p.src then
              fail_at p.pos "truncated \\u escape";
            let cp =
              (hex_digit p.pos p.src.[p.pos] lsl 12)
              lor (hex_digit p.pos p.src.[p.pos + 1] lsl 8)
              lor (hex_digit p.pos p.src.[p.pos + 2] lsl 4)
              lor hex_digit p.pos p.src.[p.pos + 3]
            in
            p.pos <- p.pos + 4;
            add_utf8 buf cp
          | c -> fail_at (p.pos - 1) "invalid escape '\\%c'" c));
      loop ()
    | Some c when Char.code c < 0x20 ->
      fail_at p.pos "unescaped control character"
    | Some c ->
      advance p;
      Buffer.add_char buf c;
      loop ()
  in
  loop ()

let parse_number p =
  let start = p.pos in
  let is_float = ref false in
  let accept_digits () =
    let seen = ref false in
    let rec loop () =
      match peek p with
      | Some '0' .. '9' ->
        seen := true;
        advance p;
        loop ()
      | _ -> ()
    in
    loop ();
    if not !seen then fail_at p.pos "expected digit"
  in
  (match peek p with Some '-' -> advance p | _ -> ());
  accept_digits ();
  (match peek p with
   | Some '.' ->
     is_float := true;
     advance p;
     accept_digits ()
   | _ -> ());
  (match peek p with
   | Some ('e' | 'E') ->
     is_float := true;
     advance p;
     (match peek p with Some ('+' | '-') -> advance p | _ -> ());
     accept_digits ()
   | _ -> ());
  let text = String.sub p.src start (p.pos - start) in
  if !is_float then Float (float_of_string text)
  else
    match int_of_string_opt text with
    | Some n -> Int n
    | None -> Float (float_of_string text)

let rec parse_value p =
  skip_ws p;
  match peek p with
  | None -> fail_at p.pos "unexpected end of input"
  | Some '"' -> String (parse_string_body p)
  | Some '{' -> parse_obj p
  | Some '[' -> parse_list p
  | Some 't' ->
    expect_keyword p "true";
    Bool true
  | Some 'f' ->
    expect_keyword p "false";
    Bool false
  | Some 'n' ->
    expect_keyword p "null";
    Null
  | Some ('-' | '0' .. '9') -> parse_number p
  | Some c -> fail_at p.pos "unexpected character '%c'" c

and parse_obj p =
  expect p '{';
  skip_ws p;
  if peek p = Some '}' then begin
    advance p;
    Obj []
  end
  else begin
    let fields = ref [] in
    let rec loop () =
      skip_ws p;
      let key = parse_string_body p in
      skip_ws p;
      expect p ':';
      let value = parse_value p in
      fields := (key, value) :: !fields;
      skip_ws p;
      match peek p with
      | Some ',' ->
        advance p;
        loop ()
      | Some '}' -> advance p
      | _ -> fail_at p.pos "expected ',' or '}' in object"
    in
    loop ();
    Obj (List.rev !fields)
  end

and parse_list p =
  expect p '[';
  skip_ws p;
  if peek p = Some ']' then begin
    advance p;
    List []
  end
  else begin
    let items = ref [] in
    let rec loop () =
      let v = parse_value p in
      items := v :: !items;
      skip_ws p;
      match peek p with
      | Some ',' ->
        advance p;
        loop ()
      | Some ']' -> advance p
      | _ -> fail_at p.pos "expected ',' or ']' in array"
    in
    loop ();
    List (List.rev !items)
  end

let of_string s =
  let p = { src = s; pos = 0 } in
  let v = parse_value p in
  skip_ws p;
  if p.pos <> String.length s then fail_at p.pos "trailing garbage";
  v

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let shape_error what v =
  raise (Parse_error (Printf.sprintf "expected %s, got %s" what (to_string v)))

let member_opt key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let member key v =
  match v with
  | Obj fields ->
    (match List.assoc_opt key fields with
     | Some x -> x
     | None -> raise (Parse_error (Printf.sprintf "missing key %S" key)))
  | v -> shape_error "object" v

let get_string = function String s -> s | v -> shape_error "string" v
let get_int = function Int n -> n | v -> shape_error "int" v
let get_list = function List l -> l | v -> shape_error "list" v
