type value =
  | P_int of int
  | P_uint of int
  | P_llong of int64
  | P_ullong of int64
  | P_double of float
  | P_bool of bool
  | P_string of string

type t = (string * value) list

let max_field_length = 80

exception Invalid of string

let fail fmt = Format.kasprintf (fun s -> raise (Invalid s)) fmt

let validate params =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (field, _) ->
      if field = "" then fail "empty parameter field name";
      if String.length field > max_field_length then
        fail "field %S exceeds %d characters" field max_field_length;
      if Hashtbl.mem seen field then fail "duplicate parameter field %S" field;
      Hashtbl.add seen field ())
    params

let tag = function
  | P_int _ -> 1
  | P_uint _ -> 2
  | P_llong _ -> 3
  | P_ullong _ -> 4
  | P_double _ -> 5
  | P_bool _ -> 6
  | P_string _ -> 7

let encode_one e (field, v) =
  Xdr.enc_string e field;
  Xdr.enc_int e (tag v);
  match v with
  | P_int n -> Xdr.enc_int e n
  | P_uint n -> Xdr.enc_uint e n
  | P_llong n -> Xdr.enc_hyper e n
  | P_ullong n -> Xdr.enc_uhyper e n
  | P_double f -> Xdr.enc_double e f
  | P_bool b -> Xdr.enc_bool e b
  | P_string s -> Xdr.enc_string e s

let encode e params =
  validate params;
  Xdr.enc_array e encode_one params

let decode_one d =
  let field = Xdr.dec_string d in
  let v =
    match Xdr.dec_int d with
    | 1 -> P_int (Xdr.dec_int d)
    | 2 -> P_uint (Xdr.dec_uint d)
    | 3 -> P_llong (Xdr.dec_hyper d)
    | 4 -> P_ullong (Xdr.dec_uhyper d)
    | 5 -> P_double (Xdr.dec_double d)
    | 6 -> P_bool (Xdr.dec_bool d)
    | 7 -> P_string (Xdr.dec_string d)
    | t -> fail "unknown typed-parameter tag %d for field %S" t field
  in
  (field, v)

let decode d =
  let params = Xdr.dec_array d decode_one in
  validate params;
  params

let type_error field expected =
  fail "field %S is present but not of type %s" field expected

let find_uint params field =
  match List.assoc_opt field params with
  | None -> None
  | Some (P_uint n) | Some (P_int n) when n >= 0 -> Some n
  | Some _ -> type_error field "unsigned int"

let find_bool params field =
  match List.assoc_opt field params with
  | None -> None
  | Some (P_bool b) -> Some b
  | Some _ -> type_error field "bool"

let find_string params field =
  match List.assoc_opt field params with
  | None -> None
  | Some (P_string s) -> Some s
  | Some _ -> type_error field "string"

let uint field v =
  if v < 0 then fail "field %S: negative value for unsigned" field;
  (field, P_uint v)

let int field v = (field, P_int v)
let bool field v = (field, P_bool v)
let string field v = (field, P_string v)
