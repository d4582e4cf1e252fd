exception Error of string

let fail fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

(* Number of zero bytes needed to pad [n] bytes to a 4-byte boundary. *)
let padding n = (4 - (n land 3)) land 3

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

(* The writer targets a plain [Bytes.t] with an explicit position instead
   of a [Buffer.t].  This buys the hot reply path three things a Buffer
   cannot offer: the backing storage can be supplied by the caller (so the
   reactor can lend pooled buffers), the encoder can be [reset] and reused
   across packets without reallocating, and fixed-size words written early
   (array counts, frame headers) can be patched in place once the final
   value is known. *)
type encoder = { mutable buf : Bytes.t; mutable pos : int }

let encoder ?(size = 256) () = { buf = Bytes.create (max 8 size); pos = 0 }
let encoder_of_bytes buf = { buf; pos = 0 }
let to_string e = Bytes.sub_string e.buf 0 e.pos
let length e = e.pos
let reset e = e.pos <- 0

let ensure e n =
  let need = e.pos + n in
  let cap = Bytes.length e.buf in
  if need > cap then begin
    let cap' = ref (max 32 (cap * 2)) in
    while !cap' < need do
      cap' := !cap' * 2
    done;
    let buf = Bytes.create !cap' in
    Bytes.blit e.buf 0 buf 0 e.pos;
    e.buf <- buf
  end

let set_u32 buf off v =
  Bytes.unsafe_set buf off (Char.unsafe_chr ((v lsr 24) land 0xff));
  Bytes.unsafe_set buf (off + 1) (Char.unsafe_chr ((v lsr 16) land 0xff));
  Bytes.unsafe_set buf (off + 2) (Char.unsafe_chr ((v lsr 8) land 0xff));
  Bytes.unsafe_set buf (off + 3) (Char.unsafe_chr (v land 0xff))

let enc_raw_u32 e v =
  ensure e 4;
  set_u32 e.buf e.pos v;
  e.pos <- e.pos + 4

let reserve e n =
  ensure e n;
  let off = e.pos in
  Bytes.fill e.buf off n '\000';
  e.pos <- e.pos + n;
  off

let patch_u32 e off v =
  if off < 0 || off + 4 > e.pos then
    fail "patch_u32: offset %d outside encoded range [0,%d)" off e.pos;
  if v < 0 || v > 0xffff_ffff then fail "patch_u32: %d out of uint32 range" v;
  set_u32 e.buf off v

let enc_int e v =
  if v < -0x8000_0000 || v > 0x7fff_ffff then
    fail "enc_int: %d out of int32 range" v;
  enc_raw_u32 e (v land 0xffff_ffff)

let enc_uint e v =
  if v < 0 || v > 0xffff_ffff then fail "enc_uint: %d out of uint32 range" v;
  enc_raw_u32 e v

let enc_hyper e v =
  enc_raw_u32 e (Int64.to_int (Int64.shift_right_logical v 32) land 0xffff_ffff);
  enc_raw_u32 e (Int64.to_int (Int64.logand v 0xffff_ffffL))

let enc_uhyper = enc_hyper

let enc_bool e b = enc_raw_u32 e (if b then 1 else 0)
let enc_double e f = enc_hyper e (Int64.bits_of_float f)

let enc_pad e n =
  let p = padding n in
  if p > 0 then begin
    ensure e p;
    Bytes.fill e.buf e.pos p '\000';
    e.pos <- e.pos + p
  end

let add_string e s =
  let n = String.length s in
  ensure e n;
  Bytes.blit_string s 0 e.buf e.pos n;
  e.pos <- e.pos + n

let enc_raw = add_string

let enc_string e s =
  let n = String.length s in
  enc_uint e n;
  add_string e s;
  enc_pad e n

let enc_fixed_opaque e n s =
  if String.length s <> n then
    fail "enc_fixed_opaque: expected %d bytes, got %d" n (String.length s);
  add_string e s;
  enc_pad e n

(* Single traversal: reserve the count word, encode while counting, then
   patch the count in place.  The old shape ([List.length] then
   [List.iter]) walked every list twice on the hot encode path. *)
let enc_array e enc_elt elts =
  let off = reserve e 4 in
  let n = List.fold_left (fun n elt -> enc_elt e elt; n + 1) 0 elts in
  patch_u32 e off n

let enc_option e enc_elt = function
  | None -> enc_bool e false
  | Some v ->
    enc_bool e true;
    enc_elt e v

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

type decoder = { data : string; mutable pos : int }

let decoder data = { data; pos = 0 }
let pos d = d.pos
let remaining d = String.length d.data - d.pos

let need d n =
  if remaining d < n then
    fail "decode: need %d bytes at offset %d, only %d remain" n d.pos
      (remaining d)

(* One word read and no allocation: the int32 stays unboxed.  Without
   flambda a local helper closure would be allocated on every call, and
   a listing row decodes about a dozen words. *)
let dec_raw_u32 d =
  need d 4;
  let v = Int32.to_int (String.get_int32_be d.data d.pos) land 0xffff_ffff in
  d.pos <- d.pos + 4;
  v

let dec_uint = dec_raw_u32

let dec_int d =
  let v = dec_raw_u32 d in
  if v land 0x8000_0000 <> 0 then v - 0x1_0000_0000 else v

let dec_hyper d =
  let hi = dec_raw_u32 d in
  let lo = dec_raw_u32 d in
  Int64.logor
    (Int64.shift_left (Int64.of_int hi) 32)
    (Int64.of_int lo)

let dec_uhyper = dec_hyper

let dec_bool d =
  match dec_raw_u32 d with
  | 0 -> false
  | 1 -> true
  | v -> fail "dec_bool: invalid boolean %d" v

let dec_double d = Int64.float_of_bits (dec_hyper d)

let dec_pad d n =
  let p = padding n in
  need d p;
  for i = 0 to p - 1 do
    if d.data.[d.pos + i] <> '\000' then
      fail "decode: non-zero padding at offset %d" (d.pos + i)
  done;
  d.pos <- d.pos + p

let dec_string d =
  let n = dec_uint d in
  need d n;
  let s = String.sub d.data d.pos n in
  d.pos <- d.pos + n;
  dec_pad d n;
  s

let dec_fixed_opaque d n =
  need d n;
  let s = String.sub d.data d.pos n in
  d.pos <- d.pos + n;
  dec_pad d n;
  s

let dec_array d dec_elt =
  let n = dec_uint d in
  (* Sanity bound: each element needs at least one byte on the wire, so a
     count exceeding the remaining bytes is certainly malformed and would
     otherwise allocate an attacker-chosen amount of memory. *)
  if n > remaining d then fail "dec_array: count %d exceeds payload" n;
  if n = 0 then []
  else begin
    (* Pre-size through an array and decode in wire order with plain
       loops; [List.init n (fun _ -> dec_elt d)] allocated a closure and
       leaned on an unspecified evaluation order. *)
    let first = dec_elt d in
    let arr = Array.make n first in
    for i = 1 to n - 1 do
      Array.unsafe_set arr i (dec_elt d)
    done;
    Array.to_list arr
  end

let dec_option d dec_elt = if dec_bool d then Some (dec_elt d) else None

let check_consumed d =
  if remaining d <> 0 then
    fail "decode: %d trailing bytes at offset %d" (remaining d) d.pos

(* ------------------------------------------------------------------ *)
(* Whole-value helpers                                                 *)
(* ------------------------------------------------------------------ *)

let encode enc v =
  let e = encoder () in
  enc e v;
  to_string e

(* A lone string knows its encoded size up front (length word, bytes,
   padding), so it is written into its exact-size result: no encoder to
   grow, no final copy. *)
let encode_string s =
  let n = String.length s in
  let e = encoder_of_bytes (Bytes.create (4 + n + padding n)) in
  enc_string e s;
  Bytes.unsafe_to_string e.buf

let decode dec s =
  let d = decoder s in
  let v = dec d in
  check_consumed d;
  v
