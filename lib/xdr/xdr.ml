exception Error of string

let fail fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

(* Number of zero bytes needed to pad [n] bytes to a 4-byte boundary. *)
let padding n = (4 - (n land 3)) land 3

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

(* The writer targets a plain [Bytes.t] with an explicit position instead
   of a [Buffer.t], so fixed-size words written early (array counts) can
   be patched in place once the final value is known, and a value of
   known size can be written into its exact-size result. *)
type encoder = { mutable buf : Bytes.t; mutable pos : int }

let encoder ?(size = 256) () = { buf = Bytes.create (max 8 size); pos = 0 }
let to_string e = Bytes.sub_string e.buf 0 e.pos

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

(* Single traversal: skip the count word, encode while counting, then
   write the count in place.  The old shape ([List.length] then
   [List.iter]) walked every list twice on the hot encode path. *)
let enc_array e enc_elt elts =
  ensure e 4;
  let off = e.pos in
  e.pos <- e.pos + 4;
  let n = List.fold_left (fun n elt -> enc_elt e elt; n + 1) 0 elts in
  set_u32 e.buf off n

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
(* Codecs                                                              *)
(* ------------------------------------------------------------------ *)

(* [size] is the exact encoded size where it is known without encoding,
   so a whole body of that type is written into its exact-size result. *)
type 'a codec = {
  enc : encoder -> 'a -> unit;
  dec : decoder -> 'a;
  size : ('a -> int) option;
}

let codec enc dec = { enc; dec; size = None }
let write c = c.enc
let read c = c.dec
let int = codec enc_int dec_int
let uint = codec enc_uint dec_uint
let hyper = codec enc_hyper dec_hyper
let bool = codec enc_bool dec_bool

(* A domain XML runs to about 2 KB, and growing an encoder to 2 KB by
   doubling would put a block straight into the major heap. *)
let string =
  {
    enc = enc_string;
    dec = dec_string;
    size = Some (fun s -> 4 + String.length s + padding (String.length s));
  }

let fixed_opaque n =
  codec (fun e s -> enc_fixed_opaque e n s) (fun d -> dec_fixed_opaque d n)

let unit =
  {
    enc = (fun _ () -> ());
    dec = (fun d -> if remaining d <> 0 then fail "expected empty body");
    size = Some (fun () -> 0);
  }

let raw =
  {
    enc = add_string;
    dec =
      (fun d ->
        let s = String.sub d.data d.pos (remaining d) in
        d.pos <- String.length d.data;
        s);
    size = Some String.length;
  }

let array c = codec (fun e l -> enc_array e c.enc l) (fun d -> dec_array d c.dec)
let option c = codec (fun e o -> enc_option e c.enc o) (fun d -> dec_option d c.dec)
let conv f g c = codec (fun e v -> c.enc e (f v)) (fun d -> g (c.dec d))

let enum what base values =
  let n = Array.length values in
  let rec index v i =
    if i = n then fail "enc: value outside the %s table" what
    else if values.(i) == v then i
    else index v (i + 1)
  in
  codec
    (fun e v -> base.enc e (index v 0))
    (fun d ->
      let i = base.dec d in
      if i >= 0 && i < n then values.(i) else fail "unknown %s %d" what i)

(* Record builders: a getter and a codec per field, in wire order, and
   the constructor.  Fields are read in sequence and the constructor is
   applied once, so a row allocates only its record. *)
let record2 (g1, c1) (g2, c2) mk =
  codec
    (fun e r -> c1.enc e (g1 r); c2.enc e (g2 r))
    (fun d -> let a = c1.dec d in mk a (c2.dec d))

let record3 (g1, c1) (g2, c2) (g3, c3) mk =
  codec
    (fun e r -> c1.enc e (g1 r); c2.enc e (g2 r); c3.enc e (g3 r))
    (fun d -> let a = c1.dec d in let b = c2.dec d in mk a b (c3.dec d))

let record4 (g1, c1) (g2, c2) (g3, c3) (g4, c4) mk =
  codec
    (fun e r -> c1.enc e (g1 r); c2.enc e (g2 r); c3.enc e (g3 r); c4.enc e (g4 r))
    (fun d ->
      let a = c1.dec d in let b = c2.dec d in let c = c3.dec d in
      mk a b c (c4.dec d))

let record5 (g1, c1) (g2, c2) (g3, c3) (g4, c4) (g5, c5) mk =
  codec
    (fun e r ->
      c1.enc e (g1 r); c2.enc e (g2 r); c3.enc e (g3 r); c4.enc e (g4 r);
      c5.enc e (g5 r))
    (fun d ->
      let a = c1.dec d in let b = c2.dec d in let c = c3.dec d in
      let x = c4.dec d in
      mk a b c x (c5.dec d))

let record6 (g1, c1) (g2, c2) (g3, c3) (g4, c4) (g5, c5) (g6, c6) mk =
  codec
    (fun e r ->
      c1.enc e (g1 r); c2.enc e (g2 r); c3.enc e (g3 r); c4.enc e (g4 r);
      c5.enc e (g5 r); c6.enc e (g6 r))
    (fun d ->
      let a = c1.dec d in let b = c2.dec d in let c = c3.dec d in
      let x = c4.dec d in let y = c5.dec d in
      mk a b c x y (c6.dec d))

let record7 (g1, c1) (g2, c2) (g3, c3) (g4, c4) (g5, c5) (g6, c6) (g7, c7) mk =
  codec
    (fun e r ->
      c1.enc e (g1 r); c2.enc e (g2 r); c3.enc e (g3 r); c4.enc e (g4 r);
      c5.enc e (g5 r); c6.enc e (g6 r); c7.enc e (g7 r))
    (fun d ->
      let a = c1.dec d in let b = c2.dec d in let c = c3.dec d in
      let x = c4.dec d in let y = c5.dec d in let z = c6.dec d in
      mk a b c x y z (c7.dec d))

let record9 (g1, c1) (g2, c2) (g3, c3) (g4, c4) (g5, c5) (g6, c6) (g7, c7)
    (g8, c8) (g9, c9) mk =
  codec
    (fun e r ->
      c1.enc e (g1 r); c2.enc e (g2 r); c3.enc e (g3 r); c4.enc e (g4 r);
      c5.enc e (g5 r); c6.enc e (g6 r); c7.enc e (g7 r); c8.enc e (g8 r);
      c9.enc e (g9 r))
    (fun d ->
      let a = c1.dec d in let b = c2.dec d in let c = c3.dec d in
      let x = c4.dec d in let y = c5.dec d in let z = c6.dec d in
      let u = c7.dec d in let v = c8.dec d in
      mk a b c x y z u v (c9.dec d))

let pair a b = record2 (fst, a) (snd, b) (fun x y -> (x, y))

let triple a b c =
  record3
    ((fun (x, _, _) -> x), a)
    ((fun (_, y, _) -> y), b)
    ((fun (_, _, z) -> z), c)
    (fun x y z -> (x, y, z))

(* ------------------------------------------------------------------ *)
(* Whole bodies                                                        *)
(* ------------------------------------------------------------------ *)

let encode c v =
  match c.size with
  | Some size ->
    let e = { buf = Bytes.create (size v); pos = 0 } in
    c.enc e v;
    Bytes.unsafe_to_string e.buf
  | None ->
    let e = encoder () in
    c.enc e v;
    to_string e

let decode c s =
  let d = decoder s in
  let v = c.dec d in
  check_consumed d;
  v
