(** XDR (External Data Representation, RFC 4506 subset) codec.

    This is the wire serialization used by the daemon protocol, mirroring
    libvirt's use of XDR for every RPC body.  All quantities are big-endian
    and padded to 4-byte boundaries, as the standard requires.

    A wire type is stated once, as a {!codec}: the encoder and decoder of
    one layout, built from the primitive codecs with {!array}, {!option},
    {!enum}, {!conv} and the record builders.  {!encode} and {!decode}
    turn a codec into a whole-body function.  Decoding failures raise
    {!Error} rather than returning options: a malformed packet aborts the
    whole message.

    The encoder and decoder cursors underneath stay public for layouts
    that are not codecs (typed parameters, a spliced cached body). *)

exception Error of string
(** Raised on malformed input: truncated data, out-of-range values,
    non-zero padding, or a trailing-garbage check failure. *)

(** {1 Encoding} *)

type encoder

val encoder : ?size:int -> unit -> encoder
(** Fresh encoder with an empty buffer of [size] (default 256) bytes
    initial capacity. *)

val to_string : encoder -> string
(** Contents encoded so far (one copy). *)

val enc_int : encoder -> int -> unit
(** Signed 32-bit integer.  @raise Error if out of int32 range. *)

val enc_uint : encoder -> int -> unit
(** Unsigned 32-bit integer.  @raise Error if negative or >= 2^32. *)

val enc_hyper : encoder -> int64 -> unit
(** Signed 64-bit integer. *)

val enc_uhyper : encoder -> int64 -> unit
(** Unsigned 64-bit integer (carried as int64 bits). *)

val enc_bool : encoder -> bool -> unit
(** Boolean as 0/1 in a 32-bit word. *)

val enc_double : encoder -> float -> unit
(** IEEE-754 double, 8 bytes. *)

val enc_raw : encoder -> string -> unit
(** Append bytes verbatim — no length word, no padding.  For splicing an
    already-XDR-encoded value into a larger one. *)

val enc_string : encoder -> string -> unit
(** Variable-length string: u32 length, bytes, zero padding to 4. *)

val enc_array : encoder -> (encoder -> 'a -> unit) -> 'a list -> unit
(** Counted array: u32 element count then each element. *)

(** {1 Decoding} *)

type decoder

val decoder : string -> decoder
(** Decoder positioned at the start of [s]. *)

val dec_int : decoder -> int
val dec_uint : decoder -> int
val dec_hyper : decoder -> int64
val dec_uhyper : decoder -> int64
val dec_bool : decoder -> bool
val dec_double : decoder -> float
val dec_string : decoder -> string
val dec_array : decoder -> (decoder -> 'a) -> 'a list

(** {1 Codecs} *)

type 'a codec
(** The encoder and the decoder of one wire layout. *)

val codec : (encoder -> 'a -> unit) -> (decoder -> 'a) -> 'a codec
(** A codec from a hand-written pair, for a layout the combinators do
    not cover (a discriminated union, typed parameters). *)

val write : 'a codec -> encoder -> 'a -> unit
val read : 'a codec -> decoder -> 'a
(** A codec's two halves, for a hand-written layout that embeds it. *)

val int : int codec
val uint : int codec
val hyper : int64 codec
val bool : bool codec

val string : string codec
(** {!encode} writes a string body into its exact-size result. *)

val fixed_opaque : int -> string codec
(** Exactly [n] bytes, padded to 4.  Encoding raises {!Error} on a
    string of another length. *)

val unit : unit codec
(** The empty body.  Decoding raises [Error "expected empty body"] if
    any byte is left, so it only ends a layout. *)

val raw : string codec
(** The rest of the body, verbatim: for a body another layer frames (an
    echoed payload, an enveloped call's reply).  It is the one codec for
    which a strict prefix of an encoding decodes. *)

val array : 'a codec -> 'a list codec
(** Counted array.  A count larger than the bytes left is rejected
    before anything is allocated. *)

val option : 'a codec -> 'a option codec
(** Bool discriminant, then the payload if present. *)

val conv : ('b -> 'a) -> ('a -> 'b) -> 'a codec -> 'b codec
(** [conv f g c] writes [f v] with [c] and reads [g] of what [c] reads.
    [g] may raise {!Error} for a wire value with no ['b]. *)

val enum : string -> int codec -> 'a array -> 'a codec
(** [enum what base values]: constant constructors as their index in
    [values], written with [base].  An index outside the table decodes
    to [Error "unknown <what> <n>"]. *)

(** {2 Records}

    [recordN (get1, codec1) … (getN, codecN) make]: the fields in wire
    order, each with its getter, and the constructor.  Decoding applies
    [make] once, so a row allocates only what [make] builds. *)

val record2 : ('r -> 'a) * 'a codec -> ('r -> 'b) * 'b codec -> ('a -> 'b -> 'r) -> 'r codec

val record3 :
  ('r -> 'a) * 'a codec -> ('r -> 'b) * 'b codec -> ('r -> 'c) * 'c codec ->
  ('a -> 'b -> 'c -> 'r) -> 'r codec

val record4 :
  ('r -> 'a) * 'a codec -> ('r -> 'b) * 'b codec -> ('r -> 'c) * 'c codec ->
  ('r -> 'd) * 'd codec -> ('a -> 'b -> 'c -> 'd -> 'r) -> 'r codec

val record5 :
  ('r -> 'a) * 'a codec -> ('r -> 'b) * 'b codec -> ('r -> 'c) * 'c codec ->
  ('r -> 'd) * 'd codec -> ('r -> 'e) * 'e codec ->
  ('a -> 'b -> 'c -> 'd -> 'e -> 'r) -> 'r codec

val record6 :
  ('r -> 'a) * 'a codec -> ('r -> 'b) * 'b codec -> ('r -> 'c) * 'c codec ->
  ('r -> 'd) * 'd codec -> ('r -> 'e) * 'e codec -> ('r -> 'f) * 'f codec ->
  ('a -> 'b -> 'c -> 'd -> 'e -> 'f -> 'r) -> 'r codec

val record7 :
  ('r -> 'a) * 'a codec -> ('r -> 'b) * 'b codec -> ('r -> 'c) * 'c codec ->
  ('r -> 'd) * 'd codec -> ('r -> 'e) * 'e codec -> ('r -> 'f) * 'f codec ->
  ('r -> 'g) * 'g codec -> ('a -> 'b -> 'c -> 'd -> 'e -> 'f -> 'g -> 'r) -> 'r codec

val record9 :
  ('r -> 'a) * 'a codec -> ('r -> 'b) * 'b codec -> ('r -> 'c) * 'c codec ->
  ('r -> 'd) * 'd codec -> ('r -> 'e) * 'e codec -> ('r -> 'f) * 'f codec ->
  ('r -> 'g) * 'g codec -> ('r -> 'h) * 'h codec -> ('r -> 'i) * 'i codec ->
  ('a -> 'b -> 'c -> 'd -> 'e -> 'f -> 'g -> 'h -> 'i -> 'r) -> 'r codec

val pair : 'a codec -> 'b codec -> ('a * 'b) codec
val triple : 'a codec -> 'b codec -> 'c codec -> ('a * 'b * 'c) codec

(** {1 Whole bodies} *)

val encode : 'a codec -> 'a -> string
(** One value as a whole body. *)

val decode : 'a codec -> string -> 'a
(** One value from a whole body; bytes left over raise {!Error}. *)
