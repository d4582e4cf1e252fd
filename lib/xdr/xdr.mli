(** XDR (External Data Representation, RFC 4506 subset) codec.

    This is the wire serialization used by the daemon protocol, mirroring
    libvirt's use of XDR for every RPC body.  All quantities are big-endian
    and padded to 4-byte boundaries, as the standard requires.

    Encoding writes into a growable [Bytes.t] with an explicit position,
    so the backing storage can be reused ({!reset}) or supplied by the
    caller ({!encoder_of_bytes}), and fixed-width words written early can
    be patched in place ({!reserve} / {!patch_u32}).  Decoding reads from
    an immutable string with an explicit cursor.  Decoding failures raise
    {!Error} rather than returning options: a malformed packet aborts the
    whole message. *)

exception Error of string
(** Raised on malformed input: truncated data, out-of-range values,
    non-zero padding, or a trailing-garbage check failure. *)

(** {1 Encoding} *)

type encoder

val encoder : ?size:int -> unit -> encoder
(** Fresh encoder with an empty buffer of [size] (default 256) bytes
    initial capacity. *)

val encoder_of_bytes : Bytes.t -> encoder
(** Encoder writing into [buf] starting at position 0.  The encoder still
    grows (replacing its backing storage) if the encoded value outruns
    [buf]; callers lending pooled buffers should size them for the common
    case and treat growth as a graceful fallback. *)

val to_string : encoder -> string
(** Contents encoded so far (one copy). *)

val length : encoder -> int
(** Number of bytes encoded so far. *)

val reset : encoder -> unit
(** Rewind to position 0, keeping the backing buffer for reuse. *)

val reserve : encoder -> int -> int
(** [reserve e n] zero-fills and skips [n] bytes, returning their starting
    offset for a later {!patch_u32} (or out-of-band fill). *)

val patch_u32 : encoder -> int -> int -> unit
(** [patch_u32 e off v] overwrites the 4 bytes at [off] with [v] as a
    big-endian u32.  @raise Error if [off+4] exceeds the encoded length or
    [v] is out of u32 range. *)

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
    already-XDR-encoded body behind a reserved frame prefix. *)

val enc_string : encoder -> string -> unit
(** Variable-length string: u32 length, bytes, zero padding to 4. *)

val enc_fixed_opaque : encoder -> int -> string -> unit
(** [enc_fixed_opaque e n s] writes exactly [n] bytes (padded to 4).
    @raise Error if [String.length s <> n]. *)

val enc_array : encoder -> (encoder -> 'a -> unit) -> 'a list -> unit
(** Counted array: u32 element count then each element. *)

val enc_option : encoder -> (encoder -> 'a -> unit) -> 'a option -> unit
(** XDR optional: bool discriminant then the payload if present. *)

(** {1 Decoding} *)

type decoder

val decoder : string -> decoder
(** Decoder positioned at the start of [s]. *)

val pos : decoder -> int
(** Current cursor position in bytes. *)

val remaining : decoder -> int
(** Bytes left to decode. *)

val dec_int : decoder -> int
val dec_uint : decoder -> int
val dec_hyper : decoder -> int64
val dec_uhyper : decoder -> int64
val dec_bool : decoder -> bool
val dec_double : decoder -> float
val dec_string : decoder -> string
val dec_fixed_opaque : decoder -> int -> string

val dec_array : decoder -> (decoder -> 'a) -> 'a list
val dec_option : decoder -> (decoder -> 'a) -> 'a option

(** {1 Whole-value helpers} *)

val encode : (encoder -> 'a -> unit) -> 'a -> string
(** Encode a single value to a string. *)

val encode_string : string -> string
(** [encode enc_string s] in one exact-size allocation. *)

val decode : (decoder -> 'a) -> string -> 'a
(** Decode a single value, checking full consumption. *)
