(** Typed parameters: libvirt's [virTypedParameter].

    Extensible (field, scalar) lists used wherever an interface may grow
    new attributes without breaking the wire format — threadpool tuning,
    client limits, client identity.  Field names are bounded at 80
    characters ([VIR_TYPED_PARAM_FIELD_LENGTH]) as on the real wire. *)

type value =
  | P_int of int
  | P_uint of int
  | P_llong of int64
  | P_ullong of int64
  | P_double of float
  | P_bool of bool
  | P_string of string

type t = (string * value) list

exception Invalid of string
(** Raised on over-long or empty field names, or duplicate fields. *)

val validate : t -> unit
(** @raise Invalid as described above. *)

val encode : Xdr.encoder -> t -> unit
(** Validates, then encodes as an XDR array of (string, union). *)

val decode : Xdr.decoder -> t
(** @raise Xdr.Error on wire corruption, {!Invalid} on semantic issues. *)

(** {1 Typed accessors} — [None] when the field is absent; raise
    {!Invalid} when present with the wrong type (a caller error worth
    surfacing loudly, as libvirt does). *)

val find_uint : t -> string -> int option
val find_bool : t -> string -> bool option
val find_string : t -> string -> string option

val uint : string -> int -> string * value
(** Builders for the common cases: [uint field v]. *)

val int : string -> int -> string * value
val bool : string -> bool -> string * value
val string : string -> string -> string * value
