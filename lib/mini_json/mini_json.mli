(** Minimal JSON codec.

    The QEMU-like monitor protocol (QMP) speaks JSON; this module provides
    the small self-contained codec the simulator needs.  It supports the
    full JSON value grammar with the usual OCaml restrictions: numbers are
    [float] if fractional/exponent form, [int] otherwise; strings support
    the standard escapes plus [\uXXXX] for the BMP (encoded back as UTF-8). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string
(** Raised by {!of_string} on malformed input; the message includes the
    byte offset of the failure. *)

val of_string : string -> t
(** Parse a complete JSON document.  Trailing non-whitespace input is an
    error. *)

val to_string : t -> string
(** Compact (no-whitespace) serialization. *)

val pp : Format.formatter -> t -> unit
(** Same output as {!to_string}. *)

(** {1 Accessors}

    Lookup helpers used by the monitor implementations.  They raise
    {!Parse_error} on shape mismatches so protocol errors carry a message
    instead of a bare [Failure]. *)

val member : string -> t -> t
(** [member k (Obj _)] is the value bound to [k].
    @raise Parse_error if the key is absent or the value is not an object. *)

val member_opt : string -> t -> t option

val get_string : t -> string
val get_int : t -> int
val get_list : t -> t list
