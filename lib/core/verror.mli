(** Library error model.

    Every public operation reports failures as a [t]: a stable numeric
    code (so errors survive the RPC boundary unchanged) plus a message.
    Codes follow libvirt's [VIR_ERR_*] granularity for the operations this
    toolkit implements. *)

type code =
  | Internal_error
  | No_connect  (** no driver accepted the URI *)
  | Invalid_conn  (** connection object already closed *)
  | Invalid_arg
  | Operation_invalid  (** wrong domain state for the request *)
  | Operation_failed
  | Operation_unsupported  (** driver does not implement the call *)
  | No_domain  (** domain lookup failed *)
  | Dup_name
  | No_network
  | No_storage_pool
  | No_storage_vol
  | Auth_failed
  | Rpc_failure  (** transport / protocol level failure *)
  | No_client  (** admin: client id not found *)
  | No_server  (** admin: server name not found *)
  | Resource_exhausted  (** host capacity, client limits *)
  | Overloaded  (** admission control shed the request; retry later *)

type t = { code : code; message : string }

exception Virt_error of t

val code_to_int : code -> int
val code_of_int : int -> code
(** Unknown ints map to [Internal_error] (forward compatibility on the
    wire, like libvirt's remote driver). *)

val code_name : code -> string
val to_string : t -> string
val pp : Format.formatter -> t -> unit

val make : code -> string -> t
val error : code -> ('a, Format.formatter, unit, ('b, t) result) format4 -> 'a
(** [error code fmt ...] builds [Error { code; message }]. *)

val raise_err : code -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise [Virt_error] directly (used at API boundaries that raise). *)

val overloaded :
  retry_after_ms:int -> ('a, Format.formatter, unit, ('b, t) result) format4 -> 'a
(** Build an [Overloaded] error carrying a retry-after hint.  The wire
    error model is code + message, so the hint is encoded as a parseable
    ["retry_after_ms=N: "] message prefix. *)

val retry_after_ms : t -> int option
(** Recover the hint from an [Overloaded] error ([None] for other codes
    or unparseable messages). *)
