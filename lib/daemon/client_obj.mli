(** Server-side client representation.

    One per accepted connection: identity gathered at accept time
    (transport, peer credentials/address), a connection timestamp, an
    authentication flag, and a serialized send path (multiple workers may
    answer one client concurrently; TLS records must not interleave). *)

type t

val create : id:int64 -> conn:Ovnet.Transport.t -> t

val id : t -> int64
val conn : t -> Ovnet.Transport.t
val connected_since : t -> float
(** Seconds since epoch. *)

val peer : t -> Ovnet.Transport.peer

val is_authenticated : t -> bool
val mark_authenticated : t -> unit

val touch : t -> unit
(** Record activity (called by the dispatcher per processed call); the
    client's admin info reports it as [last_activity]. *)

val is_closed : t -> bool
val close : t -> unit

val send_packet : t -> string -> unit
(** Mutex-serialized; silently drops if the client is gone (the reader
    loop will reap it). *)

val identity_params : t -> Ovrpc.Typed_params.t
(** The client-info typed-parameter set: transport-dependent fields
    (UNIX credentials or socket address / x509 DN) plus [readonly]. *)
