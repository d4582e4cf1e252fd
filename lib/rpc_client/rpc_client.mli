(** Client-side RPC engine shared by the remote driver and the admin
    library.

    Each connection runs one thread, its receiver.  It demultiplexes the
    connection: replies are matched to blocked callers by serial, event
    packets are handed to the [on_event] callback, and with keepalive it
    also pings a silent peer and declares it dead.  A call timeout is
    enforced by the waiting caller on {!Ovsync.Timedwait}.  Multiple
    threads may issue {!call}s concurrently; sends are serialized by the
    transport layer. *)

type t

type keepalive = { ka_interval : float; ka_count : int }
(** libvirt-style keepalive: when the connection has been silent for
    [ka_interval] seconds a PING is sent ({!Protocol.Keepalive_protocol});
    after [ka_interval × ka_count] seconds with no traffic at all the peer
    is declared dead, the transport closed and every pending call failed
    with [Rpc_failure].  [ka_count] must be at least 1. *)

val connect :
  address:string ->
  kind:Ovnet.Transport.kind ->
  program:int ->
  version:int ->
  ?identity:Ovnet.Transport.unix_identity ->
  ?faults:Ovnet.Faults.plan ->
  ?keepalive:keepalive ->
  ?on_event:(procedure:int -> string -> unit) ->
  unit ->
  (t, Ovirt_core.Verror.t) result
(** Establish the transport and start the receiver, the connection's
    only thread.  [Connection_refused] surfaces as a [Rpc_failure]
    error.  [faults] attaches a client-side fault plan (tests/chaos
    only).  Without [keepalive] a silent dead peer is only noticed when
    the transport closes. *)

val call :
  t -> procedure:int -> ?body:string -> ?timeout_s:float -> unit ->
  (string, Ovirt_core.Verror.t) result
(** Send one call and block for its reply (no timeout unless given;
    the receiver fails all pending calls when the connection dies).
    [Status_error] replies come back as their decoded error; a dead
    connection, keepalive death or timeout is [Rpc_failure]. *)

val set_raw_reply_hook : t -> (string -> unit) option -> unit
(** Observe every framed reply packet exactly as it came off the wire
    (length prefix, header, body), before demultiplexing.  A testing
    seam: the reply-cache byte-equality harness records raw frames from
    cache-on and cache-off connections and asserts they differ only in
    the serial word.  Runs on the receiver thread; exceptions are
    swallowed.  [None] removes the hook. *)

type future
(** One in-flight call issued with {!call_async}. *)

val call_async :
  t -> procedure:int -> ?body:string -> ?timeout_s:float -> unit ->
  (future, Ovirt_core.Verror.t) result
(** Send one call without waiting: a single thread can pipeline many
    calls on the connection and collect the replies with {!await}.
    Only the send itself can fail here; everything the blocking {!call}
    reports arrives through {!await}.  [timeout_s] is enforced by
    {!await}: a future that is never awaited never times out, and its
    serial stays pending until a reply or the connection's death.  Slots
    behind futures come from a per-client pool, so pipelined fan-out
    allocates no Mutex+Condition pairs in steady state. *)

val await : future -> (string, Ovirt_core.Verror.t) result
(** Block until the call completes, or until its timeout passes: the
    call then fails with [Rpc_failure] ("timed out") and a reply that
    arrives later is dropped.  Idempotent: the outcome is cached on the
    future.  {!call} ≡ {!call_async} + {!await}. *)

val close : t -> unit
(** Idempotent; fails all in-flight calls (exactly once, whoever closes
    first — local close, receiver failure or keepalive — wins). *)

val is_closed : t -> bool

val pending_calls : t -> int
(** In-flight calls awaiting a reply (observability/tests). *)

val bytes_tx : t -> int
val bytes_rx : t -> int
