(** Client-side RPC engine shared by the remote driver and the admin
    library.

    Replies are matched to their callers by serial, and event packets are
    handed to the [on_event] callback, by whichever thread reads the
    connection; one thread reads at a time, so frames are handled in
    wire order.  A caller awaiting its reply reads the connection itself
    when no other thread does (it leads): it handles every frame that
    arrives — other callers' replies, events — until its own reply, its
    timeout or the connection's death, then hands the read side back.
    A lone call thus crosses no thread of this client.  A fan-out does
    the same across connections: inside {!fan_out}, one thread {!send}s
    a call on each, its fan taking every read side it can, then awaits
    the replies.  While it waits for any one of them it reads every
    connection of the fan, in the order frames arrive, so a reply of
    its own, another caller's reply or an event is handled when it
    lands, and no other thread wakes for it.  Each connection
    still runs one thread, its receiver, which parks until the
    connection turns readable while nobody reads it: it serves calls
    that overlap a leader (they wait on their slots), events between
    calls, and keepalive on an idle connection.  With keepalive, a
    leader pings a silent peer and declares it dead just as the receiver
    does.  A call timeout is enforced by the waiting caller on
    {!Ovsync.Timedwait}.  Multiple threads may issue {!call}s
    concurrently; sends are serialized by the transport layer.

    Since a leader runs [on_event] and the raw-reply hook, both may run
    on a calling thread, inside {!call} or {!await}, with whatever locks
    that caller holds: they must not take a lock a caller holds across a
    call.  They may call on the same connection: the thread that holds
    the read side reads for its own nested call, handling the frames
    that arrive before its reply as any reader does.  A call from a
    callback on another connection, whose reader waits (through a chain
    of such calls) for this thread, would wait for good: it fails at
    once with [Rpc_failure] instead. *)

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
    only thread.  [on_event] runs on whichever thread reads the event's
    frame (see above).  [Connection_refused] surfaces as a [Rpc_failure]
    error.  [faults] attaches a client-side fault plan (tests/chaos
    only).  Without [keepalive] a silent dead peer is only noticed when
    the transport closes. *)

val call :
  t -> procedure:int -> ?body:string -> ?timeout_s:float -> unit ->
  (string, Ovirt_core.Verror.t) result
(** Send one call and block for its reply (no timeout unless given;
    the reader fails all pending calls when the connection dies).  The
    caller takes the read side before sending when it is free, and then
    reads its own reply.
    [Status_error] replies come back as their decoded error; a dead
    connection, keepalive death or timeout is [Rpc_failure]. *)

val set_raw_reply_hook : t -> (string -> unit) option -> unit
(** Observe every framed reply packet exactly as it came off the wire
    (length prefix, header, body), before demultiplexing.  A testing
    seam: the reply-cache byte-equality harness records raw frames from
    cache-on and cache-off connections and asserts they differ only in
    the serial word.  Runs on the thread that read the frame: the
    receiver, or the calling thread that led; exceptions are swallowed.
    [None] removes the hook. *)

type future
(** One in-flight call issued with {!call_async} or {!send}. *)

val call_async :
  t -> procedure:int -> ?body:string -> ?timeout_s:float -> unit ->
  (future, Ovirt_core.Verror.t) result
(** Send one call without waiting: a single thread can pipeline many
    calls on the connection and collect the replies with {!await}.
    Only the send itself can fail here; everything the blocking {!call}
    reports arrives through {!await}.  A call whose packet would exceed
    [Rpc_packet.max_packet_size] is not sent: [Rpc_failure], and the
    connection stays usable.  [timeout_s] is enforced by
    {!await}: a future that is never awaited never times out, and its
    serial stays pending until a reply or the connection's death.  Slots
    behind futures come from a per-client pool, so pipelined fan-out
    allocates no Mutex+Condition pairs in steady state. *)

val send :
  t -> procedure:int -> ?body:string -> ?timeout_s:float -> unit ->
  (future, Ovirt_core.Verror.t) result
(** {!call}'s first half: take the read side when it is free, as
    {!call} does, then send.  Outside {!fan_out} the future holds the
    read side until it is awaited, so every future [send] returns must
    be awaited (with {!await} or {!await_until}): until then no other
    thread reads the connection.  Inside {!fan_out} the fan holds it.
    A follower's wait-for check comes when it awaits, after the send.
    Failures as {!call_async}'s. *)

val fan_out : (unit -> 'a) -> 'a
(** [fan_out f] runs [f] as one fan-out: each {!send} [f] makes takes
    the connection's read side for the fan when it is free, and keeps
    it until [f] returns (or raises), when every one is handed back.
    Awaiting any future sent inside — led or followed — reads every
    connection of the fan until that future's outcome, so no reply,
    event or other caller waits for the thread to get round to its
    connection.  Await each such future inside [f] ([Invalid_argument]
    after).  A [fan_out] inside another, on one thread (a callback run
    while reading the fan), joins the outer one.  A connection this
    thread holds outside the fan — a callback's own — is read as a
    nested call, on its own. *)

val await : future -> (string, Ovirt_core.Verror.t) result
(** Block until the call completes, reading the connection when no
    other thread does, or until its timeout passes: the
    call then fails with [Rpc_failure] ("timed out") and a reply that
    arrives later is dropped.  Idempotent: the outcome is cached on the
    future.  {!call} ≡ {!send} + {!await}, but a follower that would
    close a wait-for cycle sends nothing. *)

val await_until :
  future -> until:float -> (string, Ovirt_core.Verror.t) result option
(** {!await}, giving up at [until]: [None] when neither the reply nor
    the call's own timeout came first.  The call is then abandoned: a
    reply that arrives later is dropped, the read side the future held
    outside {!fan_out} is handed back, and awaiting again returns an [Rpc_failure]. *)

val not_awaited : Ovirt_core.Verror.t -> bool
(** The [Rpc_failure] of a call that would have closed a wait-for cycle
    (see above): it says nothing about the peer. *)

val close : t -> unit
(** Idempotent; fails all in-flight calls (exactly once, whoever closes
    first — local close, read failure or keepalive — wins). *)

val is_closed : t -> bool

val pending_calls : t -> int
(** In-flight calls awaiting a reply (observability/tests). *)

val bytes_tx : t -> int
val bytes_rx : t -> int
