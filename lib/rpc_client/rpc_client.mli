(** Client-side RPC engine shared by the remote driver and the admin
    library.

    Replies are matched to their callers by serial, and event packets are
    handed to the [on_event] callback, by whichever thread reads the
    connection; one thread reads at a time, so frames are handled in
    wire order.  Every call belongs to a fan: the read sides one thread
    holds while it waits for replies.  Inside {!fan_out} that is the
    fan-out's fan, which takes the read side of each connection it
    {!send}s on when it is free and keeps it until the [fan_out]
    returns; outside, it is a fan of one made for the call, which takes
    the free read side and hands it back when the call is awaited.  An
    awaiting thread reads what its fan holds until its own reply, its
    timeout or the connection's death, handling every frame that
    arrives — other callers' replies, events — when it lands.  A fan
    that holds just the awaited call's connection sleeps in that
    connection's read; one that holds several sleeps on the call's own
    slot, which their readiness hooks wake.  A lone call thus crosses
    no thread of this client, and no other thread wakes for a reply a
    fan reads.  When another thread reads the connection the caller
    follows: its fan holds nothing of it, the reader delivers to the
    call's slot, and the fan takes the read side as soon as the reader
    hands it back.  Each connection still runs one thread, its
    receiver, which parks until the connection turns readable while
    nobody reads it (events between calls, a close), until keepalive is
    due on an idle connection, or until it is handed work ({!defer}).
    With keepalive, a calling thread that reads pings a silent peer and
    declares it dead just as the receiver does.  A call timeout is
    enforced by the waiting caller on {!Ovsync.Timedwait}.  Multiple
    threads may issue {!call}s concurrently; sends are serialized by the
    transport layer.

    [on_event] and the raw-reply hook run on whichever thread reads,
    with whatever locks that caller holds: they must not block, call,
    or take a lock a caller holds across a call.  Work that may — an
    event subscriber — is handed to the receiver with {!defer}, which
    runs it holding no read side.  A call from there is an ordinary
    call: it takes the free read side or follows its reader, and no
    thread ever waits for a thread that waits for it. *)

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
    frame, before any later frame is handled; it must not block or call
    (see above).  [Connection_refused] surfaces as a [Rpc_failure]
    error.  [faults] attaches a client-side fault plan (tests/chaos
    only).  Without [keepalive] a silent dead peer is only noticed when
    the transport closes. *)

val call :
  t -> procedure:int -> ?body:string -> ?timeout_s:float -> unit ->
  (string, Ovirt_core.Verror.t) result
(** {!send} followed by {!await}: send one call and block for its reply
    (no timeout unless given; the reader fails all pending calls when
    the connection dies).  [Status_error] replies come back as their
    decoded error; a dead connection, keepalive death or timeout is
    [Rpc_failure]. *)

val set_raw_reply_hook : t -> (string -> unit) option -> unit
(** Observe every framed reply packet exactly as it came off the wire
    (length prefix, header, body), before demultiplexing.  A testing
    seam: the reply-cache byte-equality harness records raw frames from
    cache-on and cache-off connections and asserts they differ only in
    the serial word.  Runs on the thread that read the frame: the
    receiver, or a calling thread; exceptions are swallowed.
    [None] removes the hook. *)

type future
(** One in-flight call, issued with {!send}. *)

val send :
  t -> procedure:int -> ?body:string -> ?timeout_s:float -> unit ->
  (future, Ovirt_core.Verror.t) result
(** {!call}'s first half: send one call without waiting for its reply,
    in the current {!fan_out}'s fan, or outside one in a fan of one,
    which takes the read side when it is free.  Await every future
    [send] returns (with {!await} or {!await_until}): until then a fan
    of one keeps its read side and no other thread reads the connection.
    Outside {!fan_out} await each future before the next [send] on the
    same connection; to keep several calls in flight, send them inside
    one.  Only the send itself fails here; everything else {!call}
    reports arrives through {!await}.  A call whose packet would exceed
    [Rpc_packet.max_packet_size] is not sent: [Rpc_failure], and the
    connection stays usable.  [timeout_s] is enforced by {!await}: a
    future that is never awaited never times out, and its serial stays
    pending until a reply or the connection's death.  Slots behind
    futures come from a per-client pool, so pipelined calls allocate no
    Mutex+Condition pairs in steady state. *)

val fan_out : (unit -> 'a) -> 'a
(** [fan_out f] runs [f] as one fan: each {!send} [f] makes takes the
    connection's read side for the fan when it is free, and keeps it
    until [f] returns (or raises), when every one is handed back.
    Awaiting any future sent inside, read by the fan or followed, reads
    every connection of the fan until that future's outcome, so no
    reply, event or other caller waits for the thread to get round to
    its connection.  Await each such future inside [f]
    ([Invalid_argument] after).  A [fan_out] inside another on the same
    thread joins the outer one. *)

val await : future -> (string, Ovirt_core.Verror.t) result
(** Block until the call completes, reading what the future's fan holds
    (see above), or until its timeout passes: the call then fails with
    [Rpc_failure] ("timed out") and a reply that arrives later is
    dropped.  A fan of one hands its read side back.  Idempotent: the
    outcome is cached on the future. *)

val await_until :
  future -> until:float -> (string, Ovirt_core.Verror.t) result option
(** {!await}, giving up at [until]: [None] when neither the reply nor
    the call's own timeout came first.  The call is then abandoned: a
    reply that arrives later is dropped, a fan of one hands its read
    side back, and awaiting again returns an [Rpc_failure]. *)

val defer : t -> (unit -> unit) -> unit
(** [defer t run] hands [run] to [t]'s receiver, which runs it after
    every run deferred before it, holding no read side: not before it
    has handed back a read side it holds, and never on a calling thread.
    [run] may block or call; while it does, it delays later runs and the
    receiver's idle reads, but no call, which reads for itself.  An
    exception it raises is dropped.  A receiver whose connection has
    died runs what was deferred before it ends; a run deferred after
    that is dropped. *)

val close : t -> unit
(** Idempotent; fails all in-flight calls (exactly once, whoever closes
    first — local close, read failure or keepalive — wins). *)

val is_closed : t -> bool

val pending_calls : t -> int
(** In-flight calls awaiting a reply (observability/tests). *)

val bytes_tx : t -> int
val bytes_rx : t -> int
