(** RPC dispatcher: the daemon's message-processing pipeline.

    Per connection: a reactor loop reassembles framed packets, decodes
    the header, routes by program number and queues a job on the
    server's workerpool — high-priority procedures are eligible for
    priority workers.  The worker decodes the body, executes, and sends the reply
    (worker-side serialization through {!Client_obj.send_packet}).
    Malformed packets close the connection; handler exceptions become
    [Internal_error] replies.

    {b Overload protection.}  The reactor submits through
    {!Threadpool.submit}: when the pool's admission control sheds the
    call, it replies synchronously with [Verror.Overloaded] (carrying a
    [retry_after_ms] hint) and the handler never runs.
    Calls carrying a deadline envelope (see [peek_deadline]) are dropped
    with an "expired in queue" error if the deadline passes before a
    worker picks them up; while a worker runs the call, the deadline is
    installed in {!Ovirt_core.Reqctx} so driver code can observe the remaining
    budget. *)

type program = {
  prog_number : int;
  prog_version : int;
  high_priority : int -> bool;  (** by wire procedure number *)
  peek_deadline : procedure:int -> body:string -> (float * int) option;
      (** Peek at a call at receive time: when it is a deadline envelope,
          return the absolute deadline (anchored now from the relative
          wire budget) and the inner wire procedure number, used for
          priority classification.  Return [None] for ordinary calls. *)
  try_fast_reply :
    (Server_obj.t ->
    Client_obj.t ->
    Ovrpc.Rpc_packet.header ->
    string ->
    bool)
    option;
      (** Synchronous fast path, consulted on the receiving thread after
          the version and drain checks but before pool submission.
          Returning [true] means the hook already sent the reply (e.g. a
          cached pre-framed reply with the serial word patched) and the
          call is finished; [false] falls through to normal dispatch.
          Hooks must be cheap, non-blocking, and never raise.  [None]
          disables the fast path for the program. *)
  handle :
    Server_obj.t ->
    Client_obj.t ->
    Ovrpc.Rpc_packet.header ->
    string ->
    (string, Ovirt_core.Verror.t) result;
  on_disconnect : Client_obj.t -> unit;
}

val keepalive_program : program
(** {!Protocol.Keepalive_protocol}: answers PING with the empty Status_ok
    reply (the PONG).  Served even while the server drains, and never
    counts as authentication. *)

val attach_endpoint :
  Server_obj.t ->
  program list ->
  reactor:Ovreactor.Reactor.t ->
  pool:Ovreactor.Bufpool.t ->
  ?authorize:(Ovnet.Transport.t -> bool) ->
  kind:Ovnet.Transport.kind ->
  Ovnet.Chan.endpoint ->
  unit
(** The daemon's connection front end (use from a
    {!Ovnet.Netsim.listen_direct} sink): register the raw accepted
    endpoint with [reactor] and return immediately.  The reactor drives a
    per-connection state machine — transport handshake, then
    header-read/payload-read packet framing with receive buffers borrowed
    from [pool] only while a partial packet is stashed — and decoded
    calls take the workerpool submission path (admission control,
    deadlines and drain).  [authorize] runs once the handshake completes
    and the peer is known; returning [false] closes the connection before
    it is registered (the admin socket's root-only check). *)
