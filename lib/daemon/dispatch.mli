(** RPC dispatcher: the daemon's message-processing pipeline.

    Per connection: a reactor loop reassembles framed packets, decodes
    the header, routes by program number and checks the version and the
    drain.  The program's [route] then decides the call once, on the
    receiving thread: it answers the call there ([Reply]), or names the
    pool job that will ([Queue]), which the dispatcher submits to the
    server's workerpool — high-priority jobs are eligible for priority
    workers.  Either way one function finishes
    the call: handler exceptions become [Internal_error] replies, a
    reply body too big for one packet becomes an [Rpc_failure] reply
    naming its size, and a served call authenticates the client.
    Malformed packets close the connection.

    {b Overload protection.}  The reactor submits through
    {!Threadpool.submit}: when the pool's admission control sheds the
    call, it replies synchronously with [Verror.Overloaded] (carrying a
    [retry_after_ms] hint) and the handler never runs.  A job with a
    deadline (a v1.4 deadline envelope's, anchored by the route at
    receive time) is dropped with an "expired in queue" error if the
    deadline passes before a worker picks it up; while a worker runs
    it, the call runs inside an {!Ovirt_core.Reqctx.with_deadline}
    binding, so driver code can observe the remaining budget. *)

type route =
  | Reply of (string, Ovirt_core.Verror.t) result
      (** Answered on the receiving thread, now: the dispatcher finishes
          it exactly as a pool worker finishes a handler's result (size
          check, framing with the call's serial, send, authentication). *)
  | Queue of {
      priority : bool;  (** priority workers may run it *)
      deadline : float option;
          (** absolute ([Unix.gettimeofday] time): the job is answered
              "expired in queue" if it lapses before a worker takes it,
              and [run] runs inside its {!Ovirt_core.Reqctx.with_deadline} *)
      run : unit -> (string, Ovirt_core.Verror.t) result;
          (** the handler, run by a pool worker; an exception becomes
              the call's error reply ({!error_of_exn}) *)
    }
      (** A pool job, submitted through admission control. *)

type program = {
  prog_number : int;
  prog_version : int;
  route :
    Server_obj.t -> Client_obj.t -> Ovrpc.Rpc_packet.header -> string -> route;
      (** The one decision per call, made on the receiving thread after
          the version and drain checks.  That thread serves every
          connection of its reactor, so a route must never block: it may
          answer from a cache, or run a handler inside
          {!Ovirt_core.Reqctx.without_waiting} (a binding that ends
          with the handler) and queue the call when that raises
          {!Ovirt_core.Reqctx.Would_wait}.  An exception it
          raises becomes the call's error reply, as a handler's does. *)
  on_disconnect : Client_obj.t -> unit;
}

val error_of_exn : exn -> ('a, Ovirt_core.Verror.t) result
(** A handler's exception, as the error its caller gets: a
    [Virt_error]'s own error, [Rpc_failure] "malformed call body" for an
    [Xdr.Error], "bad typed parameters" for a [Typed_params.Invalid],
    and [Internal_error] "unhandled exception" for any other. *)

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
    calls are routed as above (drain, route, admission control,
    deadlines).  [authorize] runs once the handshake completes
    and the peer is known; returning [false] closes the connection before
    it is registered (the admin socket's root-only check). *)
