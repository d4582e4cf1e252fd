(** Simulated network: a process-wide registry of named listeners.

    Daemon services bind addresses (e.g. ["ovirtd-admin-sock"]); clients
    connect by name, choosing a transport {!Transport.kind}.  Each accepted
    connection's raw server endpoint is handed to the listener's sink on
    the connecting thread; the sink registers it with a reactor.

    Fault injection: a {!Faults.plan} may ride on a listener (applied to
    every accepted connection, fresh per-connection state each time) or on
    a single {!connect} (applied to the client side).  See {!Faults} for
    the semantics. *)

type listener

exception Connection_refused of string
(** No listener bound at that address, the listener was closed, or a
    fault plan refused the attempt. *)

exception Address_in_use of string

val listen_direct :
  ?faults:Faults.plan ->
  string ->
  (kind:Transport.kind -> Chan.endpoint -> unit) ->
  listener
(** Bind [addr] without per-connection threads: each accepted raw server
    endpoint is handed to the sink synchronously on the connecting
    thread.  The sink must not block — it registers the endpoint with a
    reactor (which then drives the handshake and all reads) and returns.
    This is the daemon's accept path.  [faults] applies to every
    accepted connection's server side.
    @raise Address_in_use if already bound. *)

val close_listener : listener -> unit
(** Unbind; established connections are unaffected. *)

val set_listener_faults : string -> Faults.plan option -> bool
(** Attach (or clear, with [None]) a fault plan on a bound listener at
    runtime — how chaos experiments reach into a daemon they did not
    start.  Affects connections accepted from now on; returns [false]
    when nothing listens at that address. *)

val connect :
  ?identity:Transport.unix_identity ->
  ?sock_addr:string ->
  ?faults:Faults.plan ->
  string ->
  Transport.kind ->
  Transport.t
(** Connect to a bound address.  For [Unix_sock] the presented peer is
    [identity] (default: root's); for [Tcp]/[Tls] it is [sock_addr]
    (default: a fresh synthetic address).  [faults] applies to the client
    side of this connection.
    @raise Connection_refused if nothing listens there. *)

val set_logger : Vlog.t -> unit
(** Replace the logger used for sink failures (default: warn-level
    stderr). *)

val reset : unit -> unit
(** Drop all listeners (test isolation). *)
