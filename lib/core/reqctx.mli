(** Per-request context: the deadline a dispatched call carries from the
    wire down into driver code, bound to the thread that runs the call.

    A call may instead run in the {e no-wait mode} ({!without_waiting}):
    the daemon's receiving thread runs [Inline] calls that way, a
    deadline envelope's inner call too, because it serves every
    connection of its reactor and so must never block.  The
    mode is held where the deadline is, as the deadline [neg_infinity]:
    a bounded lock wait on it gives up at once, and code that would wait
    raises {!Would_wait} rather than fail the call. *)

exception Would_wait
(** The calling thread runs in the no-wait mode and would have to wait
    (a node lock that is not free, simulated hypervisor time).  Nothing
    has changed: the caller runs the call again where it may wait. *)

val deadline : unit -> float option
(** The calling thread's absolute deadline ([Unix.gettimeofday] time);
    [Some neg_infinity] in the no-wait mode. *)

val with_deadline : float option -> (unit -> 'a) -> 'a
(** Run [f] with the deadline bound to the calling thread (unbound again
    when [f] returns or raises); [None] runs [f] as is. *)

val without_waiting : (unit -> 'a) -> 'a
(** Run [f] in the no-wait mode.  @raise Would_wait from [f]. *)

val may_wait : unit -> bool
(** [false] in the no-wait mode. *)

val wait_expired : float -> string -> 'a
(** [wait_expired deadline what]: a wait bounded by [deadline] gave up.
    Raises {!Would_wait} in the no-wait mode, otherwise
    [Verror.Virt_error] ([Operation_failed], "deadline expired waiting
    for [what]"). *)

val remaining_s : unit -> float option

val check : what:string -> unit -> (unit, Verror.t) result
(** [Operation_failed] "deadline expired before [what]" once the calling
    thread's deadline has passed.  The no-wait mode is not an expired
    deadline. *)
