(** Per-request context: the mode a dispatched call carries from the wire
    down into driver code, scoped to the call itself.

    A binding ({!with_deadline}, {!without_waiting}) holds for exactly
    the extent of the function it runs, on the thread that runs it: an
    inner binding shadows an outer one until it returns or raises, and a
    thread spawned inside a binding starts {!Unbounded}.

    A call may run in the {e no-wait mode} ({!without_waiting}): the
    daemon's receiving thread runs [Inline] calls that way, a deadline
    envelope's inner call too, because it serves every connection of its
    reactor and so must never block.  A lock section in that mode only
    tries the lock, and code that would wait raises {!Would_wait} rather
    than fail the call. *)

exception Would_wait
(** The calling thread runs in the no-wait mode and would have to wait
    (a node lock that is not free, simulated hypervisor time).  Nothing
    has changed: the caller runs the call again where it may wait. *)

type mode =
  | Unbounded  (** No binding: waits are not bounded. *)
  | Until of float
      (** Waits give up at this absolute deadline ([Unix.gettimeofday]
          time). *)
  | No_wait  (** Waits are not allowed at all. *)

val current : unit -> mode
(** The innermost binding around the caller; {!Unbounded} outside any. *)

val with_deadline : float option -> (unit -> 'a) -> 'a
(** Run [f] under [Until deadline]; [None] runs [f] as is, so an outer
    binding stays visible. *)

val without_waiting : (unit -> 'a) -> 'a
(** Run [f] in the no-wait mode.  @raise Would_wait from [f]. *)

val check : what:string -> unit -> (unit, Verror.t) result
(** [Operation_failed] "deadline expired before [what]" once the
    caller's deadline has passed.  The no-wait mode is not an expired
    deadline. *)
