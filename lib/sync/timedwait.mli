(** Timed [Condition.wait], which the stdlib lacks.

    One shared timekeeper thread (heap of deadlines, woken through a
    self-pipe by [Unix.select]) broadcasts a caller's condition variable
    when its deadline passes, so waiters never poll.  Replaces the
    [Thread.delay] poll loops the transport and RPC-client timers used
    before the reactor refactor. *)

val wait : Mutex.t -> Condition.t -> until:float -> unit
(** [wait mutex cond ~until] must be called with [mutex] held, inside the
    caller's usual predicate loop.  Returns when [cond] is signalled, when
    [until] (absolute [Unix.gettimeofday] time) passes, or spuriously —
    the caller re-checks its predicate and the clock, exactly as with a
    plain [Condition.wait].  [~until:infinity] degrades to an untimed
    wait.  Returns immediately if [until] is already in the past.  A
    wait that returns before [until] leaves nothing behind: no broadcast
    reaches [cond] on its account later. *)
