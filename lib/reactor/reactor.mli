(** Readiness-driven event loop — the simulated-epoll core of the
    daemon's connection front end.

    One reactor owns one thread.  Channels are registered as watches;
    {!Ovnet.Chan} readiness hooks enqueue the watch on the ready list
    whenever the channel gains a message or closes, and signal the loop
    when it is parked on its condition variable.  Callbacks run on the
    reactor thread with no reactor lock held: they may watch, unwatch,
    and even {!stop} the reactor. *)

type t

type watch

type stats = {
  loops : int;  (** loop iterations (dispatches + parks) *)
  dispatches : int;  (** watch callbacks run *)
  wakeups : int;  (** signals to a parked loop: one per burst of readiness *)
  watches_active : int;
}

val create : ?name:string -> logger:Vlog.t -> unit -> t
(** Spawns the loop thread immediately.  A callback that raises is
    logged as a warning on [logger]. *)

val name : t -> string

val watch_chan : t -> Ovnet.Chan.t -> (unit -> unit) -> watch
(** Register interest.  Watches are edge-triggered: the callback runs
    once per hook event (send/close) or {!kick}, and must drain the
    channel completely or it will stall.  Registration itself reports
    no readiness — data already queued does not fire the callback until
    {!kick}; this lets the caller finish its own bookkeeping before the
    first dispatch. *)

val kick : t -> watch -> unit
(** Enqueue the watch as if its channel had just become ready (used right
    after {!watch_chan} when the channel may already hold data, and safe
    any time — callbacks tolerate spurious readiness by construction). *)

val unwatch : t -> watch -> unit
(** Deregister.  The callback will not run again (a queued-but-undispatched
    readiness event is discarded).  Idempotent. *)

val stats : t -> stats

val stop : t -> unit
(** Drain already-queued readiness events, then stop and join the loop
    thread.  Safe to call from a callback (the join is skipped on the
    reactor's own thread).  Idempotent. *)
