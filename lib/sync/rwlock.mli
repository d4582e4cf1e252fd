(** Writer-preferring reader–writer lock.

    The management workload is read-mostly: monitoring clients poll
    [dom_get_info]/[list_domains] continuously while lifecycle changes are
    rare.  A coarse mutex serializes the readers behind each other; this
    lock lets any number of readers hold the lock together while writers
    get exclusive access.

    {b Preference.}  A reader that arrives while a writer is waiting
    blocks until that writer (and any writers queued behind it) has run:
    a continuous stream of readers therefore cannot starve a writer,
    which matters precisely because the workload is read-mostly.

    {b Non-reentrant.}  Acquiring the lock (in either mode) while the
    calling thread already holds it deadlocks, like [Mutex.t].  Section
    code must not re-enter the lock; run callbacks that may re-enter the
    owning subsystem outside the section.

    {b One wait path.}  Bounded and unbounded sections queue the same
    way; a bounded waiter only differs in giving up at its deadline.  A
    bounded writer counts as waiting like any other, so writer preference
    holds for it too. *)

type t

val create : unit -> t
(** A fresh, unheld lock. *)

val with_read : t -> (unit -> 'a) -> 'a
(** Run a shared section: any number of [with_read] sections proceed
    together; mutually exclusive with [with_write] sections.  Releases on
    exception. *)

val with_write : t -> (unit -> 'a) -> 'a
(** Run an exclusive section.  Releases on exception. *)

val with_read_until :
  t -> deadline:float -> (unit -> 'a) -> ('a, [ `Timeout ]) result
(** Like {!with_read}, but give up (without running [f]) if the lock
    cannot be acquired by the absolute [deadline] ([Unix.gettimeofday]
    scale).  The waiter sleeps on the lock's condition until it is woken
    or the deadline passes ({!Timedwait.wait}); it never polls. *)

val with_write_until :
  t -> deadline:float -> (unit -> 'a) -> ('a, [ `Timeout ]) result
(** Exclusive-section counterpart of {!with_read_until}.  While it waits
    the writer bars new readers; when it gives up it lets them in again
    and passes on any hand-off it was given to the next queued writer. *)

val active_readers : t -> int
(** Number of threads currently inside a shared section (diagnostics). *)

val waiting_writers : t -> int
(** Number of threads blocked waiting for exclusive access
    (diagnostics). *)
