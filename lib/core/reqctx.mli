(** Per-request context: the deadline a dispatched call carries from the
    wire down into driver code, bound to the worker thread that runs the
    call. *)

val deadline : unit -> float option
(** The calling thread's absolute deadline ([Unix.gettimeofday] time). *)

val with_deadline : float option -> (unit -> 'a) -> 'a
(** Run [f] with the deadline bound to the calling thread (unbound again
    when [f] returns or raises); [None] runs [f] as is. *)

val remaining_s : unit -> float option

val check : what:string -> unit -> (unit, Verror.t) result
(** [Operation_failed] "deadline expired before [what]" once the calling
    thread's deadline has passed. *)
