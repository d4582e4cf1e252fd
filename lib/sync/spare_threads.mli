(** Threads kept parked between short jobs.

    [run] starts a job at once: on a parked thread when one is free
    (waking exactly that thread), otherwise on a new one.  A thread
    parks again when its job returns or raises.  There is no queue, so
    a job never waits behind another one, however long that one runs;
    there is no limit either, so the number of threads is the peak
    number of jobs running together. *)

type t

val create : unit -> t

val run : t -> (unit -> unit) -> unit
(** Start the job now.  An exception it raises is dropped, and its
    thread stays reusable. *)

val spawned : t -> int
(** Threads created so far: the peak concurrency [run] has seen. *)
