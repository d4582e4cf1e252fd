(** Workerpool: the daemon's concurrent task-execution engine.

    Reproduces libvirt's threadpool semantics with two crews of workers
    that run one loop and differ only in their target and their queues:

    - the {e ordinary} crew executes any job (priority jobs first); its
      target is [max_workers], and it floats between [min_workers] and
      that target, growing on demand (a job arrives and no worker is
      free);
    - the {e priority} crew is a constant-size set whose target is
      [prio_workers]; it executes only jobs flagged high-priority,
      guaranteeing that critical control operations make progress even
      when every ordinary worker is stuck on a hanging hypervisor call.

    A crew over its target shrinks cooperatively: each worker re-checks
    the target when it wakes up and when it finishes a job, and exits if
    its crew is over.  This is the deadlock-free design: no "termination
    job" is ever queued, so no lock ordering problem with the pool lock
    arises.

    On top of that sits the overload-protection layer:

    - {e admission control}: [job_queue_limit] bounds the normal-class
      queue.  Over the bound, {!submit} {b rejects} the job immediately
      with a retry-after hint — it never blocks the submitter and never
      queues past the limit.  High-priority (control-plane) jobs bypass
      the bound.  [0] (the default) keeps the queue unbounded;
    - {e fair queuing}: normal-class jobs are kept in one queue per
      source and served round robin per source, so one connection with a deep backlog
      cannot starve the others;
    - {e deadlines}: a job whose absolute [deadline] passes while it is
      still queued is dropped at dequeue (its [on_expired] callback runs
      instead) — the client already gave up, executing it only adds load;
    - {e watchdog}: with a nonzero [wall_limit_ms], a watchdog thread
      sleeps until the earliest running job reaches the wall limit (a
      full limit when none runs), writes off any worker whose current
      job exceeds it and spawns a replacement, so a wedged hypervisor
      call cannot silently eat pool capacity.  The written-off thread retires itself when (if)
      its job ever returns.

    A submitted job wakes at most one parked worker: a priority job an
    unclaimed priority worker if one is parked, otherwise an ordinary
    one.  A worker serves the queues until they are empty before it parks
    again.

    All limits are runtime-adjustable ({!set_limits}), which is what the
    administration interface exposes. *)

type t

type reject = { retry_after_ms : int }
(** Admission-control rejection: how long the submitter should wait
    before retrying (backlog priced at the smoothed job duration). *)

type stats = {
  min_workers : int;
  max_workers : int;
  n_workers : int;  (** current ordinary workers, busy + free *)
  free_workers : int;  (** ordinary workers waiting for a job *)
  prio_workers : int;  (** current priority workers *)
  job_queue_depth : int;  (** jobs waiting (both classes) *)
  jobs_completed : int;  (** total jobs finished since creation *)
  jobs_failed : int;  (** jobs whose function raised *)
  jobs_shed : int;  (** jobs rejected by admission control *)
  jobs_expired : int;  (** jobs dropped because their deadline passed in queue *)
  workers_stuck : int;  (** workers ever written off by the watchdog *)
  workers_stuck_now : int;  (** written-off workers still wedged *)
  job_queue_limit : int;  (** normal-queue bound; 0 = unbounded *)
  wall_limit_ms : int;  (** watchdog wall limit; 0 = off *)
  watchdog_scans : int;
      (** watchdog passes so far: one per limit while idle, otherwise one
          as each running job comes due.  Local only, never on a wire. *)
  wakeups : int;
      (** times a parked worker woke up so far.  Each job signals at most
          one parked worker; limit changes and shutdown wake them all.
          Local only, never on a wire. *)
}

exception Invalid_limits of string
(** Raised by {!create} and {!set_limits} on inconsistent limits
    (e.g. [max_workers < min_workers], negative counts). *)

val create :
  ?name:string ->
  ?logger:Vlog.t ->
  ?job_queue_limit:int ->
  ?wall_limit_ms:int ->
  min_workers:int ->
  max_workers:int ->
  prio_workers:int ->
  unit ->
  t
(** Start a pool with [min_workers] ordinary workers and [prio_workers]
    priority workers already running.  [job_queue_limit] (default [0] =
    unbounded) bounds the normal-class queue — see {!submit} for the
    over-limit behaviour.  A nonzero [wall_limit_ms] starts the
    stuck-worker watchdog.  [logger] receives job-failure and
    stuck-worker reports (rate-limited). *)

val submit :
  t ->
  ?priority:bool ->
  ?source:int64 ->
  ?deadline:float ->
  ?on_expired:(unit -> unit) ->
  (unit -> unit) ->
  (unit, reject) result
(** Enqueue a job.  [~priority:true] jobs are eligible for priority
    workers (and are preferred by ordinary workers).  [source] is the
    fair-queuing key — pass the client-connection id so round robin per
    source can arbitrate between connections.  [deadline] is absolute
    ([Unix.gettimeofday] scale); if it passes before a worker picks the
    job up, the job is dropped and [on_expired] runs in its place.

    Over-limit behaviour is {b reject, never block}: when the
    normal-class queue holds [job_queue_limit] jobs the call returns
    [Error { retry_after_ms }] immediately, without enqueueing and
    without waiting.  Exceptions escaping the job are logged and counted
    ([stats.jobs_failed]); they never kill the worker.
    @raise Invalid_limits if the pool has been shut down. *)

val set_limits :
  t ->
  ?min_workers:int ->
  ?max_workers:int ->
  ?prio_workers:int ->
  ?job_queue_limit:int ->
  ?wall_limit_ms:int ->
  unit ->
  unit
(** Adjust limits at runtime.  Raising [min_workers] spawns immediately;
    lowering [max_workers] retires surplus workers cooperatively; changing
    [prio_workers] grows or shrinks the priority set.  [job_queue_limit]
    and [wall_limit_ms] take effect for subsequent submissions/scans
    ([0] disables either). *)

val stats : t -> stats

val queue_empty : t -> bool
(** No job of either class waits in the queues.  A submitter that then
    runs a call itself instead of submitting it overtakes no queued job,
    so it bypasses nothing that fair queuing or admission control would
    decide: both only order and bound a queue.  A snapshot: the answer
    may be stale by the time it returns. *)

val drain : t -> unit
(** Block until the queue is empty, every live worker is idle and no
    crew is over its target ([max_workers], or [prio_workers]; after
    {!set_limits} lowers one, until the surplus has retired).
    Intended for tests and benchmarks. *)

val shutdown : t -> unit
(** Ask all workers to exit and wait for them.  Pending jobs are
    discarded.  Subsequent {!submit} raises {!Invalid_limits}. *)
