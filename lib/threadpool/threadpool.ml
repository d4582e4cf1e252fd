type job = {
  run : unit -> unit;
  priority : bool;
  deadline : float option; (* absolute; expired-in-queue jobs are dropped *)
  on_expired : (unit -> unit) option;
}

type reject = { retry_after_ms : int }

(* One fair-queuing flow: jobs from a single submission source (one
   daemon client connection).  Deficit round robin: the scheduler visits
   active flows in ring order, topping up each flow's deficit by the
   quantum and serving jobs while the deficit covers their (unit) cost,
   so a source with a deep backlog cannot starve a light one. *)
type flow = {
  fkey : int64;
  fjobs : job Queue.t;
  mutable fdeficit : int;
  mutable factive : bool;
}

type stats = {
  min_workers : int;
  max_workers : int;
  n_workers : int;
  free_workers : int;
  prio_workers : int;
  job_queue_depth : int;
  jobs_completed : int;
  jobs_failed : int;
  jobs_shed : int;
  jobs_expired : int;
  workers_stuck : int;
  workers_stuck_now : int;
  job_queue_limit : int;
  wall_limit_ms : int;
  watchdog_scans : int;
  wakeups : int;
}

type t = {
  name : string;
  logger : Vlog.t option;
  mutex : Mutex.t;
  work_cond : Condition.t; (* parked ordinary workers *)
  prio_cond : Condition.t; (* parked priority workers *)
  idle_cond : Condition.t; (* drain/shutdown wait here *)
  flows : (int64, flow) Hashtbl.t; (* normal-class jobs, one queue per source *)
  ring : int64 Queue.t; (* DRR visit order over active flows *)
  prio_queue : job Queue.t;
  mutable queued_normal : int;
  mutable min_workers : int;
  mutable max_workers : int;
  mutable prio_target : int;
  mutable n_workers : int; (* live ordinary workers *)
  mutable free_workers : int; (* ordinary workers blocked on [work_cond] *)
  mutable n_prio : int; (* live priority workers *)
  mutable free_prio : int; (* priority workers blocked on [prio_cond] *)
  (* Parked workers already signalled but not yet running: a submit
     claims an unclaimed one, so two jobs never count on one wake. *)
  mutable claimed_workers : int;
  mutable claimed_prio : int;
  mutable wakeups : int; (* returns from [work_cond] / [prio_cond] *)
  mutable quit : bool;
  mutable jobs_completed : int;
  mutable jobs_failed : int;
  (* overload protection *)
  mutable queue_limit : int; (* 0 = unbounded *)
  mutable wall_limit : float; (* seconds; 0. = watchdog off *)
  mutable jobs_shed : int;
  mutable jobs_expired : int;
  mutable workers_stuck_total : int;
  mutable ewma_job_ms : float; (* smoothed job wall time, retry-after hint *)
  mutable next_worker_id : int;
  running : (int, float * [ `Ordinary | `Priority ]) Hashtbl.t;
  (* worker id -> job start time, while a job is on that worker *)
  stuck : (int, unit) Hashtbl.t; (* workers written off by the watchdog *)
  watchdog_cond : Condition.t; (* limit changes and shutdown wake the watchdog *)
  mutable watchdog_live : bool;
  mutable watchdog_scans : int;
  mutable last_stuck_log : float;
}

exception Invalid_limits of string

let drr_quantum = 1 (* unit job cost: DRR degenerates to per-source RR *)

let check_limits ~min_workers ~max_workers ~prio_workers =
  if min_workers < 0 then raise (Invalid_limits "min_workers must be >= 0");
  if prio_workers < 0 then raise (Invalid_limits "prio_workers must be >= 0");
  if max_workers < 1 then raise (Invalid_limits "max_workers must be >= 1");
  if max_workers < min_workers then
    raise (Invalid_limits "max_workers must be >= min_workers")

let with_lock pool f =
  Mutex.lock pool.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock pool.mutex) f

let log pool priority fmt =
  Printf.ksprintf
    (fun msg ->
      match pool.logger with
      | None -> ()
      | Some logger -> Vlog.log logger ~module_:"daemon.threadpool" priority msg)
    fmt

(* --- deficit-round-robin normal queue ------------------------------- *)

let enqueue_normal pool ~source job =
  let flow =
    match Hashtbl.find_opt pool.flows source with
    | Some f -> f
    | None ->
      let f = { fkey = source; fjobs = Queue.create (); fdeficit = 0; factive = false } in
      Hashtbl.replace pool.flows source f;
      f
  in
  Queue.push job flow.fjobs;
  pool.queued_normal <- pool.queued_normal + 1;
  if not flow.factive then begin
    flow.factive <- true;
    flow.fdeficit <- 0;
    Queue.push flow.fkey pool.ring
  end

let rec drr_pop pool =
  if pool.queued_normal = 0 || Queue.is_empty pool.ring then None
  else begin
    let key = Queue.pop pool.ring in
    match Hashtbl.find_opt pool.flows key with
    | None -> drr_pop pool
    | Some flow when Queue.is_empty flow.fjobs ->
      flow.factive <- false;
      flow.fdeficit <- 0;
      Hashtbl.remove pool.flows key;
      drr_pop pool
    | Some flow ->
      flow.fdeficit <- flow.fdeficit + drr_quantum;
      let job = Queue.pop flow.fjobs in
      flow.fdeficit <- flow.fdeficit - 1;
      pool.queued_normal <- pool.queued_normal - 1;
      if Queue.is_empty flow.fjobs then begin
        flow.factive <- false;
        flow.fdeficit <- 0;
        Hashtbl.remove pool.flows key
      end
      else Queue.push key pool.ring;
      Some job
  end

let clear_normal pool =
  Hashtbl.reset pool.flows;
  Queue.clear pool.ring;
  pool.queued_normal <- 0

(* --- job execution --------------------------------------------------- *)

(* Execute one job outside the pool lock; the caller holds the lock on
   entry and regains it before returning.  A raising job is counted,
   logged, and never unwinds the worker loop. *)
let run_job pool wid kind job =
  let started = Unix.gettimeofday () in
  Hashtbl.replace pool.running wid (started, kind);
  Mutex.unlock pool.mutex;
  let error = (try job.run (); None with exn -> Some (Printexc.to_string exn)) in
  Mutex.lock pool.mutex;
  Hashtbl.remove pool.running wid;
  let elapsed_ms = (Unix.gettimeofday () -. started) *. 1000. in
  pool.ewma_job_ms <-
    (if pool.jobs_completed = 0 then elapsed_ms
     else (0.8 *. pool.ewma_job_ms) +. (0.2 *. elapsed_ms));
  pool.jobs_completed <- pool.jobs_completed + 1;
  match error with
  | None -> ()
  | Some msg ->
    pool.jobs_failed <- pool.jobs_failed + 1;
    log pool Vlog.Warn "%s: job raised %s (worker kept)" pool.name msg

(* A dequeued job whose deadline already passed is dropped before it
   touches a driver: the client gave up, executing it only adds load. *)
let dispatch_job pool wid kind job =
  match job.deadline with
  | Some d when Unix.gettimeofday () > d ->
    pool.jobs_expired <- pool.jobs_expired + 1;
    (match job.on_expired with
     | None -> ()
     | Some f ->
       Mutex.unlock pool.mutex;
       (try f () with _ -> ());
       Mutex.lock pool.mutex)
  | _ -> run_job pool wid kind job

(* The quit-helper check from the thesis: performed after waking up and
   after finishing a job, never via a queued "poison" task. *)
let ordinary_should_quit pool = pool.quit || pool.n_workers > pool.max_workers
let priority_should_quit pool = pool.quit || pool.n_prio > pool.prio_target

(* A worker the watchdog wrote off finishes its wedged job eventually;
   its replacement is already running, so it retires without touching
   the worker accounting (the watchdog removed it when marking). *)
let retired_stuck pool wid =
  if Hashtbl.mem pool.stuck wid then begin
    Hashtbl.remove pool.stuck wid;
    Condition.broadcast pool.idle_cond;
    true
  end
  else false

(* Park until signalled, then give up one claim.  A spurious wake-up
   gives up the claim of a worker still waking; a later submit may then
   signal with nobody left to wake, and that worker, which empties the
   queues before it parks, serves the job. *)
let park_ordinary pool =
  pool.free_workers <- pool.free_workers + 1;
  Condition.broadcast pool.idle_cond;
  Condition.wait pool.work_cond pool.mutex;
  pool.free_workers <- pool.free_workers - 1;
  pool.claimed_workers <- max 0 (pool.claimed_workers - 1);
  pool.wakeups <- pool.wakeups + 1

let park_priority pool =
  pool.free_prio <- pool.free_prio + 1;
  Condition.broadcast pool.idle_cond;
  Condition.wait pool.prio_cond pool.mutex;
  pool.free_prio <- pool.free_prio - 1;
  pool.claimed_prio <- max 0 (pool.claimed_prio - 1);
  pool.wakeups <- pool.wakeups + 1

let rec ordinary_loop pool wid =
  if retired_stuck pool wid then ()
  else if ordinary_should_quit pool then begin
    pool.n_workers <- pool.n_workers - 1;
    Condition.broadcast pool.idle_cond
  end
  else if not (Queue.is_empty pool.prio_queue) then begin
    dispatch_job pool wid `Ordinary (Queue.pop pool.prio_queue);
    ordinary_loop pool wid
  end
  else if pool.queued_normal > 0 then begin
    (match drr_pop pool with
     | Some job -> dispatch_job pool wid `Ordinary job
     | None -> ());
    ordinary_loop pool wid
  end
  else begin
    park_ordinary pool;
    ordinary_loop pool wid
  end

let rec priority_loop pool wid =
  if retired_stuck pool wid then ()
  else if priority_should_quit pool then begin
    pool.n_prio <- pool.n_prio - 1;
    Condition.broadcast pool.idle_cond
  end
  else if not (Queue.is_empty pool.prio_queue) then begin
    dispatch_job pool wid `Priority (Queue.pop pool.prio_queue);
    priority_loop pool wid
  end
  else begin
    park_priority pool;
    priority_loop pool wid
  end

(* Spawn helpers: called with the pool lock held.  The worker increments
   were already done by the caller so the accounting is correct even
   before the thread is scheduled. *)
let spawn_ordinary pool =
  pool.n_workers <- pool.n_workers + 1;
  let wid = pool.next_worker_id in
  pool.next_worker_id <- wid + 1;
  ignore
    (Thread.create
       (fun () ->
         Mutex.lock pool.mutex;
         ordinary_loop pool wid;
         Mutex.unlock pool.mutex)
       ())

let spawn_priority pool =
  pool.n_prio <- pool.n_prio + 1;
  let wid = pool.next_worker_id in
  pool.next_worker_id <- wid + 1;
  ignore
    (Thread.create
       (fun () ->
         Mutex.lock pool.mutex;
         priority_loop pool wid;
         Mutex.unlock pool.mutex)
       ())

(* --- watchdog --------------------------------------------------------- *)

(* Scan with the pool lock held: any worker whose current job has been
   running past the wall limit is written off — removed from the live
   count and replaced immediately, so a wedged hypervisor call cannot
   silently eat pool capacity.  The stuck thread itself cannot be
   killed; it retires when (if) its job ever returns. *)
let watchdog_scan pool now =
  Hashtbl.iter
    (fun wid (started, kind) ->
      if now -. started > pool.wall_limit && not (Hashtbl.mem pool.stuck wid)
      then begin
        Hashtbl.replace pool.stuck wid ();
        pool.workers_stuck_total <- pool.workers_stuck_total + 1;
        (match kind with
         | `Ordinary ->
           pool.n_workers <- pool.n_workers - 1;
           if not pool.quit then spawn_ordinary pool
         | `Priority ->
           pool.n_prio <- pool.n_prio - 1;
           if not pool.quit then spawn_priority pool);
        if now -. pool.last_stuck_log >= 1.0 then begin
          pool.last_stuck_log <- now;
          log pool Vlog.Warn
            "%s: worker stuck for > %.0f ms (%d written off so far), replacement spawned"
            pool.name (pool.wall_limit *. 1000.) pool.workers_stuck_total
        end
      end)
    pool.running

(* Sleep until the earliest running job can exceed the limit, then scan.
   A job that starts later is due later than a full limit from now, so
   starting one needs no wakeup; only [set_limits] and [shutdown] do. *)
let watchdog_loop pool =
  Mutex.lock pool.mutex;
  while (not pool.quit) && pool.wall_limit > 0. do
    let now = Unix.gettimeofday () in
    watchdog_scan pool now;
    pool.watchdog_scans <- pool.watchdog_scans + 1;
    let due =
      Hashtbl.fold
        (fun wid (started, _) due ->
          if Hashtbl.mem pool.stuck wid then due
          else Float.min due (started +. pool.wall_limit))
        pool.running (now +. pool.wall_limit)
    in
    Ovsync.Timedwait.wait pool.mutex pool.watchdog_cond ~until:due
  done;
  pool.watchdog_live <- false;
  Condition.broadcast pool.idle_cond;
  Mutex.unlock pool.mutex

(* Called with the lock held whenever the wall limit may have turned on. *)
let ensure_watchdog pool =
  if pool.wall_limit > 0. && (not pool.watchdog_live) && not pool.quit then begin
    pool.watchdog_live <- true;
    ignore (Thread.create (fun () -> watchdog_loop pool) ())
  end

(* --------------------------------------------------------------------- *)

let create ?(name = "pool") ?logger ?(job_queue_limit = 0) ?(wall_limit_ms = 0)
    ~min_workers ~max_workers ~prio_workers () =
  check_limits ~min_workers ~max_workers ~prio_workers;
  if job_queue_limit < 0 then
    raise (Invalid_limits "job_queue_limit must be >= 0");
  if wall_limit_ms < 0 then raise (Invalid_limits "wall_limit_ms must be >= 0");
  let pool =
    {
      name;
      logger;
      mutex = Mutex.create ();
      work_cond = Condition.create ();
      prio_cond = Condition.create ();
      idle_cond = Condition.create ();
      flows = Hashtbl.create 16;
      ring = Queue.create ();
      prio_queue = Queue.create ();
      queued_normal = 0;
      min_workers;
      max_workers;
      prio_target = prio_workers;
      n_workers = 0;
      free_workers = 0;
      n_prio = 0;
      free_prio = 0;
      claimed_workers = 0;
      claimed_prio = 0;
      wakeups = 0;
      quit = false;
      jobs_completed = 0;
      jobs_failed = 0;
      queue_limit = job_queue_limit;
      wall_limit = float_of_int wall_limit_ms /. 1000.;
      jobs_shed = 0;
      jobs_expired = 0;
      workers_stuck_total = 0;
      ewma_job_ms = 0.;
      next_worker_id = 0;
      running = Hashtbl.create 32;
      stuck = Hashtbl.create 4;
      watchdog_cond = Condition.create ();
      watchdog_live = false;
      watchdog_scans = 0;
      last_stuck_log = 0.;
    }
  in
  with_lock pool (fun () ->
      for _ = 1 to min_workers do
        spawn_ordinary pool
      done;
      for _ = 1 to prio_workers do
        spawn_priority pool
      done;
      ensure_watchdog pool);
  pool

(* How long an overloaded submitter should wait before trying again:
   the backlog ahead of it, priced at the smoothed job duration, spread
   over the worker set.  Clamped so the hint is always actionable. *)
let retry_after_ms pool =
  let per_job = if pool.ewma_job_ms <= 0. then 5. else pool.ewma_job_ms in
  let backlog =
    float_of_int (pool.queued_normal + 1) /. float_of_int (max 1 pool.max_workers)
  in
  int_of_float (Float.min 5000. (Float.max 1. (per_job *. backlog)))

(* One signal per job: a priority job goes to an unclaimed parked
   priority worker, any job to an unclaimed parked ordinary worker.  A
   woken worker serves the queues until they are empty before parking
   again, so when every parked worker is claimed the running and woken
   ones cover the job. *)
let wake_one pool ~priority =
  if priority && pool.free_prio > pool.claimed_prio then begin
    pool.claimed_prio <- pool.claimed_prio + 1;
    Condition.signal pool.prio_cond
  end
  else if pool.free_workers > pool.claimed_workers then begin
    pool.claimed_workers <- pool.claimed_workers + 1;
    Condition.signal pool.work_cond
  end

(* Limit changes and shutdown: every parked worker re-checks. *)
let wake_all pool =
  pool.claimed_workers <- pool.free_workers;
  pool.claimed_prio <- pool.free_prio;
  Condition.broadcast pool.work_cond;
  Condition.broadcast pool.prio_cond

let submit pool ?(priority = false) ?(source = 0L) ?deadline ?on_expired run =
  with_lock pool (fun () ->
      if pool.quit then
        raise (Invalid_limits (pool.name ^ ": pool has been shut down"));
      if (not priority) && pool.queue_limit > 0
         && pool.queued_normal >= pool.queue_limit
      then begin
        (* Admission control: the queue is at its bound — shed the job
           now rather than let the backlog (and every client's latency)
           grow without limit.  The submitter is never blocked. *)
        pool.jobs_shed <- pool.jobs_shed + 1;
        Error { retry_after_ms = retry_after_ms pool }
      end
      else begin
        let job = { run; priority; deadline; on_expired } in
        if priority then Queue.push job pool.prio_queue
        else enqueue_normal pool ~source job;
        (* Grow on demand: a job just arrived with nobody free to take it.
           A parked worker counts as free while it is still waking: it
           serves the queues until they are empty before parking again. *)
        let nobody_free =
          if priority then pool.free_workers = 0 && pool.free_prio = 0
          else pool.free_workers = 0
        in
        if nobody_free && pool.n_workers < pool.max_workers then
          spawn_ordinary pool
        else wake_one pool ~priority;
        Ok ()
      end)

let push pool ?(priority = false) run =
  match submit pool ~priority run with Ok () -> () | Error _ -> ()

let set_limits pool ?min_workers ?max_workers ?prio_workers ?job_queue_limit
    ?wall_limit_ms () =
  with_lock pool (fun () ->
      let min_workers = Option.value min_workers ~default:pool.min_workers in
      let max_workers = Option.value max_workers ~default:pool.max_workers in
      let prio_workers = Option.value prio_workers ~default:pool.prio_target in
      check_limits ~min_workers ~max_workers ~prio_workers;
      (match job_queue_limit with
       | Some l when l < 0 -> raise (Invalid_limits "job_queue_limit must be >= 0")
       | Some l -> pool.queue_limit <- l
       | None -> ());
      (match wall_limit_ms with
       | Some l when l < 0 -> raise (Invalid_limits "wall_limit_ms must be >= 0")
       | Some l ->
         pool.wall_limit <- float_of_int l /. 1000.;
         Condition.signal pool.watchdog_cond;
         ensure_watchdog pool
       | None -> ());
      pool.min_workers <- min_workers;
      pool.max_workers <- max_workers;
      pool.prio_target <- prio_workers;
      while pool.n_workers < pool.min_workers do
        spawn_ordinary pool
      done;
      while pool.n_prio < pool.prio_target do
        spawn_priority pool
      done;
      (* Surplus workers (n > max) retire themselves on wakeup. *)
      wake_all pool)

let stats pool =
  with_lock pool (fun () ->
      {
        min_workers = pool.min_workers;
        max_workers = pool.max_workers;
        n_workers = pool.n_workers;
        free_workers = pool.free_workers;
        prio_workers = pool.n_prio;
        job_queue_depth = pool.queued_normal + Queue.length pool.prio_queue;
        jobs_completed = pool.jobs_completed;
        jobs_failed = pool.jobs_failed;
        jobs_shed = pool.jobs_shed;
        jobs_expired = pool.jobs_expired;
        workers_stuck = pool.workers_stuck_total;
        workers_stuck_now = Hashtbl.length pool.stuck;
        job_queue_limit = pool.queue_limit;
        wall_limit_ms = int_of_float (pool.wall_limit *. 1000.);
        watchdog_scans = pool.watchdog_scans;
        wakeups = pool.wakeups;
      })

let failed_jobs pool = with_lock pool (fun () -> pool.jobs_failed)

let drain pool =
  with_lock pool (fun () ->
      while
        pool.queued_normal > 0
        || (not (Queue.is_empty pool.prio_queue))
        || pool.free_workers < pool.n_workers
        || pool.free_prio < pool.n_prio
      do
        Condition.wait pool.idle_cond pool.mutex
      done)

let shutdown pool =
  with_lock pool (fun () ->
      pool.quit <- true;
      clear_normal pool;
      Queue.clear pool.prio_queue;
      Condition.signal pool.watchdog_cond;
      while pool.n_workers > 0 || pool.n_prio > 0 || pool.watchdog_live do
        wake_all pool;
        Condition.wait pool.idle_cond pool.mutex
      done)
