type job = {
  run : unit -> unit;
  priority : bool;
  deadline : float option; (* absolute; expired-in-queue jobs are dropped *)
  on_expired : (unit -> unit) option;
}

type reject = { retry_after_ms : int }

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

(* One worker class: the ordinary workers, whose number floats between
   [min_workers] and [max_workers] and who serve both queues, or the
   priority workers, a fixed set serving only the priority queue. *)
type crew = {
  cond : Condition.t; (* parked members wait here *)
  serves_normal : bool; (* ordinary crew: the normal queue too *)
  mutable live : int;
  mutable free : int; (* members blocked on [cond] *)
  (* Parked members already signalled but not yet running: a submit
     claims an unclaimed one, so two jobs never count on one wake. *)
  mutable claimed : int;
}

type t = {
  name : string;
  logger : Vlog.t option;
  mutex : Mutex.t;
  workers : crew;
  prio : crew;
  idle_cond : Condition.t; (* drain/shutdown wait here *)
  (* Normal-class jobs, one queue per submission source (one daemon
     client connection), served round robin per source: one job per
     visit, so a source with a deep backlog cannot starve a light one.
     A source is in [ring] exactly when its queue is in [flows], and
     leaves both as soon as its queue empties. *)
  flows : (int64, job Queue.t) Hashtbl.t;
  ring : int64 Queue.t; (* visit order over the sources in [flows] *)
  prio_queue : job Queue.t;
  mutable queued_normal : int;
  mutable min_workers : int;
  mutable max_workers : int;
  mutable prio_target : int;
  mutable wakeups : int; (* returns from a crew's [cond] *)
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
  running : (int, float * crew) Hashtbl.t;
  (* worker id -> job start time and crew, while a job is on that worker *)
  stuck : (int, unit) Hashtbl.t; (* workers written off by the watchdog *)
  watchdog_cond : Condition.t; (* limit changes and shutdown wake the watchdog *)
  mutable watchdog_live : bool;
  mutable watchdog_scans : int;
  mutable last_stuck_log : float;
}

exception Invalid_limits of string

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

(* --- round-robin-per-source normal queue ----------------------------- *)

let enqueue_normal pool ~source job =
  let q =
    match Hashtbl.find_opt pool.flows source with
    | Some q -> q
    | None ->
      let q = Queue.create () in
      Hashtbl.replace pool.flows source q;
      Queue.push source pool.ring;
      q
  in
  Queue.push job q;
  pool.queued_normal <- pool.queued_normal + 1

(* Call only while [queued_normal > 0]. *)
let pop_normal pool =
  let key = Queue.pop pool.ring in
  let q = Hashtbl.find pool.flows key in
  let job = Queue.pop q in
  pool.queued_normal <- pool.queued_normal - 1;
  if Queue.is_empty q then Hashtbl.remove pool.flows key
  else Queue.push key pool.ring;
  job

let clear_normal pool =
  Hashtbl.reset pool.flows;
  Queue.clear pool.ring;
  pool.queued_normal <- 0

(* --- job execution --------------------------------------------------- *)

(* Execute one job outside the pool lock; the caller holds the lock on
   entry and regains it before returning.  A raising job is counted,
   logged, and never unwinds the worker loop. *)
let run_job pool wid crew job =
  let started = Unix.gettimeofday () in
  Hashtbl.replace pool.running wid (started, crew);
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
let dispatch_job pool wid crew job =
  match job.deadline with
  | Some d when Unix.gettimeofday () > d ->
    pool.jobs_expired <- pool.jobs_expired + 1;
    (match job.on_expired with
     | None -> ()
     | Some f ->
       Mutex.unlock pool.mutex;
       (try f () with _ -> ());
       Mutex.lock pool.mutex)
  | _ -> run_job pool wid crew job

(* The most workers [crew] may keep. *)
let target pool crew = if crew.serves_normal then pool.max_workers else pool.prio_target

(* The quit-helper check from the thesis: performed after waking up and
   after finishing a job, never via a queued "poison" task. *)
let should_quit pool crew = pool.quit || crew.live > target pool crew

(* Priority jobs first; the ordinary crew then takes normal ones. *)
let next_job pool crew =
  if not (Queue.is_empty pool.prio_queue) then Some (Queue.pop pool.prio_queue)
  else if crew.serves_normal && pool.queued_normal > 0 then Some (pop_normal pool)
  else None

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
let park pool crew =
  crew.free <- crew.free + 1;
  Condition.broadcast pool.idle_cond;
  Condition.wait crew.cond pool.mutex;
  crew.free <- crew.free - 1;
  crew.claimed <- max 0 (crew.claimed - 1);
  pool.wakeups <- pool.wakeups + 1

let rec worker_loop pool crew wid =
  if retired_stuck pool wid then ()
  else if should_quit pool crew then begin
    crew.live <- crew.live - 1;
    Condition.broadcast pool.idle_cond
  end
  else begin
    (match next_job pool crew with
     | Some job -> dispatch_job pool wid crew job
     | None -> park pool crew);
    worker_loop pool crew wid
  end

(* Called with the pool lock held.  The live count goes up before the
   thread is scheduled, so the accounting is correct at once. *)
let spawn pool crew =
  crew.live <- crew.live + 1;
  let wid = pool.next_worker_id in
  pool.next_worker_id <- wid + 1;
  ignore
    (Thread.create
       (fun () ->
         Mutex.lock pool.mutex;
         worker_loop pool crew wid;
         Mutex.unlock pool.mutex)
       ())

let fill pool crew target =
  while crew.live < target do
    spawn pool crew
  done

let crews pool = [ pool.workers; pool.prio ]

(* --- watchdog --------------------------------------------------------- *)

(* Scan with the pool lock held: any worker whose current job has been
   running past the wall limit is written off — removed from the live
   count and replaced immediately, so a wedged hypervisor call cannot
   silently eat pool capacity.  The stuck thread itself cannot be
   killed; it retires when (if) its job ever returns. *)
let watchdog_scan pool now =
  Hashtbl.iter
    (fun wid (started, crew) ->
      if now -. started > pool.wall_limit && not (Hashtbl.mem pool.stuck wid)
      then begin
        Hashtbl.replace pool.stuck wid ();
        pool.workers_stuck_total <- pool.workers_stuck_total + 1;
        crew.live <- crew.live - 1;
        if not pool.quit then spawn pool crew;
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

let new_crew ~serves_normal =
  { cond = Condition.create (); serves_normal; live = 0; free = 0; claimed = 0 }

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
      workers = new_crew ~serves_normal:true;
      prio = new_crew ~serves_normal:false;
      idle_cond = Condition.create ();
      flows = Hashtbl.create 16;
      ring = Queue.create ();
      prio_queue = Queue.create ();
      queued_normal = 0;
      min_workers;
      max_workers;
      prio_target = prio_workers;
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
      fill pool pool.workers min_workers;
      fill pool pool.prio prio_workers;
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

(* Signal an unclaimed parked member of [crew], if it has one. *)
let claim crew =
  crew.free > crew.claimed
  && begin
    crew.claimed <- crew.claimed + 1;
    Condition.signal crew.cond;
    true
  end

(* One signal per job: a priority job goes to an unclaimed parked
   priority worker, any job to an unclaimed parked ordinary worker.  A
   woken worker serves the queues until they are empty before parking
   again, so when every parked worker is claimed the running and woken
   ones cover the job. *)
let wake_one pool ~priority =
  if not (priority && claim pool.prio) then ignore (claim pool.workers)

(* Limit changes and shutdown: every parked worker re-checks. *)
let wake_all pool =
  List.iter
    (fun crew ->
      crew.claimed <- crew.free;
      Condition.broadcast crew.cond)
    (crews pool)

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
          pool.workers.free = 0 && ((not priority) || pool.prio.free = 0)
        in
        if nobody_free && pool.workers.live < pool.max_workers then
          spawn pool pool.workers
        else wake_one pool ~priority;
        Ok ()
      end)

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
      fill pool pool.workers min_workers;
      fill pool pool.prio prio_workers;
      (* Surplus workers (live > target) retire themselves on wakeup. *)
      wake_all pool)

let stats pool =
  with_lock pool (fun () ->
      {
        min_workers = pool.min_workers;
        max_workers = pool.max_workers;
        n_workers = pool.workers.live;
        free_workers = pool.workers.free;
        prio_workers = pool.prio.live;
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

let queue_empty pool =
  Mutex.lock pool.mutex;
  let empty = pool.queued_normal = 0 && Queue.is_empty pool.prio_queue in
  Mutex.unlock pool.mutex;
  empty

(* A lowered target is met once the surplus workers, woken by
   [set_limits], have run their quit test: until then they still count
   as free. *)
let drain pool =
  with_lock pool (fun () ->
      while
        pool.queued_normal > 0
        || (not (Queue.is_empty pool.prio_queue))
        || List.exists
             (fun crew -> crew.free < crew.live || crew.live > target pool crew)
             (crews pool)
      do
        Condition.wait pool.idle_cond pool.mutex
      done)

let shutdown pool =
  with_lock pool (fun () ->
      pool.quit <- true;
      clear_normal pool;
      Queue.clear pool.prio_queue;
      Condition.signal pool.watchdog_cond;
      while List.exists (fun crew -> crew.live > 0) (crews pool) || pool.watchdog_live do
        wake_all pool;
        Condition.wait pool.idle_cond pool.mutex
      done)
