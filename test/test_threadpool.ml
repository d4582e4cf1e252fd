(* Workerpool: limits, demand-driven growth, cooperative shrink, priority
   workers, drain/shutdown, and failure accounting. *)

open Testutil

let make ?(min_workers = 2) ?(max_workers = 4) ?(prio_workers = 1) () =
  Threadpool.create ~name:(fresh_name "pool") ~min_workers ~max_workers
    ~prio_workers ()

let test_initial_state () =
  let pool = make () in
  let s = Threadpool.stats pool in
  Alcotest.(check int) "min" 2 s.Threadpool.min_workers;
  Alcotest.(check int) "max" 4 s.Threadpool.max_workers;
  Alcotest.(check int) "spawned at min" 2 s.Threadpool.n_workers;
  Alcotest.(check int) "prio" 1 s.Threadpool.prio_workers;
  Alcotest.(check int) "queue empty" 0 s.Threadpool.job_queue_depth;
  Threadpool.shutdown pool

let test_executes_jobs () =
  let pool = make () in
  let counter = Atomic.make 0 in
  for _ = 1 to 100 do
    Threadpool.push pool (fun () -> Atomic.incr counter)
  done;
  Threadpool.drain pool;
  Alcotest.(check int) "all jobs ran" 100 (Atomic.get counter);
  Alcotest.(check int) "completed counter" 100
    (Threadpool.stats pool).Threadpool.jobs_completed;
  Threadpool.shutdown pool

let test_invalid_limits () =
  let expect_invalid f =
    match f () with
    | exception Threadpool.Invalid_limits _ -> ()
    | _ -> Alcotest.fail "invalid limits accepted"
  in
  expect_invalid (fun () ->
      make ~min_workers:5 ~max_workers:2 ());
  expect_invalid (fun () -> make ~max_workers:0 ());
  expect_invalid (fun () -> make ~prio_workers:(-1) ());
  let pool = make () in
  expect_invalid (fun () ->
      Threadpool.set_limits pool ~min_workers:10 ~max_workers:3 ();
      pool);
  Threadpool.shutdown pool

let test_grows_on_demand () =
  let pool = make ~min_workers:1 ~max_workers:8 () in
  (* Block several workers so new pushes find nobody free. *)
  let release = Mutex.create () in
  Mutex.lock release;
  let started = Atomic.make 0 in
  for _ = 1 to 6 do
    Threadpool.push pool (fun () ->
        Atomic.incr started;
        Mutex.lock release;
        Mutex.unlock release)
  done;
  let grew =
    eventually (fun () -> (Threadpool.stats pool).Threadpool.n_workers >= 6)
  in
  Alcotest.(check bool) "pool grew on demand" true grew;
  Mutex.unlock release;
  Threadpool.drain pool;
  Threadpool.shutdown pool

let test_never_exceeds_max () =
  let pool = make ~min_workers:1 ~max_workers:3 () in
  let release = Mutex.create () in
  Mutex.lock release;
  for _ = 1 to 20 do
    Threadpool.push pool (fun () ->
        Mutex.lock release;
        Mutex.unlock release)
  done;
  Thread.delay 0.05;
  let s = Threadpool.stats pool in
  Alcotest.(check bool) "capped at max" true (s.Threadpool.n_workers <= 3);
  Alcotest.(check bool) "rest queued" true (s.Threadpool.job_queue_depth >= 17 - 3);
  Mutex.unlock release;
  Threadpool.drain pool;
  Threadpool.shutdown pool

let test_shrinks_cooperatively () =
  let pool = make ~min_workers:6 ~max_workers:8 () in
  Alcotest.(check int) "starts at 6" 6 (Threadpool.stats pool).Threadpool.n_workers;
  Threadpool.set_limits pool ~min_workers:1 ~max_workers:2 ();
  let shrank =
    eventually (fun () -> (Threadpool.stats pool).Threadpool.n_workers <= 2)
  in
  Alcotest.(check bool) "workers retired on wakeup" true shrank;
  (* The pool still works afterwards. *)
  let hit = Atomic.make false in
  Threadpool.push pool (fun () -> Atomic.set hit true);
  Threadpool.drain pool;
  Alcotest.(check bool) "post-shrink job ran" true (Atomic.get hit);
  Threadpool.shutdown pool

let test_priority_worker_count_adjustable () =
  let pool = make ~prio_workers:2 () in
  Alcotest.(check int) "two prio" 2 (Threadpool.stats pool).Threadpool.prio_workers;
  Threadpool.set_limits pool ~prio_workers:5 ();
  let grew = eventually (fun () -> (Threadpool.stats pool).Threadpool.prio_workers = 5) in
  Alcotest.(check bool) "prio grew" true grew;
  Threadpool.set_limits pool ~prio_workers:1 ();
  let shrank =
    eventually (fun () -> (Threadpool.stats pool).Threadpool.prio_workers = 1)
  in
  Alcotest.(check bool) "prio shrank" true shrank;
  Threadpool.shutdown pool

let test_priority_jobs_progress_when_ordinary_wedged () =
  (* The design guarantee: every ordinary worker stuck on a hung
     "hypervisor call" must not prevent high-priority work. *)
  let pool = make ~min_workers:2 ~max_workers:2 ~prio_workers:1 () in
  let release = Mutex.create () in
  Mutex.lock release;
  for _ = 1 to 2 do
    Threadpool.push pool (fun () ->
        Mutex.lock release;
        Mutex.unlock release)
  done;
  Thread.delay 0.02;
  (* Ordinary workers are both wedged; queue a priority job. *)
  let ran = Atomic.make false in
  Threadpool.push pool ~priority:true (fun () -> Atomic.set ran true);
  let progressed = eventually (fun () -> Atomic.get ran) in
  Alcotest.(check bool) "priority job ran while pool wedged" true progressed;
  Mutex.unlock release;
  Threadpool.drain pool;
  Threadpool.shutdown pool

let test_priority_workers_ignore_ordinary_jobs () =
  (* A pool with zero ordinary workers must leave normal jobs queued. *)
  let pool =
    Threadpool.create ~name:(fresh_name "pool") ~min_workers:0 ~max_workers:1
      ~prio_workers:2 ()
  in
  (* Wedge the single ordinary slot the pool may spawn. *)
  let release = Mutex.create () in
  Mutex.lock release;
  Threadpool.push pool (fun () ->
      Mutex.lock release;
      Mutex.unlock release);
  Thread.delay 0.02;
  let ran = Atomic.make false in
  Threadpool.push pool (fun () -> Atomic.set ran true);
  Thread.delay 0.05;
  Alcotest.(check bool) "normal job not stolen by prio workers" false
    (Atomic.get ran);
  Mutex.unlock release;
  Threadpool.drain pool;
  Alcotest.(check bool) "ran after ordinary freed" true (Atomic.get ran);
  Threadpool.shutdown pool

(* A job wakes one parked worker, not the whole pool: on an idle 5+5
   pool, jobs run one after another cost one wake-up each (waking every
   parked worker would cost ten). *)
let test_one_wakeup_per_job () =
  let pool = make ~min_workers:5 ~max_workers:5 ~prio_workers:5 () in
  Threadpool.drain pool;
  let before = (Threadpool.stats pool).Threadpool.wakeups in
  let jobs = 40 in
  for i = 1 to jobs do
    Threadpool.push pool ~priority:(i mod 2 = 0) (fun () -> ());
    Threadpool.drain pool
  done;
  let woke = (Threadpool.stats pool).Threadpool.wakeups - before in
  Alcotest.(check bool)
    (Printf.sprintf "%d wake-ups for %d jobs" woke jobs)
    true (woke <= jobs);
  Threadpool.shutdown pool

(* More blocking priority jobs than priority workers: the extra ones
   start at once on idle ordinary workers instead of queueing behind the
   first ones. *)
let test_priority_burst_spills_to_ordinary () =
  let pool = make ~min_workers:5 ~max_workers:5 ~prio_workers:5 () in
  Threadpool.drain pool;
  let release = Mutex.create () in
  Mutex.lock release;
  let started = Atomic.make 0 in
  let burst = 8 in
  for _ = 1 to burst do
    Threadpool.push pool ~priority:true (fun () ->
        Atomic.incr started;
        Mutex.lock release;
        Mutex.unlock release)
  done;
  ignore (eventually (fun () -> Atomic.get started = burst));
  let together = Atomic.get started in
  Mutex.unlock release;
  Threadpool.drain pool;
  Alcotest.(check int) "blocking priority jobs started together" burst together;
  Threadpool.shutdown pool

let test_failed_jobs_counted () =
  let pool = make () in
  Threadpool.push pool (fun () -> failwith "boom");
  Threadpool.push pool (fun () -> ());
  Threadpool.drain pool;
  Alcotest.(check int) "one failure" 1 (Threadpool.failed_jobs pool);
  Alcotest.(check int) "both completed" 2
    (Threadpool.stats pool).Threadpool.jobs_completed;
  Threadpool.shutdown pool

let test_push_after_shutdown_rejected () =
  let pool = make () in
  Threadpool.shutdown pool;
  match Threadpool.push pool (fun () -> ()) with
  | exception Threadpool.Invalid_limits _ -> ()
  | () -> Alcotest.fail "push accepted after shutdown"

let test_shutdown_is_idempotent () =
  let pool = make () in
  Threadpool.shutdown pool;
  Threadpool.shutdown pool;
  Alcotest.(check int) "no workers" 0 (Threadpool.stats pool).Threadpool.n_workers

let test_concurrent_pushers () =
  let pool = make ~min_workers:2 ~max_workers:6 () in
  let counter = Atomic.make 0 in
  let pushers =
    List.init 8 (fun _ ->
        Thread.create
          (fun () ->
            for _ = 1 to 200 do
              Threadpool.push pool (fun () -> Atomic.incr counter)
            done)
          ())
  in
  List.iter Thread.join pushers;
  Threadpool.drain pool;
  Alcotest.(check int) "all 1600 ran" 1600 (Atomic.get counter);
  Threadpool.shutdown pool

(* --- overload protection -------------------------------------------------- *)

(* Wedge the pool's single ordinary worker on [release] and wait until it
   has actually picked the job up. *)
let wedge_worker pool release =
  Mutex.lock release;
  let picked_up = Atomic.make false in
  Threadpool.push pool (fun () ->
      Atomic.set picked_up true;
      Mutex.lock release;
      Mutex.unlock release);
  (* free_workers is 0 both before the worker thread first parks and while
     it runs, so only the job's own signal proves it left the queue. *)
  let busy = eventually (fun () -> Atomic.get picked_up) in
  Alcotest.(check bool) "worker wedged" true busy

let test_queue_bound_rejects () =
  let pool =
    Threadpool.create ~name:(fresh_name "pool") ~job_queue_limit:4 ~min_workers:1
      ~max_workers:1 ~prio_workers:1 ()
  in
  let release = Mutex.create () in
  wedge_worker pool release;
  for _ = 1 to 4 do
    match Threadpool.submit pool (fun () -> ()) with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "rejected below the bound"
  done;
  (* Overflow is rejected immediately — never blocked on — with a hint. *)
  (match Threadpool.submit pool (fun () -> ()) with
   | Ok () -> Alcotest.fail "admitted above the bound"
   | Error { Threadpool.retry_after_ms } ->
     Alcotest.(check bool) "retry hint positive" true (retry_after_ms > 0));
  let s = Threadpool.stats pool in
  Alcotest.(check int) "one shed" 1 s.Threadpool.jobs_shed;
  Alcotest.(check bool) "bound holds" true (s.Threadpool.job_queue_depth <= 4);
  (* Priority (control-plane) traffic bypasses the bound. *)
  (match Threadpool.submit pool ~priority:true (fun () -> ()) with
   | Ok () -> ()
   | Error _ -> Alcotest.fail "priority job shed");
  Mutex.unlock release;
  Threadpool.drain pool;
  Threadpool.shutdown pool

let test_raising_job_keeps_worker () =
  let pool = make ~min_workers:2 ~max_workers:2 () in
  for _ = 1 to 10 do
    Threadpool.push pool (fun () -> failwith "boom")
  done;
  Threadpool.drain pool;
  let s = Threadpool.stats pool in
  Alcotest.(check int) "workers intact" 2 s.Threadpool.n_workers;
  Alcotest.(check int) "failures counted" 10 s.Threadpool.jobs_failed;
  let hit = Atomic.make false in
  Threadpool.push pool (fun () -> Atomic.set hit true);
  Threadpool.drain pool;
  Alcotest.(check bool) "pool still serves" true (Atomic.get hit);
  Threadpool.shutdown pool

let test_set_limits_under_load () =
  let pool =
    Threadpool.create ~name:(fresh_name "pool") ~job_queue_limit:8 ~min_workers:1
      ~max_workers:1 ~prio_workers:1 ()
  in
  let release = Mutex.create () in
  wedge_worker pool release;
  for _ = 1 to 6 do
    Threadpool.push pool (fun () -> ())
  done;
  (* Shrinking the bound below the live depth sheds new work only. *)
  Threadpool.set_limits pool ~job_queue_limit:2 ();
  (match Threadpool.submit pool (fun () -> ()) with
   | Ok () -> Alcotest.fail "admitted above the shrunken bound"
   | Error _ -> ());
  Alcotest.(check int) "queued jobs kept" 6
    (Threadpool.stats pool).Threadpool.job_queue_depth;
  (* Growing re-admits. *)
  Threadpool.set_limits pool ~job_queue_limit:50 ();
  (match Threadpool.submit pool (fun () -> ()) with
   | Ok () -> ()
   | Error _ -> Alcotest.fail "rejected below the regrown bound");
  (* Worker limits can move while the only worker is mid-job. *)
  Threadpool.set_limits pool ~min_workers:1 ~max_workers:4 ();
  Mutex.unlock release;
  Threadpool.drain pool;
  Alcotest.(check int) "all queued jobs ran" 8
    (Threadpool.stats pool).Threadpool.jobs_completed;
  Threadpool.shutdown pool

let test_deadline_expires_in_queue () =
  let pool =
    Threadpool.create ~name:(fresh_name "pool") ~min_workers:1 ~max_workers:1
      ~prio_workers:0 ()
  in
  let release = Mutex.create () in
  wedge_worker pool release;
  let ran = Atomic.make false in
  let expired = Atomic.make false in
  (match
     Threadpool.submit pool
       ~deadline:(Unix.gettimeofday () +. 0.05)
       ~on_expired:(fun () -> Atomic.set expired true)
       (fun () -> Atomic.set ran true)
   with
   | Ok () -> ()
   | Error _ -> Alcotest.fail "submit rejected");
  Thread.delay 0.12;
  (* Deadline lapsed while queued behind the wedge: the job must be
     dropped at dequeue, never executed. *)
  Mutex.unlock release;
  Threadpool.drain pool;
  Alcotest.(check bool) "expired job never ran" false (Atomic.get ran);
  Alcotest.(check bool) "on_expired fired" true (Atomic.get expired);
  Alcotest.(check int) "expiry counted" 1
    (Threadpool.stats pool).Threadpool.jobs_expired;
  Threadpool.shutdown pool

let test_fair_queuing_light_client_not_starved () =
  let pool =
    Threadpool.create ~name:(fresh_name "pool") ~min_workers:1 ~max_workers:1
      ~prio_workers:0 ()
  in
  let release = Mutex.create () in
  wedge_worker pool release;
  let order_mutex = Mutex.create () in
  let order = ref [] in
  let submit source tag =
    match
      Threadpool.submit pool ~source (fun () ->
          Mutex.lock order_mutex;
          order := tag :: !order;
          Mutex.unlock order_mutex)
    with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "unbounded pool shed a job"
  in
  (* Two greedy clients stack 40 jobs each before a light client's two
     arrive; round-robin service must still serve the light client among
     the first rounds instead of behind the 80-job backlog. *)
  for _ = 1 to 40 do submit 1L "A" done;
  for _ = 1 to 40 do submit 2L "B" done;
  submit 3L "C";
  submit 3L "C";
  Mutex.unlock release;
  Threadpool.drain pool;
  let completions = List.rev !order in
  Alcotest.(check int) "all ran" 82 (List.length completions);
  let last_c =
    List.fold_left
      (fun (i, last) tag -> (i + 1, if tag = "C" then i else last))
      (0, -1) completions
    |> snd
  in
  Alcotest.(check bool)
    (Printf.sprintf "light client served early (position %d)" last_c)
    true
    (last_c >= 0 && last_c < 10);
  Threadpool.shutdown pool

let test_watchdog_replaces_stuck_worker () =
  let pool =
    Threadpool.create ~name:(fresh_name "pool") ~wall_limit_ms:50 ~min_workers:1
      ~max_workers:1 ~prio_workers:0 ()
  in
  let release = Mutex.create () in
  wedge_worker pool release;
  (* Watchdog writes the wedged worker off and spawns a replacement. *)
  let replaced =
    eventually (fun () ->
        let s = Threadpool.stats pool in
        s.Threadpool.workers_stuck = 1 && s.Threadpool.workers_stuck_now = 1)
  in
  Alcotest.(check bool) "stuck worker detected and written off" true replaced;
  let hit = Atomic.make false in
  Threadpool.push pool (fun () -> Atomic.set hit true);
  let progressed = eventually (fun () -> Atomic.get hit) in
  Alcotest.(check bool) "replacement serves while original wedged" true progressed;
  (* The wedged job finishing retires its written-off worker quietly. *)
  Mutex.unlock release;
  let retired =
    eventually (fun () -> (Threadpool.stats pool).Threadpool.workers_stuck_now = 0)
  in
  Alcotest.(check bool) "stuck worker retired on completion" true retired;
  Alcotest.(check int) "capacity intact" 1 (Threadpool.stats pool).Threadpool.n_workers;
  Threadpool.drain pool;
  Threadpool.shutdown pool

(* One scan at start, then one per 200 ms limit: at most two in the
   300 ms slept, or one more per limit a late wakeup oversleeps. *)
let test_idle_watchdog_sleeps () =
  let t0 = Unix.gettimeofday () in
  let pool =
    Threadpool.create ~name:(fresh_name "pool") ~wall_limit_ms:200 ~min_workers:1
      ~max_workers:1 ~prio_workers:0 ()
  in
  Thread.delay 0.3;
  let scans = (Threadpool.stats pool).Threadpool.watchdog_scans in
  let elapsed = Unix.gettimeofday () -. t0 in
  let allowed = 1 + int_of_float (elapsed /. 0.2) in
  Alcotest.(check bool)
    (Printf.sprintf "%d scans in %.0f ms" scans (elapsed *. 1000.))
    true (scans <= allowed);
  Threadpool.shutdown pool

(* With a 10 s limit the watchdog sleeps 10 s; a shorter limit and the
   shutdown must each cut that sleep short. *)
let test_watchdog_woken_by_limits_and_shutdown () =
  let pool =
    Threadpool.create ~name:(fresh_name "pool") ~wall_limit_ms:10_000 ~min_workers:1
      ~max_workers:1 ~prio_workers:0 ()
  in
  let release = Mutex.create () in
  wedge_worker pool release;
  Threadpool.set_limits pool ~wall_limit_ms:50 ();
  Alcotest.(check bool) "shorter limit applies to the running job" true
    (eventually (fun () -> (Threadpool.stats pool).Threadpool.workers_stuck = 1));
  Mutex.unlock release;
  Threadpool.drain pool;
  Threadpool.set_limits pool ~wall_limit_ms:10_000 ();
  Thread.delay 0.05;
  let t0 = Unix.gettimeofday () in
  Threadpool.shutdown pool;
  let took = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) (Printf.sprintf "shutdown took %.3fs" took) true (took < 1.0)

let prop_stats_invariants =
  qcheck_case ~count:30 "stats invariants across random configs"
    QCheck.(triple (int_range 0 4) (int_range 1 6) (int_range 0 3))
    (fun (min_w, extra, prio) ->
      let max_w = min_w + extra in
      let pool =
        Threadpool.create ~name:(fresh_name "prop") ~min_workers:min_w
          ~max_workers:max_w ~prio_workers:prio ()
      in
      for _ = 1 to 20 do
        Threadpool.push pool (fun () -> ())
      done;
      Threadpool.drain pool;
      let s = Threadpool.stats pool in
      let invariant =
        s.Threadpool.n_workers >= s.Threadpool.min_workers
        && s.Threadpool.n_workers <= s.Threadpool.max_workers
        && s.Threadpool.free_workers <= s.Threadpool.n_workers
        && s.Threadpool.prio_workers = prio
        && s.Threadpool.jobs_completed = 20
      in
      Threadpool.shutdown pool;
      invariant)

let () =
  Alcotest.run "threadpool"
    [
      ( "lifecycle",
        [
          quick "initial state" test_initial_state;
          quick "executes jobs" test_executes_jobs;
          quick "invalid limits rejected" test_invalid_limits;
          quick "push after shutdown rejected" test_push_after_shutdown_rejected;
          quick "shutdown idempotent" test_shutdown_is_idempotent;
        ] );
      ( "dynamic sizing",
        [
          quick "grows on demand" test_grows_on_demand;
          quick "never exceeds max" test_never_exceeds_max;
          quick "shrinks cooperatively" test_shrinks_cooperatively;
          quick "priority worker count adjustable" test_priority_worker_count_adjustable;
        ] );
      ( "priority workers",
        [
          quick "progress while ordinary wedged"
            test_priority_jobs_progress_when_ordinary_wedged;
          quick "never steal ordinary jobs" test_priority_workers_ignore_ordinary_jobs;
          quick "a burst spills onto idle ordinary workers"
            test_priority_burst_spills_to_ordinary;
        ] );
      ("wake-ups", [ quick "one wake-up per job" test_one_wakeup_per_job ]);
      ( "robustness",
        [
          quick "failed jobs counted" test_failed_jobs_counted;
          quick "raising job keeps worker" test_raising_job_keeps_worker;
          quick "concurrent pushers" test_concurrent_pushers;
          prop_stats_invariants;
        ] );
      ( "overload protection",
        [
          quick "queue bound rejects" test_queue_bound_rejects;
          quick "set_limits under load" test_set_limits_under_load;
          quick "deadline expires in queue" test_deadline_expires_in_queue;
          quick "fair queuing protects light client"
            test_fair_queuing_light_client_not_starved;
          quick "watchdog replaces stuck worker"
            test_watchdog_replaces_stuck_worker;
          quick "idle watchdog scans once per limit" test_idle_watchdog_sleeps;
          quick "limit changes and shutdown wake the watchdog"
            test_watchdog_woken_by_limits_and_shutdown;
        ] );
    ]
