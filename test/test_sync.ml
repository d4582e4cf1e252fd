(* Reader–writer lock: concurrency semantics the driver nodes rely on;
   spare threads: reuse, no queueing, and the thread count; timed
   waits: deadlines, and nothing left behind by an early return. *)

open Testutil
module Rwlock = Ovsync.Rwlock
module Spare = Ovsync.Spare_threads
module Timedwait = Ovsync.Timedwait

(* A tiny synchronized cell for cross-thread assertions. *)
module Cell = struct
  type 'a t = { mutex : Mutex.t; cv : Condition.t; mutable v : 'a }

  let make v = { mutex = Mutex.create (); cv = Condition.create (); v }

  let update c f =
    Mutex.lock c.mutex;
    c.v <- f c.v;
    Condition.broadcast c.cv;
    Mutex.unlock c.mutex

  let get c =
    Mutex.lock c.mutex;
    let v = c.v in
    Mutex.unlock c.mutex;
    v

  let wait_for c pred =
    Mutex.lock c.mutex;
    let deadline = Unix.gettimeofday () +. 2.0 in
    let rec loop () =
      if pred c.v then true
      else if Unix.gettimeofday () > deadline then false
      else begin
        (* Condition.wait has no timeout; poll with a short sleep. *)
        Mutex.unlock c.mutex;
        Thread.delay 0.002;
        Mutex.lock c.mutex;
        loop ()
      end
    in
    let r = loop () in
    Mutex.unlock c.mutex;
    r
end

(* Two readers must be inside their sections at the same time: each waits
   until both are inside, or until the other reader saw them both (it may
   already have left). *)
let test_readers_overlap () =
  let lock = Rwlock.create () in
  (* readers inside, and whether any reader saw two at once *)
  let st = Cell.make (0, false) in
  let reader () =
    Rwlock.with_read lock (fun () ->
        Cell.update st (fun (n, seen) -> (n + 1, seen));
        if Cell.wait_for st (fun (n, seen) -> n >= 2 || seen) then
          Cell.update st (fun (n, _) -> (n, true));
        Cell.update st (fun (n, seen) -> (n - 1, seen)))
  in
  let t1 = Thread.create reader () in
  let t2 = Thread.create reader () in
  Thread.join t1;
  Thread.join t2;
  Alcotest.(check bool) "both readers inside simultaneously" true
    (snd (Cell.get st))

(* A writer takes the lock; readers and other writers must not enter
   until it leaves. *)
let test_writer_excludes () =
  let lock = Rwlock.create () in
  let writer_in = Cell.make false in
  let writer_out = Cell.make false in
  let intruders = Cell.make 0 in
  let saw_writer_done = Cell.make [] in
  let w =
    Thread.create
      (fun () ->
        Rwlock.with_write lock (fun () ->
            Cell.update writer_in (fun _ -> true);
            Thread.delay 0.05;
            Alcotest.(check int) "nobody entered while writing" 0
              (Cell.get intruders);
            Cell.update writer_out (fun _ -> true)))
      ()
  in
  Alcotest.(check bool) "writer entered" true
    (Cell.wait_for writer_in (fun b -> b));
  let contender enter =
    Thread.create
      (fun () ->
        enter lock (fun () ->
            Cell.update intruders (fun n -> n + 1);
            Cell.update saw_writer_done (fun l -> Cell.get writer_out :: l)))
      ()
  in
  let r = contender Rwlock.with_read in
  let w2 = contender Rwlock.with_write in
  Thread.join w;
  Thread.join r;
  Thread.join w2;
  Alcotest.(check bool) "contenders entered only after the writer left" true
    (List.for_all (fun b -> b) (Cell.get saw_writer_done))

(* Writer preference: with readers active and a writer queued, a new
   reader must wait until the writer has been through. *)
let test_writer_preference () =
  let lock = Rwlock.create () in
  let order = Cell.make [] in
  let first_reader_in = Cell.make false in
  let writer_waiting = Cell.make false in
  let release_first = Cell.make false in
  let r1 =
    Thread.create
      (fun () ->
        Rwlock.with_read lock (fun () ->
            Cell.update first_reader_in (fun _ -> true);
            ignore (Cell.wait_for release_first (fun b -> b))))
      ()
  in
  ignore (Cell.wait_for first_reader_in (fun b -> b));
  let w =
    Thread.create
      (fun () ->
        Cell.update writer_waiting (fun _ -> true);
        Rwlock.with_write lock (fun () -> Cell.update order (fun l -> "w" :: l)))
      ()
  in
  ignore (Cell.wait_for writer_waiting (fun b -> b));
  (* Give the writer time to block on the held read lock. *)
  ignore
    (eventually ~timeout_s:0.5 (fun () -> Rwlock.waiting_writers lock = 1));
  let r2 =
    Thread.create
      (fun () ->
        Rwlock.with_read lock (fun () -> Cell.update order (fun l -> "r2" :: l)))
      ()
  in
  Thread.delay 0.02;
  Cell.update release_first (fun _ -> true);
  Thread.join r1;
  Thread.join w;
  Thread.join r2;
  match List.rev (Cell.get order) with
  | [ "w"; "r2" ] -> ()
  | other ->
    Alcotest.failf "writer did not go first: [%s]" (String.concat "; " other)

(* Hammer the lock from mixed readers and writers; the invariant checked
   is mutual exclusion between the writer and everyone else, and that all
   threads terminate (no lost wakeups). *)
let test_stress_invariants () =
  let lock = Rwlock.create () in
  let readers_in = Cell.make 0 in
  let writer_in = Cell.make false in
  let violations = Cell.make 0 in
  let reader () =
    for _ = 1 to 200 do
      Rwlock.with_read lock (fun () ->
          Cell.update readers_in (fun n -> n + 1);
          if Cell.get writer_in then Cell.update violations (fun n -> n + 1);
          Cell.update readers_in (fun n -> n - 1))
    done
  in
  let writer () =
    for _ = 1 to 50 do
      Rwlock.with_write lock (fun () ->
          Cell.update writer_in (fun _ -> true);
          if Cell.get readers_in > 0 then Cell.update violations (fun n -> n + 1);
          Cell.update writer_in (fun _ -> false))
    done
  in
  let ts =
    List.init 4 (fun _ -> Thread.create reader ())
    @ List.init 2 (fun _ -> Thread.create writer ())
  in
  List.iter Thread.join ts;
  Alcotest.(check int) "no exclusion violations" 0 (Cell.get violations);
  Alcotest.(check int) "no readers left inside" 0 (Rwlock.active_readers lock);
  Alcotest.(check int) "no writers left waiting" 0 (Rwlock.waiting_writers lock)

(* Exceptions inside a section must release the lock. *)
let test_exception_releases () =
  let lock = Rwlock.create () in
  (try Rwlock.with_read lock (fun () -> failwith "boom") with Failure _ -> ());
  (try Rwlock.with_write lock (fun () -> failwith "boom") with Failure _ -> ());
  (* If either leaked, this would deadlock; run it under a timeout flag. *)
  let done_ = Cell.make false in
  let t =
    Thread.create
      (fun () ->
        Rwlock.with_write lock (fun () -> ());
        Rwlock.with_read lock (fun () -> ());
        Cell.update done_ (fun _ -> true))
      ()
  in
  Alcotest.(check bool) "lock reusable after exceptions" true
    (Cell.wait_for done_ (fun b -> b));
  Thread.join t

(* A bounded writer queues like any other writer: facing a stream of
   overlapping readers that never leaves the lock free on its own, it
   bars new readers and gets in well before its deadline. *)
let test_bounded_writer_preference () =
  let lock = Rwlock.create () in
  let stop = Atomic.make false in
  let reader i () =
    Thread.delay (0.001 *. float_of_int i);
    while not (Atomic.get stop) do
      Rwlock.with_read lock (fun () -> Thread.delay 0.004)
    done
  in
  let readers = List.init 4 (fun i -> Thread.create (reader i) ()) in
  let outcomes =
    List.init 3 (fun _ ->
        ignore (eventually ~timeout_s:1.0 (fun () -> Rwlock.active_readers lock >= 2));
        let deadline = Unix.gettimeofday () +. 0.3 in
        Rwlock.with_write_until lock ~deadline (fun () ->
            Unix.gettimeofday () <= deadline))
  in
  Atomic.set stop true;
  List.iter Thread.join readers;
  List.iteri
    (fun i -> function
      | Ok true -> ()
      | Ok false -> Alcotest.failf "writer %d entered after its deadline" i
      | Error `Timeout ->
        Alcotest.failf "writer %d timed out behind the reader stream" i)
    outcomes

(* [with_write_until] on its own thread; the outcome lands in a cell. *)
let bounded_writer lock ~budget_s =
  let outcome = Cell.make None in
  let t =
    Thread.create
      (fun () ->
        let deadline = Unix.gettimeofday () +. budget_s in
        let r = Rwlock.with_write_until lock ~deadline (fun () -> ()) in
        Cell.update outcome (fun _ -> Some r))
      ()
  in
  (t, outcome)

let flag_section lock enter flag =
  Thread.create (fun () -> enter lock (fun () -> Cell.update flag (fun _ -> true))) ()

(* A bounded writer that gives up must undo its bar and pass on any
   hand-off: the readers queued behind it get in while the first reader
   still holds the lock, and a second queued writer still gets the lock
   once it frees — also when the lock frees right at the deadline. *)
let test_bounded_writer_timeout_hands_off () =
  let lock = Rwlock.create () in
  let hold_read () =
    let inside = Cell.make false and release = Cell.make false in
    let t =
      Thread.create
        (fun () ->
          Rwlock.with_read lock (fun () ->
              Cell.update inside (fun _ -> true);
              ignore (Cell.wait_for release Fun.id)))
        ()
    in
    ignore (Cell.wait_for inside Fun.id);
    (t, release)
  in
  let waiting n = eventually ~timeout_s:1.0 (fun () -> Rwlock.waiting_writers lock = n) in
  let timed_out outcome =
    Cell.wait_for outcome (function Some (Error `Timeout) -> true | _ -> false)
  in
  (* Readers barred behind a bounded writer. *)
  let r1, release_r1 = hold_read () in
  let wb, outcome = bounded_writer lock ~budget_s:0.3 in
  Alcotest.(check bool) "bounded writer queued" true (waiting 1);
  let r2_in = Cell.make false in
  let r2 = flag_section lock Rwlock.with_read r2_in in
  Thread.delay 0.03;
  Alcotest.(check bool) "new reader barred while it waits" false (Cell.get r2_in);
  Alcotest.(check bool) "bounded writer timed out" true (timed_out outcome);
  Alcotest.(check bool) "barred reader let in beside the holder" true
    (Cell.wait_for r2_in Fun.id);
  Thread.join wb;
  Thread.join r2;
  (* A second queued writer keeps its hand-off. *)
  let w2_in = Cell.make false in
  let w2 = flag_section lock Rwlock.with_write w2_in in
  Alcotest.(check bool) "writer queued" true (waiting 1);
  let wb, outcome = bounded_writer lock ~budget_s:0.2 in
  Alcotest.(check bool) "both writers queued" true (waiting 2);
  Alcotest.(check bool) "bounded writer timed out" true (timed_out outcome);
  Alcotest.(check bool) "queued writer still waits" false (Cell.get w2_in);
  Cell.update release_r1 (fun _ -> true);
  Alcotest.(check bool) "queued writer gets the lock" true (Cell.wait_for w2_in Fun.id);
  List.iter Thread.join [ r1; wb; w2 ];
  (* The lock frees right at the bounded writer's deadline. *)
  for _ = 1 to 20 do
    let r1, release_r1 = hold_read () in
    let w2_in = Cell.make false in
    let w2 = flag_section lock Rwlock.with_write w2_in in
    ignore (waiting 1);
    let wb, _ = bounded_writer lock ~budget_s:0.01 in
    ignore (waiting 2);
    Thread.delay 0.01;
    Cell.update release_r1 (fun _ -> true);
    Alcotest.(check bool) "queued writer gets the lock" true (Cell.wait_for w2_in Fun.id);
    List.iter Thread.join [ r1; wb; w2 ]
  done;
  Alcotest.(check int) "no readers left inside" 0 (Rwlock.active_readers lock);
  Alcotest.(check int) "no writers left waiting" 0 (Rwlock.waiting_writers lock)

(* Random schedules of bounded and unbounded readers and writers.  Each
   actor runs [reps] sections of [hold_ms]; a bounded one gives each
   acquisition [budget_ms]. *)
type actor = { writer : bool; budget_ms : int option; hold_ms : int; reps : int }

let print_actor a =
  Printf.sprintf "%s%s hold=%dms x%d"
    (if a.writer then "W" else "R")
    (match a.budget_ms with Some b -> Printf.sprintf " budget=%dms" b | None -> "")
    a.hold_ms a.reps

let schedule_arb =
  let actor =
    QCheck.Gen.(
      map4
        (fun writer budget_ms hold_ms reps -> { writer; budget_ms; hold_ms; reps })
        bool (opt (int_range 1 15)) (int_range 0 4) (int_range 1 4))
  in
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map print_actor l))
    QCheck.Gen.(list_size (int_range 2 6) actor)

(* Mutual exclusion holds, every actor finishes, the lock ends idle, and
   no [Timeout] comes before its deadline or more than 50 ms after it. *)
let prop_schedule actors =
  let lock = Rwlock.create () in
  let m = Mutex.create () in
  let readers_in = ref 0 and writer_in = ref false in
  let violations = ref 0 and bad_timeouts = ref [] in
  let guarded f =
    Mutex.lock m;
    f ();
    Mutex.unlock m
  in
  let section a () =
    guarded (fun () ->
        if !writer_in || (a.writer && !readers_in > 0) then incr violations;
        if a.writer then writer_in := true else incr readers_in);
    if a.hold_ms > 0 then Thread.delay (float_of_int a.hold_ms /. 1000.);
    guarded (fun () -> if a.writer then writer_in := false else decr readers_in)
  in
  let finished = Atomic.make 0 in
  let run a () =
    for _ = 1 to a.reps do
      match a.budget_ms with
      | None -> (if a.writer then Rwlock.with_write else Rwlock.with_read) lock (section a)
      | Some b ->
        let deadline = Unix.gettimeofday () +. (float_of_int b /. 1000.) in
        let bounded = if a.writer then Rwlock.with_write_until else Rwlock.with_read_until in
        (match bounded lock ~deadline (section a) with
         | Ok () -> ()
         | Error `Timeout ->
           let late = Unix.gettimeofday () -. deadline in
           if late < 0. || late > 0.05 then
             guarded (fun () -> bad_timeouts := late :: !bad_timeouts))
    done;
    Atomic.incr finished
  in
  let threads = List.map (fun a -> Thread.create (run a) ()) actors in
  if not (eventually ~timeout_s:10.0 (fun () -> Atomic.get finished = List.length actors))
  then QCheck.Test.fail_report "an actor never finished";
  List.iter Thread.join threads;
  if !violations > 0 then QCheck.Test.fail_reportf "%d exclusion violations" !violations;
  (match !bad_timeouts with
   | [] -> ()
   | late :: _ ->
     QCheck.Test.fail_reportf "Timeout %.1f ms after its deadline" (late *. 1000.));
  Rwlock.active_readers lock = 0 && Rwlock.waiting_writers lock = 0

(* --- spare threads ------------------------------------------------------ *)

(* A finished job's thread parks right after the job returns; give it
   that moment before the next [run]. *)
let settle () = Thread.delay 0.05

let self_id () = Thread.id (Thread.self ())

(* Run [n] jobs that each count themselves in, then hold their thread
   until [latch] opens. *)
let run_blockers t latch n =
  let inside = Cell.make 0 in
  for _ = 1 to n do
    Spare.run t (fun () ->
        Cell.update inside succ;
        while not (Cell.wait_for latch Fun.id) do
          ()
        done)
  done;
  Alcotest.(check bool) "blockers running" true (Cell.wait_for inside (( = ) n))

let test_spare_reuses_thread () =
  let t = Spare.create () in
  let ids = Cell.make [] in
  let job () = Cell.update ids (fun l -> self_id () :: l) in
  Spare.run t job;
  Alcotest.(check bool) "first ran" true (Cell.wait_for ids (fun l -> List.length l = 1));
  settle ();
  Spare.run t job;
  Alcotest.(check bool) "second ran" true (Cell.wait_for ids (fun l -> List.length l = 2));
  (match Cell.get ids with
   | [ second; first ] -> Alcotest.(check int) "same thread" first second
   | _ -> Alcotest.fail "two ids expected");
  Alcotest.(check int) "one thread" 1 (Spare.spawned t)

let test_spare_never_queues () =
  let t = Spare.create () in
  let warm = Cell.make false in
  Spare.run t (fun () -> Cell.update warm (fun _ -> true));
  ignore (Cell.wait_for warm Fun.id);
  settle ();
  (* The one spare thread is now held on the latch... *)
  let latch = Cell.make false in
  run_blockers t latch 1;
  (* ...so the next job starts on a thread of its own, not after it. *)
  let ran = Cell.make false in
  Spare.run t (fun () -> Cell.update ran (fun _ -> true));
  let ran_first = Cell.wait_for ran Fun.id in
  Cell.update latch (fun _ -> true);
  Alcotest.(check bool) "ran before the latch opened" true ran_first;
  Alcotest.(check int) "two threads" 2 (Spare.spawned t)

let test_spare_survives_raise () =
  let t = Spare.create () in
  let raiser = Cell.make None in
  Spare.run t (fun () ->
      Cell.update raiser (fun _ -> Some (self_id ()));
      failwith "job failure");
  Alcotest.(check bool) "raising job ran" true (Cell.wait_for raiser Option.is_some);
  settle ();
  let next = Cell.make None in
  Spare.run t (fun () -> Cell.update next (fun _ -> Some (self_id ())));
  Alcotest.(check bool) "next job ran" true (Cell.wait_for next Option.is_some);
  Alcotest.(check (option int)) "on the raising job's thread" (Cell.get raiser) (Cell.get next);
  Alcotest.(check int) "one thread" 1 (Spare.spawned t)

let test_spare_spawned_is_peak () =
  let t = Spare.create () in
  let round n =
    let latch = Cell.make false in
    run_blockers t latch n;
    Cell.update latch (fun _ -> true);
    settle ()
  in
  round 3;
  Alcotest.(check int) "three at once" 3 (Spare.spawned t);
  round 2;
  round 3;
  Alcotest.(check int) "no new thread below the peak" 3 (Spare.spawned t);
  round 4;
  Alcotest.(check int) "a new peak adds one" 4 (Spare.spawned t)

(* --- timed waits ------------------------------------------------------- *)

(* One [Timedwait.wait] on [cond] under [mutex] until [until], unless
   [released] is already set; the seconds since [t0] at which it
   returned. *)
let timed_wait_once ~t0 mutex cond released ~until =
  Mutex.lock mutex;
  if not !released then Timedwait.wait mutex cond ~until;
  Mutex.unlock mutex;
  Unix.gettimeofday () -. t0

(* A waiter signalled long before its deadline takes its deadline with
   it: a later waiter on the same condition is not woken then. *)
let test_timedwait_early_return_leaves_nothing () =
  let mutex = Mutex.create () and cond = Condition.create () in
  let t0 = Unix.gettimeofday () in
  let released = ref false in
  let first = ref 0. in
  let th =
    Thread.create
      (fun () -> first := timed_wait_once ~t0 mutex cond released ~until:(t0 +. 0.2))
      ()
  in
  Thread.delay 0.02;
  Mutex.lock mutex;
  released := true;
  Condition.broadcast cond;
  Mutex.unlock mutex;
  Thread.join th;
  Alcotest.(check bool) (Printf.sprintf "first waiter returned early (%.3f s)" !first) true
    (!first < 0.15);
  let later = timed_wait_once ~t0 mutex cond (ref false) ~until:(t0 +. 0.6) in
  Alcotest.(check bool)
    (Printf.sprintf "the later waiter slept through the dead deadline (woke at %.3f s)" later)
    true (later >= 0.55)

(* Waiters leave the timekeeper's heap from its middle (signalled early)
   while others still wait: each of those returns at its own deadline,
   not before it and not much after it. *)
let test_timedwait_deadlines_survive_removals () =
  let t0 = Unix.gettimeofday () in
  let n = 8 in
  let waiters =
    List.init n (fun i ->
        let mutex = Mutex.create () and cond = Condition.create () in
        (* deadlines 0.10 .. 0.24 s, pushed out of order *)
        let until = t0 +. 0.10 +. (0.02 *. float_of_int ((i * 3) mod n)) in
        let released = ref false and woke = ref 0. in
        let th =
          Thread.create (fun () -> woke := timed_wait_once ~t0 mutex cond released ~until) ()
        in
        (i, mutex, cond, released, until -. t0, woke, th))
  in
  Thread.delay 0.04;
  List.iter
    (fun (i, mutex, cond, released, _, _, _) ->
      if i mod 2 = 1 then begin
        Mutex.lock mutex;
        released := true;
        Condition.broadcast cond;
        Mutex.unlock mutex
      end)
    waiters;
  List.iter
    (fun (i, _, _, _, deadline, woke, th) ->
      Thread.join th;
      if i mod 2 = 0 then
        Alcotest.(check bool)
          (Printf.sprintf "waiter %d woke at %.3f s for a %.2f s deadline" i !woke deadline)
          true
          (!woke >= deadline -. 0.002 && !woke < deadline +. 0.3)
      else
        Alcotest.(check bool) (Printf.sprintf "waiter %d returned early" i) true
          (!woke < deadline))
    waiters

let () =
  Alcotest.run "sync"
    [
      ( "rwlock",
        [
          quick "readers overlap" test_readers_overlap;
          quick "writer excludes" test_writer_excludes;
          quick "writer preference" test_writer_preference;
          quick "stress invariants" test_stress_invariants;
          quick "exception releases" test_exception_releases;
          quick "bounded writer preference" test_bounded_writer_preference;
          quick "bounded writer timeout hands off" test_bounded_writer_timeout_hands_off;
          qcheck_case ~count:50 "random bounded schedules" schedule_arb prop_schedule;
        ] );
      ( "spare threads",
        [
          quick "sequential jobs share a thread" test_spare_reuses_thread;
          quick "a job never waits behind a busy one" test_spare_never_queues;
          quick "a raising job leaves its thread reusable" test_spare_survives_raise;
          quick "spawned is the peak concurrency" test_spare_spawned_is_peak;
        ] );
      ( "timedwait",
        [
          quick "an early return leaves no broadcast behind"
            test_timedwait_early_return_leaves_nothing;
          quick "deadlines survive removals" test_timedwait_deadlines_survive_removals;
        ] );
    ]
