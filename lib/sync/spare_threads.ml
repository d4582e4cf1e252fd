(* Each parked thread waits on a condition of its own, so handing it a
   job is one [Condition.signal] that wakes exactly that thread.  The
   parked list is a lock-free stack, most recently parked first.  A
   finishing thread rejoins it without waiting on any lock: waiting
   would yield the runtime to the thread that just saw the job's result,
   and that thread's next [run] would find no spare and spawn one. *)

type slot = { m : Mutex.t; wake : Condition.t; mutable job : (unit -> unit) option }

type t = { parked : slot list Atomic.t; spawned : int Atomic.t; jobs : int Atomic.t }

let create () = { parked = Atomic.make []; spawned = Atomic.make 0; jobs = Atomic.make 0 }

let rec push t slot =
  let l = Atomic.get t.parked in
  if not (Atomic.compare_and_set t.parked l (slot :: l)) then push t slot

let rec pop t =
  match Atomic.get t.parked with
  | [] -> None
  | slot :: rest as l -> if Atomic.compare_and_set t.parked l rest then Some slot else pop t

let rec serve t slot job =
  (try job () with _ -> ());
  push t slot;
  Mutex.lock slot.m;
  while slot.job = None do
    Condition.wait slot.wake slot.m
  done;
  let next = Option.get slot.job in
  slot.job <- None;
  Mutex.unlock slot.m;
  serve t slot next

let run t job =
  Atomic.incr t.jobs;
  match pop t with
  | Some slot ->
    Mutex.lock slot.m;
    slot.job <- Some job;
    Condition.signal slot.wake;
    Mutex.unlock slot.m
  | None ->
    Atomic.incr t.spawned;
    let slot = { m = Mutex.create (); wake = Condition.create (); job = None } in
    ignore (Thread.create (serve t slot) job)

let spawned t = Atomic.get t.spawned
let jobs t = Atomic.get t.jobs
