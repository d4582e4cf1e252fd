(* A readiness-driven event loop over simulated channels — the in-process
   analogue of an epoll-based reactor thread.  Channels register a watch;
   Chan readiness hooks (fired on every send/close) enqueue the watch on
   the ready list and, if the loop is parked on its condition, signal it.
   Every event source is an in-process [Chan] and nothing is time-based,
   so an untimed [Condition.wait] is the whole park: no descriptor and
   no [select].  Callbacks run on the reactor thread with
   no reactor lock held, so they may freely watch and unwatch. *)

type mode = Edge | Level

type watch = {
  w_id : int;
  w_chan : Ovnet.Chan.t;
  w_mode : mode;
  w_fn : unit -> unit;
  mutable w_hook : Ovnet.Chan.hook option;
  mutable w_active : bool;
  mutable w_queued : bool; (* already on the ready queue *)
}

type t = {
  mutex : Mutex.t;
  ready : watch Queue.t;
  watches : (int, watch) Hashtbl.t;
  wake : Condition.t;
  mutable waiting : bool; (* loop parked on [wake] *)
  mutable running : bool;
  mutable thread : Thread.t option;
  name : string;
  logger : Vlog.t;
  (* stats, guarded by [mutex] *)
  mutable s_loops : int;
  mutable s_dispatches : int;
  mutable s_wakeups : int;
}

type stats = {
  loops : int;
  dispatches : int;
  wakeups : int;
  watches_active : int;
}

let ids = Atomic.make 1
let fresh_id () = Atomic.fetch_and_add ids 1

let with_lock r f =
  Mutex.lock r.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock r.mutex) f

(* Signal the loop only when it is actually parked — clearing [waiting]
   here collapses a burst of readiness events into one wakeup. *)
let wake_locked r =
  if r.waiting then begin
    r.waiting <- false;
    r.s_wakeups <- r.s_wakeups + 1;
    Condition.signal r.wake
  end

let mark_ready r w =
  with_lock r (fun () ->
      if w.w_active && not w.w_queued then begin
        w.w_queued <- true;
        Queue.push w r.ready;
        wake_locked r
      end)

let dispatch r w =
  (try w.w_fn ()
   with exn ->
     Vlog.logf r.logger ~module_:"reactor" Vlog.Warn
       "%s: watch callback raised %s" r.name (Printexc.to_string exn));
  (* Level-triggered watches stay hot while the channel stays readable;
     edge-triggered ones wait for the next hook event. *)
  if
    w.w_mode = Level && w.w_active
    && (Ovnet.Chan.pending w.w_chan > 0 || Ovnet.Chan.is_closed w.w_chan)
  then mark_ready r w

(* The lock is held from the iteration count to the park, so a reader
   of [stats] that sees an iteration with nothing dispatching sees the
   loop parked. *)
let loop r =
  Mutex.lock r.mutex;
  let continue = ref true in
  while !continue do
    r.s_loops <- r.s_loops + 1;
    match Queue.take_opt r.ready with
    | Some w when not w.w_active -> () (* unwatched while queued *)
    | Some w ->
      w.w_queued <- false;
      r.s_dispatches <- r.s_dispatches + 1;
      Mutex.unlock r.mutex;
      dispatch r w;
      Mutex.lock r.mutex
    | None when not r.running -> continue := false
    | None ->
      r.waiting <- true;
      Condition.wait r.wake r.mutex;
      r.waiting <- false
  done;
  Mutex.unlock r.mutex

let create ?(name = "reactor") ~logger () =
  let r =
    {
      mutex = Mutex.create ();
      ready = Queue.create ();
      watches = Hashtbl.create 64;
      wake = Condition.create ();
      waiting = false;
      running = true;
      thread = None;
      name;
      logger;
      s_loops = 0;
      s_dispatches = 0;
      s_wakeups = 0;
    }
  in
  r.thread <- Some (Thread.create loop r);
  r

let name r = r.name

let watch_chan r chan ~mode fn =
  let w =
    {
      w_id = fresh_id ();
      w_chan = chan;
      w_mode = mode;
      w_fn = fn;
      w_hook = None;
      w_active = true;
      w_queued = false;
    }
  in
  with_lock r (fun () -> Hashtbl.replace r.watches w.w_id w);
  (* Registration does not report initial readiness: the caller decides
     (via [kick]) once its own bookkeeping for the watch is in place, so
     no callback can run before the caller is ready for it. *)
  w.w_hook <- Some (Ovnet.Chan.add_ready_hook chan (fun () -> mark_ready r w));
  w

let kick r w = mark_ready r w

let unwatch r w =
  (match w.w_hook with
   | Some h ->
     w.w_hook <- None;
     Ovnet.Chan.remove_ready_hook w.w_chan h
   | None -> ());
  with_lock r (fun () ->
      w.w_active <- false;
      Hashtbl.remove r.watches w.w_id)

let stats r =
  with_lock r (fun () ->
      {
        loops = r.s_loops;
        dispatches = r.s_dispatches;
        wakeups = r.s_wakeups;
        watches_active = Hashtbl.length r.watches;
      })

let stop r =
  let thread =
    with_lock r (fun () ->
        if r.running then begin
          r.running <- false;
          wake_locked r;
          r.thread
        end
        else None)
  in
  match thread with
  | Some th when Thread.id th <> Thread.id (Thread.self ()) -> Thread.join th
  | Some _ | None -> ()
