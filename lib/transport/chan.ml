exception Closed

type hook = { h_id : int; h_fn : unit -> unit }

type t = {
  mutex : Mutex.t;
  readable : Condition.t;
  queue : string Queue.t;
  mutable closed : bool;
  mutable hooks : hook list;
}

let hook_ids = Atomic.make 1

let create () =
  {
    mutex = Mutex.create ();
    readable = Condition.create ();
    queue = Queue.create ();
    closed = false;
    hooks = [];
  }

let with_lock c f =
  Mutex.lock c.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.mutex) f

(* Hooks run after the channel mutex is released: a hook typically takes
   its own lock (the reactor's), and holding ours across that call would
   order the two locks both ways.  Hooks only mark readiness, so running
   them slightly after the state change is harmless. *)
let run_hooks hooks = List.iter (fun h -> h.h_fn ()) hooks

(* The receiver is woken after the unlock: signalled under the lock, a
   receiver on the same CPU would preempt us only to block on the mutex
   we still hold.  Waiters re-check the queue under the lock, so the
   late signal loses nothing.  A send never blocks: the queue is
   unbounded. *)
let send c msg =
  let hooks =
    with_lock c (fun () ->
        if c.closed then raise Closed;
        Queue.push msg c.queue;
        c.hooks)
  in
  Condition.signal c.readable;
  run_hooks hooks

let recv c =
  with_lock c (fun () ->
      while Queue.is_empty c.queue && not c.closed do
        Condition.wait c.readable c.mutex
      done;
      if Queue.is_empty c.queue then raise Closed;
      Queue.pop c.queue)

let try_recv c =
  with_lock c (fun () ->
      if not (Queue.is_empty c.queue) then Some (Queue.pop c.queue)
      else if c.closed then raise Closed
      else None)

let recv_opt c ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  with_lock c (fun () ->
      let rec wait_for_data () =
        if not (Queue.is_empty c.queue) then Some (Queue.pop c.queue)
        else if c.closed then raise Closed
        else if Unix.gettimeofday () >= deadline then None
        else begin
          Ovsync.Timedwait.wait c.mutex c.readable ~until:deadline;
          wait_for_data ()
        end
      in
      wait_for_data ())

let close c =
  let hooks =
    with_lock c (fun () ->
        if not c.closed then begin
          c.closed <- true;
          Condition.broadcast c.readable;
          c.hooks
        end
        else [])
  in
  run_hooks hooks

(* Lock and unlock by hand: these two run per call on the RPC client's
   read path, and [with_lock]'s closure would be allocated each time. *)
let is_closed c =
  Mutex.lock c.mutex;
  let closed = c.closed in
  Mutex.unlock c.mutex;
  closed

let pending c =
  Mutex.lock c.mutex;
  let n = Queue.length c.queue in
  Mutex.unlock c.mutex;
  n

let add_ready_hook c fn =
  let h = { h_id = Atomic.fetch_and_add hook_ids 1; h_fn = fn } in
  with_lock c (fun () -> c.hooks <- h :: c.hooks);
  h

let remove_ready_hook c h =
  with_lock c (fun () ->
      c.hooks <- List.filter (fun h' -> h'.h_id <> h.h_id) c.hooks)

type endpoint = { incoming : t; outgoing : t }

let pipe () =
  let a = create () and b = create () in
  ({ incoming = a; outgoing = b }, { incoming = b; outgoing = a })

let close_endpoint ep =
  close ep.incoming;
  close ep.outgoing
