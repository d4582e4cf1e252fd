(* Per-request context: the deadline budget a dispatched call carries
   from the wire down into driver code.

   A call's route on the daemon gives it at most one deadline (a v1.4
   envelope's, anchored at receive time), and the dispatcher binds it
   with [with_deadline] around the pool job that runs the call; any code
   on that worker thread (remote_service handlers, driver ops, Drvnode
   lock waits) can then ask how much budget remains without the
   deadline being threaded through every signature.  Keyed by thread id:
   a worker runs exactly one call at a time, and the binding is removed
   when the call returns, so a pooled worker never leaks one call's
   deadline into the next.  The no-wait mode is the deadline
   [neg_infinity], so it rides in the same table. *)

exception Would_wait

let mutex = Mutex.create ()
let table : (int, float) Hashtbl.t = Hashtbl.create 64

let self () = Thread.id (Thread.self ())

let deadline () =
  Mutex.lock mutex;
  let d = Hashtbl.find_opt table (self ()) in
  Mutex.unlock mutex;
  d

let with_deadline deadline f =
  match deadline with
  | None -> f ()
  | Some d ->
    let tid = self () in
    Mutex.lock mutex;
    Hashtbl.replace table tid d;
    Mutex.unlock mutex;
    Fun.protect
      ~finally:(fun () ->
        Mutex.lock mutex;
        Hashtbl.remove table tid;
        Mutex.unlock mutex)
      f

let no_wait = neg_infinity
let without_waiting f = with_deadline (Some no_wait) f
let may_wait () = deadline () <> Some no_wait

let wait_expired deadline what =
  if deadline = no_wait then raise Would_wait
  else Verror.raise_err Verror.Operation_failed "deadline expired waiting for %s" what

let remaining_s () =
  Option.map (fun d -> d -. Unix.gettimeofday ()) (deadline ())

let expired () =
  match deadline () with
  | None -> false
  | Some d -> d <> no_wait && Unix.gettimeofday () > d

let check ~what () =
  if expired () then
    Verror.error Verror.Operation_failed "deadline expired before %s" what
  else Ok ()
