(* Per-request context: the deadline budget a dispatched call carries
   from the wire down into driver code.

   The dispatcher wraps every worker-side call in [with_deadline]; any
   code on that worker thread (remote_service handlers, driver ops,
   Drvnode lock waits) can then ask how much budget remains without the
   deadline being threaded through every signature.  Keyed by thread id:
   a worker runs exactly one call at a time, and the binding is removed
   when the call returns, so a pooled worker never leaks one call's
   deadline into the next. *)

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

let remaining_s () =
  Option.map (fun d -> d -. Unix.gettimeofday ()) (deadline ())

let expired () =
  match deadline () with None -> false | Some d -> Unix.gettimeofday () > d

let check ~what () =
  if expired () then
    Verror.error Verror.Operation_failed "deadline expired before %s" what
  else Ok ()
