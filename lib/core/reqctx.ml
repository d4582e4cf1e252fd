(* Per-request context: the mode a dispatched call carries from the wire
   down into driver code.

   A call's route on the daemon gives it at most one deadline (a v1.4
   envelope's, anchored at receive time), and the dispatcher binds it
   with [with_deadline] around the call; any code that call runs
   (remote_service handlers, driver ops, Drvnode lock waits) can then
   ask for the mode without it being threaded through every signature.
   A binding is an effect handler installed around the call on the
   thread that runs it, so it is exactly as wide as the call: it ends
   when the call returns or raises, an inner binding shadows an outer
   one only for its own extent, and a thread the call spawns starts
   unbound. *)

exception Would_wait

type mode = Unbounded | Until of float | No_wait

type _ Effect.t += Current : mode Effect.t

let current () = try Effect.perform Current with Effect.Unhandled _ -> Unbounded

let bind (mode : mode) f =
  Effect.Deep.try_with f ()
    {
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Current ->
            Some (fun (k : (a, _) Effect.Deep.continuation) -> Effect.Deep.continue k mode)
          | _ -> None);
    }

let with_deadline deadline f =
  match deadline with None -> f () | Some d -> bind (Until d) f

let without_waiting f = bind No_wait f

let check ~what () =
  match current () with
  | Until d when Unix.gettimeofday () > d ->
    Verror.error Verror.Operation_failed "deadline expired before %s" what
  | Unbounded | Until _ | No_wait -> Ok ()
