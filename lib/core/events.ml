type lifecycle =
  | Ev_defined
  | Ev_undefined
  | Ev_started
  | Ev_suspended
  | Ev_resumed
  | Ev_shutdown
  | Ev_stopped
  | Ev_crashed
  | Ev_migrated
  | Ev_adopted
  | Ev_diverged
  | Ev_resync

let lifecycle_name = function
  | Ev_defined -> "defined"
  | Ev_undefined -> "undefined"
  | Ev_started -> "started"
  | Ev_suspended -> "suspended"
  | Ev_resumed -> "resumed"
  | Ev_shutdown -> "shutdown"
  | Ev_stopped -> "stopped"
  | Ev_crashed -> "crashed"
  | Ev_migrated -> "migrated"
  | Ev_adopted -> "adopted"
  | Ev_diverged -> "diverged"
  | Ev_resync -> "resync"

(* Wire codes are list positions: append-only. *)
let all =
  [
    Ev_defined; Ev_undefined; Ev_started; Ev_suspended; Ev_resumed; Ev_shutdown;
    Ev_stopped; Ev_crashed; Ev_migrated; Ev_adopted; Ev_diverged;
    (* v1.6 addition *)
    Ev_resync;
  ]

let lifecycle_to_int ev =
  let rec index i = function
    | [] -> assert false
    | x :: rest -> if x = ev then i else index (i + 1) rest
  in
  index 0 all

let lifecycle_of_int n =
  match List.nth_opt all n with
  | Some ev -> Ok ev
  | None -> Error (Printf.sprintf "unknown lifecycle event %d" n)

(* [seq] is the daemon-assigned stream position for events that arrived
   over a sequence-numbered remote subscription; 0 for local (driver-bus)
   events, which have no wire position. *)
type event = { domain_name : string; lifecycle : lifecycle; seq : int }
type subscription = int

type bus = {
  mutex : Mutex.t;
  mutable subscribers : (int * (event -> unit)) list;
  mutable next_id : int;
  recent : event Queue.t;
}

let history_bound = 4096

let create_bus () =
  { mutex = Mutex.create (); subscribers = []; next_id = 0; recent = Queue.create () }

let with_lock bus f =
  Mutex.lock bus.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock bus.mutex) f

let publish ?(seq = 0) bus ~domain_name lifecycle =
  let event = { domain_name; lifecycle; seq } in
  let subscribers =
    with_lock bus (fun () ->
        Queue.push event bus.recent;
        if Queue.length bus.recent > history_bound then ignore (Queue.pop bus.recent);
        bus.subscribers)
  in
  match subscribers with
  | [] -> None
  | subscribers -> Some (fun () -> List.iter (fun (_, f) -> f event) subscribers)

let emit ?seq bus ~domain_name lifecycle =
  Option.iter (fun run -> run ()) (publish ?seq bus ~domain_name lifecycle)

let subscribe bus f =
  with_lock bus (fun () ->
      let id = bus.next_id in
      bus.next_id <- id + 1;
      bus.subscribers <- bus.subscribers @ [ (id, f) ];
      id)

let unsubscribe bus id =
  with_lock bus (fun () ->
      bus.subscribers <- List.filter (fun (i, _) -> i <> id) bus.subscribers)

let subscriber_count bus = with_lock bus (fun () -> List.length bus.subscribers)

let history bus =
  with_lock bus (fun () -> Queue.fold (fun acc e -> e :: acc) [] bus.recent |> List.rev)
