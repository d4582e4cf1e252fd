module Vm_config = Vmm.Vm_config
module Vm_state = Vmm.Vm_state
module Guest_image = Vmm.Guest_image
module J = Mini_json

type t = {
  pid : int;
  argv : string list;
  config : Vm_config.t;
  host : Hostinfo.t;
  image : Guest_image.t;
  mutex : Mutex.t;
  mutable state : Vm_state.state;
  mutable alive : bool;
  mutable capabilities_negotiated : bool;
}

let pid_counter = Atomic.make 1000

let with_lock p f =
  Mutex.lock p.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock p.mutex) f

(* Process table: hostname -> domain name -> process, process-global.
   Emulator processes belong to the host, not to the manager, so they
   survive a manager crash; a restarted QEMU driver re-discovers its
   guests here ("ps" + the -name argv convention, in effect).  Dead
   processes are filtered on listing rather than removed, which keeps
   the table free of lock-ordering entanglements with [p.mutex]. *)
let table_mutex = Mutex.create ()
let table : (string, (string, t) Hashtbl.t) Hashtbl.t = Hashtbl.create 8

let table_register p =
  Mutex.lock table_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock table_mutex)
    (fun () ->
      let hostname = Hostinfo.hostname p.host in
      let procs =
        match Hashtbl.find_opt table hostname with
        | Some procs -> procs
        | None ->
          let procs = Hashtbl.create 16 in
          Hashtbl.add table hostname procs;
          procs
      in
      Hashtbl.replace procs p.config.Vm_config.name p)

let spawn host ~argv config =
  if not (List.mem "-S" argv) then
    Error "refusing to spawn without -S (must start paused)"
  else if not (List.mem config.Vm_config.name argv) then
    Error "argv does not name the domain (-name missing)"
  else
    match
      Hostinfo.reserve host ~memory_kib:config.Vm_config.memory_kib
        ~vcpus:config.Vm_config.vcpus
    with
    | Error msg -> Error msg
    | Ok () ->
      let p =
        {
          pid = Atomic.fetch_and_add pid_counter 1;
          argv;
          config;
          host;
          image = Guest_image.create ~memory_kib:config.Vm_config.memory_kib;
          mutex = Mutex.create ();
          state = Vm_state.Paused;
          alive = true;
          capabilities_negotiated = false;
        }
      in
      table_register p;
      Ok p

let pid p = p.pid
let argv p = p.argv
let config p = p.config
let state p = with_lock p (fun () -> p.state)
let is_alive p = with_lock p (fun () -> p.alive)
let image p = p.image

(* Process exit: release resources exactly once. *)
let exit_process p =
  if p.alive then begin
    p.alive <- false;
    p.state <- Vm_state.Shutoff;
    Hostinfo.release p.host ~memory_kib:p.config.Vm_config.memory_kib
      ~vcpus:p.config.Vm_config.vcpus
  end

(* ------------------------------------------------------------------ *)
(* QMP monitor                                                         *)
(* ------------------------------------------------------------------ *)

let reply_return v = J.to_string (J.Obj [ ("return", v) ])

let reply_error cls desc =
  J.to_string
    (J.Obj
       [ ("error", J.Obj [ ("class", J.String cls); ("desc", J.String desc) ]) ])

let status_name = function
  | Vm_state.Running | Vm_state.Blocked -> "running"
  | Vm_state.Paused -> "paused"
  | Vm_state.Shutdown -> "shutdown"
  | Vm_state.Shutoff -> "shutdown"
  | Vm_state.Crashed -> "guest-panicked"

let apply_transition p event =
  match Vm_state.transition p.state event with
  | Ok next ->
    p.state <- next;
    Ok ()
  | Error msg -> Error msg

let handle_command p cmd =
  match cmd with
  | "qmp_capabilities" ->
    p.capabilities_negotiated <- true;
    reply_return (J.Obj [])
  | _ when not p.capabilities_negotiated ->
    reply_error "CommandNotFound" "capabilities negotiation required first"
  | "query-status" ->
    reply_return
      (J.Obj
         [
           ("status", J.String (status_name p.state));
           ("running", J.Bool (p.state = Vm_state.Running));
         ])
  | "cont" ->
    (match apply_transition p Vm_state.Ev_resume with
     | Ok () -> reply_return (J.Obj [])
     | Error msg -> reply_error "GenericError" msg)
  | "stop" ->
    (match apply_transition p Vm_state.Ev_suspend with
     | Ok () -> reply_return (J.Obj [])
     | Error msg -> reply_error "GenericError" msg)
  | "system_powerdown" ->
    (match apply_transition p Vm_state.Ev_shutdown_request with
     | Ok () ->
       (* The simulated guest acknowledges ACPI immediately. *)
       (match apply_transition p Vm_state.Ev_shutdown_complete with
        | Ok () ->
          exit_process p;
          reply_return (J.Obj [])
        | Error msg -> reply_error "GenericError" msg)
     | Error msg -> reply_error "GenericError" msg)
  | "quit" ->
    exit_process p;
    reply_return (J.Obj [])
  | "query-migrate" ->
    reply_return
      (J.Obj
         [
           ("status", J.String "none");
           ("dirty-pages", J.Int (Guest_image.dirty_count p.image));
           ("ram-total-kib", J.Int (Guest_image.memory_kib p.image));
         ])
  | "inject-crash" ->
    (match apply_transition p Vm_state.Ev_crash with
     | Ok () -> reply_return (J.Obj [])
     | Error msg -> reply_error "GenericError" msg)
  | other -> reply_error "CommandNotFound" (Printf.sprintf "command %S not found" other)

let monitor_command p line =
  with_lock p (fun () ->
      if not p.alive then reply_error "GenericError" "process has exited"
      else
        match J.of_string line with
        | exception J.Parse_error msg -> reply_error "JSONParsing" msg
        | request ->
          (match J.member_opt "execute" request with
           | Some (J.String cmd) -> handle_command p cmd
           | Some _ | None -> reply_error "GenericError" "missing execute key"))

let qmp p ~cmd ?(args = []) () =
  let request =
    J.Obj
      (("execute", J.String cmd)
      :: (if args = [] then [] else [ ("arguments", J.Obj args) ]))
  in
  let reply = monitor_command p (J.to_string request) in
  match J.of_string reply with
  | exception J.Parse_error msg -> Error ("unparseable monitor reply: " ^ msg)
  | parsed ->
    (match J.member_opt "return" parsed with
     | Some v -> Ok v
     | None ->
       (match J.member_opt "error" parsed with
        | Some err -> Error (J.get_string (J.member "desc" err))
        | None -> Error "monitor reply has neither return nor error"))

let running_on hostname =
  let candidates =
    Mutex.lock table_mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock table_mutex)
      (fun () ->
        match Hashtbl.find_opt table hostname with
        | Some procs -> Hashtbl.fold (fun name p acc -> (name, p) :: acc) procs []
        | None -> [])
  in
  (* Liveness checked outside the table lock (is_alive takes p.mutex). *)
  List.filter (fun (_, p) -> is_alive p) candidates
  |> List.sort (fun (a, _) (b, _) -> compare a b)
