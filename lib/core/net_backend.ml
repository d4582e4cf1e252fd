type info = {
  net_name : string;
  net_uuid : Vmm.Uuid.t;
  bridge : string;
  ip_range : string;
  active : bool;
  autostart : bool;
  connected_ifaces : int;
}

type net = {
  uuid : Vmm.Uuid.t;
  bridge : string;
  ip_range : string;
  mutable active : bool;
  mutable autostart : bool;
  mutable ifaces : int;
}

(* [gen] counts completed mutations.  It is bumped inside the locked
   section of every state-changing operation, so a reader that snapshots
   the generation before reading and sees the same value afterwards knows
   the data it read is current — the validity check behind the daemon's
   reply cache. *)
type t = {
  mutex : Mutex.t;
  nets : (string, net) Hashtbl.t;
  gen : int Atomic.t;
  scope : string option;  (** see [create] *)
}

let fresh_uuid b name =
  match b.scope with
  | Some scope -> Vmm.Uuid.derive (scope ^ "/network/" ^ name)
  | None -> Vmm.Uuid.generate ()

let with_lock b f =
  Mutex.lock b.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock b.mutex) f

let generation b = Atomic.get b.gen

(* Bump on success only: a rejected operation changed nothing, so cached
   views of the old state remain valid. *)
let bumping b result =
  (match result with Ok _ -> Atomic.incr b.gen | Error _ -> ());
  result

let valid_cidr s =
  match String.split_on_char '/' s with
  | [ addr; prefix ] ->
    (match int_of_string_opt prefix with
     | Some p when p >= 0 && p <= 32 ->
       let octets = String.split_on_char '.' addr in
       List.length octets = 4
       && List.for_all
            (fun o ->
              match int_of_string_opt o with
              | Some v -> v >= 0 && v <= 255
              | None -> false)
            octets
     | Some _ | None -> false)
  | _ -> false

let define_unlocked b ~name ~bridge ~ip_range =
  if name = "" then Verror.error Verror.Invalid_arg "network name must not be empty"
  else if Hashtbl.mem b.nets name then
    Verror.error Verror.Dup_name "network %S already defined" name
  else if not (valid_cidr ip_range) then
    Verror.error Verror.Invalid_arg "bad CIDR %S" ip_range
  else begin
    let net =
      {
        uuid = fresh_uuid b name;
        bridge;
        ip_range;
        active = false;
        autostart = false;
        ifaces = 0;
      }
    in
    Hashtbl.replace b.nets name net;
    Ok
      {
        net_name = name;
        net_uuid = net.uuid;
        bridge;
        ip_range;
        active = false;
        autostart = false;
        connected_ifaces = 0;
      }
  end

let create ?scope () =
  let b =
    { mutex = Mutex.create (); nets = Hashtbl.create 4; gen = Atomic.make 0; scope }
  in
  (match
     define_unlocked b ~name:"default" ~bridge:"virbr0" ~ip_range:"192.168.122.0/24"
   with
   | Ok _ -> ()
   | Error _ -> assert false);
  (Hashtbl.find b.nets "default").active <- true;
  (Hashtbl.find b.nets "default").autostart <- true;
  b

let define b ~name ~bridge ~ip_range =
  with_lock b (fun () -> bumping b (define_unlocked b ~name ~bridge ~ip_range))

let find b name =
  match Hashtbl.find_opt b.nets name with
  | Some net -> Ok net
  | None -> Verror.error Verror.No_network "no network named %S" name

let ( let* ) = Result.bind

let undefine b name =
  with_lock b (fun () ->
    bumping b @@
      let* net = find b name in
      if net.active then
        Verror.error Verror.Operation_invalid "network %S is active" name
      else begin
        Hashtbl.remove b.nets name;
        Ok ()
      end)

let start b name =
  with_lock b (fun () ->
    bumping b @@
      let* net = find b name in
      if net.active then
        Verror.error Verror.Operation_invalid "network %S is already active" name
      else begin
        net.active <- true;
        Ok ()
      end)

let stop b name =
  with_lock b (fun () ->
    bumping b @@
      let* net = find b name in
      if not net.active then
        Verror.error Verror.Operation_invalid "network %S is not active" name
      else if net.ifaces > 0 then
        Verror.error Verror.Operation_invalid
          "network %S has %d connected interfaces" name net.ifaces
      else begin
        net.active <- false;
        Ok ()
      end)

let set_autostart b name autostart =
  with_lock b (fun () ->
    bumping b @@
      let* net = find b name in
      net.autostart <- autostart;
      Ok ())

let info_of name net =
  {
    net_name = name;
    net_uuid = net.uuid;
    bridge = net.bridge;
    ip_range = net.ip_range;
    active = net.active;
    autostart = net.autostart;
    connected_ifaces = net.ifaces;
  }

let lookup b name = with_lock b (fun () -> Result.map (info_of name) (find b name))

let list b =
  with_lock b (fun () ->
      Hashtbl.fold (fun name net acc -> info_of name net :: acc) b.nets []
      |> List.sort (fun a b -> compare a.net_name b.net_name))

let connect_iface b name =
  with_lock b (fun () ->
    bumping b @@
      let* net = find b name in
      if not net.active then
        Verror.error Verror.Operation_invalid
          "network %S is not active; cannot connect interface" name
      else begin
        net.ifaces <- net.ifaces + 1;
        Ok ()
      end)

let disconnect_iface b name =
  with_lock b (fun () ->
      match Hashtbl.find_opt b.nets name with
      | Some net when net.ifaces > 0 ->
        net.ifaces <- net.ifaces - 1;
        Atomic.incr b.gen
      | Some _ | None -> ())
