module Vm_config = Vmm.Vm_config
module Vm_state = Vmm.Vm_state
module Guest_image = Vmm.Guest_image
module Uuid = Vmm.Uuid

type domid = int

type dominfo = {
  domid : domid;
  dom_uuid : Uuid.t;
  dom_state : Vm_state.state;
  memory_kib : int;
  vcpus : int;
  cpu_time_ns : int64;
}

type domain = {
  id : domid;
  config : Vm_config.t;
  image : Guest_image.t option; (* Domain0 has no image *)
  mutable state : Vm_state.state;
  mutable cpu_time_ns : int64;
}

type t = {
  host : Hostinfo.t;
  xenstore : Xenstore.t;
  mutex : Mutex.t;
  domains : (domid, domain) Hashtbl.t;
  mutable next_domid : domid;
  mutable event_channels : int;
}

let dom0_memory_kib = 512 * 1024

let store hv = hv.xenstore
let host hv = hv.host

let with_lock hv f =
  Mutex.lock hv.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock hv.mutex) f

let dom_path id = Printf.sprintf "/local/domain/%d" id

let publish hv dom =
  let base = dom_path dom.id in
  Xenstore.write hv.xenstore (base ^ "/name") dom.config.Vm_config.name;
  Xenstore.write hv.xenstore (base ^ "/uuid") (Uuid.to_string dom.config.Vm_config.uuid);
  Xenstore.write hv.xenstore (base ^ "/memory/target")
    (string_of_int dom.config.Vm_config.memory_kib);
  Xenstore.write hv.xenstore (base ^ "/state") (Vm_state.state_name dom.state)

let boot hostinfo =
  let hv =
    {
      host = hostinfo;
      xenstore = Xenstore.create ();
      mutex = Mutex.create ();
      domains = Hashtbl.create 16;
      next_domid = 1;
      event_channels = 0;
    }
  in
  (match Hostinfo.reserve hostinfo ~memory_kib:dom0_memory_kib ~vcpus:1 with
   | Ok () -> ()
   | Error msg -> invalid_arg ("Xen_hv.boot: host too small for Domain0: " ^ msg));
  let dom0 =
    {
      id = 0;
      config =
        Vm_config.make ~memory_kib:dom0_memory_kib ~vcpus:1 ~os:Vm_config.Paravirt
          ~disks:[] ~nics:[] "Domain-0";
      image = None;
      state = Vm_state.Running;
      cpu_time_ns = 0L;
    }
  in
  Hashtbl.add hv.domains 0 dom0;
  publish hv dom0;
  hv

(* The hypervisor outlives the toolstack: one instance per hostname,
   process-global, so active domains survive a manager crash.  [attach]
   is what a restarted Xen driver calls instead of booting. *)
let attached_mutex = Mutex.create ()
let attached : (string, t) Hashtbl.t = Hashtbl.create 4

let attach hostname =
  Mutex.lock attached_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock attached_mutex)
    (fun () ->
      match Hashtbl.find_opt attached hostname with
      | Some hv -> hv
      | None ->
        let hv = boot (Hostinfo.shared hostname) in
        Hashtbl.add attached hostname hv;
        hv)

let find hv id =
  match Hashtbl.find_opt hv.domains id with
  | Some dom -> Ok dom
  | None -> Error (Printf.sprintf "no domain with id %d" id)

let ( let* ) = Result.bind

let tick dom =
  dom.cpu_time_ns <- Int64.add dom.cpu_time_ns 1_000_000L

let domctl_create hv config =
  with_lock hv (fun () ->
      let clash =
        Hashtbl.fold
          (fun _ d acc -> acc || d.config.Vm_config.name = config.Vm_config.name)
          hv.domains false
      in
      if clash then
        Error (Printf.sprintf "domain %S already exists" config.Vm_config.name)
      else
        let* () =
          Hostinfo.reserve hv.host ~memory_kib:config.Vm_config.memory_kib
            ~vcpus:config.Vm_config.vcpus
        in
        let id = hv.next_domid in
        hv.next_domid <- id + 1;
        let dom =
          {
            id;
            config;
            image = Some (Guest_image.create ~memory_kib:config.Vm_config.memory_kib);
            state = Vm_state.Paused;
            cpu_time_ns = 0L;
          }
        in
        Hashtbl.add hv.domains id dom;
        hv.event_channels <- hv.event_channels + 2 (* store + console *);
        publish hv dom;
        Ok id)

let apply_event hv id event =
  with_lock hv (fun () ->
      let* dom = find hv id in
      if id = 0 then Error "cannot modify Domain-0"
      else
        let* next = Vm_state.transition dom.state event in
        dom.state <- next;
        tick dom;
        Xenstore.write hv.xenstore (dom_path id ^ "/state") (Vm_state.state_name next);
        Ok dom)

(* Idempotent: a concurrent shutdown/destroy pair must release host
   resources exactly once. *)
let teardown hv dom =
  if Hashtbl.mem hv.domains dom.id then begin
    Hostinfo.release hv.host ~memory_kib:dom.config.Vm_config.memory_kib
      ~vcpus:dom.config.Vm_config.vcpus;
    Hashtbl.remove hv.domains dom.id;
    hv.event_channels <- max 0 (hv.event_channels - 2);
    Xenstore.rm hv.xenstore (dom_path dom.id)
  end

(* The hypervisor drops a domain entirely when it stops being active:
   creating paused then unpausing is the only way in. *)
let domctl_unpause hv id =
  let* _dom = apply_event hv id Vm_state.Ev_resume in
  Ok ()

let domctl_pause hv id =
  let* _dom = apply_event hv id Vm_state.Ev_suspend in
  Ok ()

let domctl_shutdown hv id =
  let* _dom = apply_event hv id Vm_state.Ev_shutdown_request in
  (* The simulated guest acknowledges immediately. *)
  let* dom = apply_event hv id Vm_state.Ev_shutdown_complete in
  with_lock hv (fun () ->
      teardown hv dom;
      Ok ())

let domctl_destroy hv id =
  let* dom = apply_event hv id Vm_state.Ev_destroy in
  with_lock hv (fun () ->
      teardown hv dom;
      Ok ())

let domain_info hv id =
  with_lock hv (fun () ->
      let* dom = find hv id in
      Ok
        {
          domid = dom.id;
          dom_uuid = dom.config.Vm_config.uuid;
          dom_state = dom.state;
          memory_kib = dom.config.Vm_config.memory_kib;
          vcpus = dom.config.Vm_config.vcpus;
          cpu_time_ns = dom.cpu_time_ns;
        })

let list_domains hv =
  with_lock hv (fun () ->
      Hashtbl.fold (fun id _ acc -> id :: acc) hv.domains [] |> List.sort compare)

let lookup_by_name hv name =
  with_lock hv (fun () ->
      Hashtbl.fold
        (fun id dom acc ->
          if dom.config.Vm_config.name = name then Some id else acc)
        hv.domains None)

let lookup_by_uuid hv uuid =
  with_lock hv (fun () ->
      Hashtbl.fold
        (fun id dom acc ->
          if Uuid.equal dom.config.Vm_config.uuid uuid then Some id else acc)
        hv.domains None)

let guest_image hv id =
  with_lock hv (fun () ->
      let* dom = find hv id in
      match dom.image with
      | Some img -> Ok img
      | None -> Error "Domain-0 has no transferable image")
