type node_info = {
  model : string;
  memory_kib : int;
  cpus : int;
  mhz : int;
  nodes : int;
  sockets : int;
  cores : int;
  threads : int;
}

type t = {
  hostname : string;
  info : node_info;
  mutex : Mutex.t;
  mutable reserved_memory : int;
  mutable reserved_vcpus : int;
}

let create ?(hostname = "node01") ?(memory_kib = 16 * 1024 * 1024) ?(cpus = 8) () =
  if memory_kib <= 0 || cpus <= 0 then
    invalid_arg "Hostinfo.create: capacity must be positive";
  {
    hostname;
    info =
      {
        model = "x86_64";
        memory_kib;
        cpus;
        mhz = 2600;
        nodes = 1;
        sockets = 1;
        cores = cpus;
        threads = 1;
      };
    mutex = Mutex.create ();
    reserved_memory = 0;
    reserved_vcpus = 0;
  }

let with_lock host f =
  Mutex.lock host.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock host.mutex) f

(* Shared instances: one host per hostname, process-global.  Hardware
   does not reboot when the management daemon dies, so reservations made
   on a shared host survive a simulated manager crash — drivers that
   support restart recovery attach here instead of creating. *)
let shared_mutex = Mutex.create ()
let shared_hosts : (string, t) Hashtbl.t = Hashtbl.create 8

let shared hostname =
  Mutex.lock shared_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock shared_mutex)
    (fun () ->
      match Hashtbl.find_opt shared_hosts hostname with
      | Some host -> host
      | None ->
        let host = create ~hostname () in
        Hashtbl.add shared_hosts hostname host;
        host)

let hostname host = host.hostname
let node_info host = host.info

let free_memory_kib host =
  with_lock host (fun () -> host.info.memory_kib - host.reserved_memory)

let vcpu_oversubscription = 8

let reserve host ~memory_kib ~vcpus =
  with_lock host (fun () ->
      if host.reserved_memory + memory_kib > host.info.memory_kib then
        Error
          (Printf.sprintf
             "cannot allocate %d KiB: only %d KiB free on host %s" memory_kib
             (host.info.memory_kib - host.reserved_memory)
             host.hostname)
      else if host.reserved_vcpus + vcpus > vcpu_oversubscription * host.info.cpus
      then
        Error
          (Printf.sprintf "vCPU limit exceeded on host %s (%d reserved, %d max)"
             host.hostname host.reserved_vcpus
             (vcpu_oversubscription * host.info.cpus))
      else begin
        host.reserved_memory <- host.reserved_memory + memory_kib;
        host.reserved_vcpus <- host.reserved_vcpus + vcpus;
        Ok ()
      end)

let release host ~memory_kib ~vcpus =
  with_lock host (fun () ->
      if memory_kib > host.reserved_memory || vcpus > host.reserved_vcpus then
        invalid_arg "Hostinfo.release: releasing more than was reserved";
      host.reserved_memory <- host.reserved_memory - memory_kib;
      host.reserved_vcpus <- host.reserved_vcpus - vcpus)
