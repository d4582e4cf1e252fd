module Vm_config = Vmm.Vm_config

type container_state = Stopped | Running | Frozen

type container_info = {
  name : string;
  info_state : container_state;
  init_pid : int option;
  memory_limit_kib : int;
  namespaces : string list;
}

type container = {
  config : Vm_config.t;
  mutable c_state : container_state;
  mutable c_init_pid : int option;
  mutable c_namespaces : string list;
}

type t = {
  hostinfo : Hostinfo.t;
  mutex : Mutex.t;
  (* cgroup path -> (param -> value) *)
  cgroups : (string, (string, string) Hashtbl.t) Hashtbl.t;
  containers : (string, container) Hashtbl.t;
  mutable next_pid : int;
}

let create hostinfo =
  {
    hostinfo;
    mutex = Mutex.create ();
    cgroups = Hashtbl.create 16;
    containers = Hashtbl.create 16;
    next_pid = 2000;
  }

let host lxc = lxc.hostinfo

(* Kernel state outlives the manager: one container host per hostname,
   process-global, so running containers survive a manager crash. *)
let attached_mutex = Mutex.create ()
let attached : (string, t) Hashtbl.t = Hashtbl.create 4

let attach hostname =
  Mutex.lock attached_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock attached_mutex)
    (fun () ->
      match Hashtbl.find_opt attached hostname with
      | Some lxc -> lxc
      | None ->
        let lxc = create (Hostinfo.shared hostname) in
        Hashtbl.add attached hostname lxc;
        lxc)

let with_lock lxc f =
  Mutex.lock lxc.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock lxc.mutex) f

(* ------------------------------------------------------------------ *)
(* Cgroup tree                                                         *)
(* ------------------------------------------------------------------ *)

let check_path path =
  if String.length path = 0 || path.[0] <> '/' then
    invalid_arg (Printf.sprintf "Lxc_host: cgroup path %S must be absolute" path)

let cgroup_table lxc path =
  match Hashtbl.find_opt lxc.cgroups path with
  | Some tbl -> tbl
  | None ->
    let tbl = Hashtbl.create 4 in
    Hashtbl.add lxc.cgroups path tbl;
    tbl

let cgroup_get lxc path param =
  check_path path;
  with_lock lxc (fun () ->
      Option.bind (Hashtbl.find_opt lxc.cgroups path) (fun tbl ->
          Hashtbl.find_opt tbl param))

let cgroup_exists lxc path =
  check_path path;
  with_lock lxc (fun () -> Hashtbl.mem lxc.cgroups path)

(* ------------------------------------------------------------------ *)
(* Containers                                                          *)
(* ------------------------------------------------------------------ *)

let machine_cgroup name = "/machine/" ^ name

let find lxc name =
  match Hashtbl.find_opt lxc.containers name with
  | Some c -> Ok c
  | None -> Error (Printf.sprintf "no container named %S" name)

let ( let* ) = Result.bind

let define lxc config =
  with_lock lxc (fun () ->
      if config.Vm_config.os <> Vm_config.Container_exe then
        Error "container definitions must use <os><type>exe</type></os>"
      else if Hashtbl.mem lxc.containers config.Vm_config.name then
        Error (Printf.sprintf "container %S already defined" config.Vm_config.name)
      else begin
        let name = config.Vm_config.name in
        Hashtbl.replace lxc.containers name
          { config; c_state = Stopped; c_init_pid = None; c_namespaces = [] };
        let tbl = cgroup_table lxc (machine_cgroup name) in
        Hashtbl.replace tbl "memory.limit_in_bytes"
          (string_of_int (config.Vm_config.memory_kib * 1024));
        Hashtbl.replace tbl "cpu.shares" "1024";
        Hashtbl.replace tbl "freezer.state" "THAWED";
        Ok ()
      end)

let undefine lxc name =
  with_lock lxc (fun () ->
      let* c = find lxc name in
      if c.c_state <> Stopped then
        Error (Printf.sprintf "container %S is active" name)
      else begin
        Hashtbl.remove lxc.containers name;
        Hashtbl.remove lxc.cgroups (machine_cgroup name);
        Ok ()
      end)

let start lxc name =
  with_lock lxc (fun () ->
      let* c = find lxc name in
      match c.c_state with
      | Running | Frozen -> Error (Printf.sprintf "container %S is already active" name)
      | Stopped ->
        let* () =
          Hostinfo.reserve lxc.hostinfo ~memory_kib:c.config.Vm_config.memory_kib
            ~vcpus:c.config.Vm_config.vcpus
        in
        c.c_state <- Running;
        c.c_init_pid <- Some lxc.next_pid;
        lxc.next_pid <- lxc.next_pid + 1;
        c.c_namespaces <- [ "pid"; "net"; "ipc"; "uts"; "mnt" ];
        Hashtbl.replace (cgroup_table lxc (machine_cgroup name)) "freezer.state" "THAWED";
        Ok ())

let stop lxc name =
  with_lock lxc (fun () ->
      let* c = find lxc name in
      match c.c_state with
      | Stopped -> Error (Printf.sprintf "container %S is not running" name)
      | Running | Frozen ->
        Hostinfo.release lxc.hostinfo ~memory_kib:c.config.Vm_config.memory_kib
          ~vcpus:c.config.Vm_config.vcpus;
        c.c_state <- Stopped;
        c.c_init_pid <- None;
        c.c_namespaces <- [];
        Ok ())

let freeze lxc name =
  with_lock lxc (fun () ->
      let* c = find lxc name in
      match c.c_state with
      | Running ->
        c.c_state <- Frozen;
        Hashtbl.replace (cgroup_table lxc (machine_cgroup name)) "freezer.state" "FROZEN";
        Ok ()
      | Frozen -> Error (Printf.sprintf "container %S is already frozen" name)
      | Stopped -> Error (Printf.sprintf "container %S is not running" name))

let thaw lxc name =
  with_lock lxc (fun () ->
      let* c = find lxc name in
      match c.c_state with
      | Frozen ->
        c.c_state <- Running;
        Hashtbl.replace (cgroup_table lxc (machine_cgroup name)) "freezer.state" "THAWED";
        Ok ()
      | Running | Stopped -> Error (Printf.sprintf "container %S is not frozen" name))

let info lxc name =
  with_lock lxc (fun () ->
      let* c = find lxc name in
      let memory_limit_kib =
        match
          Option.bind
            (Hashtbl.find_opt lxc.cgroups (machine_cgroup name))
            (fun tbl -> Hashtbl.find_opt tbl "memory.limit_in_bytes")
        with
        | Some bytes ->
          (match int_of_string_opt bytes with
           | Some b -> b / 1024
           | None -> c.config.Vm_config.memory_kib)
        | None -> c.config.Vm_config.memory_kib
      in
      Ok
        {
          name;
          info_state = c.c_state;
          init_pid = c.c_init_pid;
          memory_limit_kib;
          namespaces = c.c_namespaces;
        })

let list lxc =
  with_lock lxc (fun () ->
      Hashtbl.fold (fun name _ acc -> name :: acc) lxc.containers []
      |> List.sort compare)

let set_memory_limit lxc name kib =
  with_lock lxc (fun () ->
      let* _c = find lxc name in
      if kib <= 0 then Error "memory limit must be positive"
      else begin
        Hashtbl.replace (cgroup_table lxc (machine_cgroup name))
          "memory.limit_in_bytes"
          (string_of_int (kib * 1024));
        Ok ()
      end)
