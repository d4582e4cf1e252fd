module Vm_config = Vmm.Vm_config
module Vm_state = Vmm.Vm_state
module Guest_image = Vmm.Guest_image
module Uuid = Vmm.Uuid
open Ovirt_core

type active = {
  image : Guest_image.t;
  agent : Hvsim.Guest_agent.endpoint;
  mutable cpu_time_ns : int64;
}

(* Substrate state: everything beyond what every driver node carries. *)
type payload = {
  (* Simulated hypervisor response latency: a real backend blocks the
     calling worker while the hypervisor answers; benchmarks set this via
     the ?latency_us= URI parameter to study workerpool sizing and the
     driver lock (E5/E6/E14).  Incurred *inside* the lock section, like a
     held monitor connection. *)
  mutable op_latency_s : float;
  host : Hvsim.Hostinfo.t;
  (* name -> (state, active resources); Shutoff domains are not here *)
  actives : (string, Vm_state.state ref * active) Hashtbl.t;
}

type node = payload Drvnode.node

let ( let* ) = Result.bind

(* Hypervisor-side state that survives a manager crash: the machine and
   its running guests belong to the (mock) hypervisor, not to the
   manager.  One substrate per node name, process-global; payloads alias
   it, so a node rebuilt after `reset_nodes` finds its guests intact. *)
type substrate = {
  sub_host : Hvsim.Hostinfo.t;
  sub_actives : (string, Vm_state.state ref * active) Hashtbl.t;
}

let substrates : (string, substrate) Hashtbl.t = Hashtbl.create 4
let substrates_mutex = Mutex.create ()

let substrate node_name =
  Mutex.lock substrates_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock substrates_mutex)
    (fun () ->
      match Hashtbl.find_opt substrates node_name with
      | Some s -> s
      | None ->
        let s =
          {
            sub_host = Hvsim.Hostinfo.shared node_name;
            sub_actives = Hashtbl.create 16;
          }
        in
        Hashtbl.add substrates node_name s;
        s)

(* Managed-save images live on the durable medium, like the state files
   libvirt keeps under /var/lib/libvirt/qemu/save. *)
let save_path (node : node) name =
  "/var/lib/ovirt/test/save/" ^ node.node_name ^ "/" ^ name ^ ".save"

(* A guest-shutdown agent command re-enters the driver's shutdown path;
   the hook is bound after [dom_shutdown] is defined.  It routes by node
   *name* so an agent created before a manager crash reaches the current
   node, not the pre-crash one it was created under. *)
let shutdown_hook : (string -> string -> unit) ref = ref (fun _ _ -> ())

(* Allocate the running-domain resources: memory image plus the guest's
   agent channel. *)
let add_active (node : node) name state (cfg : Vm_config.t) =
  let node_name = node.node_name in
  let image = Guest_image.create ~memory_kib:cfg.Vm_config.memory_kib in
  let active =
    {
      image;
      agent =
        Hvsim.Guest_agent.create ~image
          ~state:(fun () -> !state)
          ~request_shutdown:(fun () -> !shutdown_hook node_name name);
      cpu_time_ns = 0L;
    }
  in
  Hashtbl.replace node.payload.actives name (state, active)

(* The conventional pre-existing running domain of test:///default.
   Idempotent: after a crash the journal replays ["test"] and the
   substrate still runs it, so there is nothing to do. *)
let seed_default_domain (node : node) =
  if
    (not (Domstore.mem node.store "test"))
    && not (Hashtbl.mem node.payload.actives "test")
  then begin
    (* Named after the node, like its networks and pools (see [nodes]):
       a node answers alike in every run. *)
    let cfg =
      Vm_config.make
        ~uuid:(Uuid.derive ("test://" ^ node.node_name ^ "/domain/test"))
        ~memory_kib:(8 * 1024) "test"
    in
    (match Domstore.define node.store cfg with Ok () -> () | Error _ -> assert false);
    (match
       Hvsim.Hostinfo.reserve node.payload.host
         ~memory_kib:cfg.Vm_config.memory_kib ~vcpus:1
     with
     | Ok () -> ()
     | Error _ -> assert false);
    add_active node "test" (ref Vm_state.Running) cfg;
    Domstore.note_started node.store "test"
  end

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)
(* ------------------------------------------------------------------ *)

(* Simulated hypervisor time is a wait: a call that may not wait gives
   up before it, and runs again where it may. *)
let hypervisor_wait (node : node) =
  if node.payload.op_latency_s > 0.0 then begin
    if Reqctx.current () = Reqctx.No_wait then raise Reqctx.Would_wait;
    Thread.delay node.payload.op_latency_s
  end

let capabilities (node : node) =
  Drvnode.with_read node (fun () ->
      let info = Hvsim.Hostinfo.node_info node.payload.host in
      Capabilities.
        {
          driver_name = "test";
          virt_kind = "mock";
          stateful = true;
          guest_os_kinds =
            [ Vm_config.Hvm; Vm_config.Paravirt; Vm_config.Container_exe ];
          features =
            [
              Feat_define; Feat_start; Feat_suspend; Feat_resume; Feat_shutdown;
              Feat_destroy; Feat_migrate_live; Feat_managed_save; Feat_set_memory;
              Feat_console; Feat_networks; Feat_storage_pools;
            ];
          host =
            {
              host_name = node.node_name;
              host_memory_kib = info.Hvsim.Hostinfo.memory_kib;
              host_cpus = info.Hvsim.Hostinfo.cpus;
              host_mhz = info.Hvsim.Hostinfo.mhz;
              host_arch = info.Hvsim.Hostinfo.model;
            };
        })

let require_config (node : node) name = Drvnode.require_config node name

let domain_ref_of (node : node) name =
  Drvnode.domain_ref_of node name ~dom_id:(fun name ->
      if Hashtbl.mem node.payload.actives name then
        Some (Hashtbl.hash name land 0xffff)
      else None)

let define_xml (node : node) xml =
  let* cfg, _virt_type =
    Result.map_error (Verror.make Verror.Invalid_arg) (Vmm.Domxml.of_xml xml)
  in
  Drvnode.with_write node (fun () ->
      let* () = Domstore.define node.store cfg in
      Drvnode.emit node cfg.Vm_config.name Events.Ev_defined;
      domain_ref_of node cfg.Vm_config.name)

let undefine (node : node) name =
  Drvnode.with_write node (fun () ->
      if Hashtbl.mem node.payload.actives name then
        Verror.error Verror.Operation_invalid "cannot undefine active domain %S" name
      else
        let* () = Domstore.undefine node.store name in
        Persist.Media.remove (save_path node name);
        Drvnode.emit node name Events.Ev_undefined;
        Ok ())

let dom_create (node : node) name =
  Drvnode.with_write node (fun () ->
      let* cfg = require_config node name in
      if Hashtbl.mem node.payload.actives name then
        Verror.error Verror.Operation_invalid "domain %S is already running" name
      else
        let* () =
          Result.map_error
            (Verror.make Verror.Resource_exhausted)
            (Hvsim.Hostinfo.reserve node.payload.host
               ~memory_kib:cfg.Vm_config.memory_kib ~vcpus:cfg.Vm_config.vcpus)
        in
        add_active node name (ref Vm_state.Running) cfg;
        Drvnode.emit node name Events.Ev_started;
        Ok ())

let require_active (node : node) name =
  match Hashtbl.find_opt node.payload.actives name with
  | Some entry -> Ok entry
  | None ->
    if Domstore.mem node.store name then
      Verror.error Verror.Operation_invalid "domain %S is not running" name
    else Verror.error Verror.No_domain "no domain named %S" name

let stop_active (node : node) name =
  let* cfg = require_config node name in
  Hashtbl.remove node.payload.actives name;
  Hvsim.Hostinfo.release node.payload.host ~memory_kib:cfg.Vm_config.memory_kib
    ~vcpus:cfg.Vm_config.vcpus;
  Ok ()

let transition_active (node : node) name event success_event =
  Drvnode.with_write node (fun () ->
      (* Lifecycle transitions block on the "hypervisor" like the reads
         do — and being normal-priority on the wire, they are the ops
         that exercise the daemon's admission control under load. *)
      hypervisor_wait node;
      let* state, active = require_active node name in
      let* next =
        Result.map_error (Verror.make Verror.Operation_invalid)
          (Vm_state.transition !state event)
      in
      state := next;
      active.cpu_time_ns <- Int64.add active.cpu_time_ns 500_000L;
      let* () =
        if Vm_state.is_active next then Ok () else stop_active node name
      in
      Drvnode.emit node name success_event;
      Ok ())

let dom_suspend node name =
  transition_active node name Vm_state.Ev_suspend Events.Ev_suspended

let dom_resume node name = transition_active node name Vm_state.Ev_resume Events.Ev_resumed

let dom_shutdown (node : node) name =
  Drvnode.with_write node (fun () ->
      let* state, _ = require_active node name in
      let* s1 =
        Result.map_error (Verror.make Verror.Operation_invalid)
          (Vm_state.transition !state Vm_state.Ev_shutdown_request)
      in
      let* s2 =
        Result.map_error (Verror.make Verror.Operation_invalid)
          (Vm_state.transition s1 Vm_state.Ev_shutdown_complete)
      in
      state := s2;
      let* () = stop_active node name in
      Drvnode.emit node name Events.Ev_shutdown;
      Ok ())

let dom_destroy node name =
  transition_active node name Vm_state.Ev_destroy Events.Ev_stopped

(* Restart recovery: reconcile the replayed store against the guests
   still running on the substrate.  The payload aliases the surviving
   tables, so adoption needs no manager-side rebuilding. *)
let recover (node : node) attach_info =
  ignore
    (Drvnode.reconcile node ~attach_info
       ~running:(fun () ->
         Hashtbl.fold (fun name _ acc -> name :: acc) node.payload.actives []
         |> List.sort compare)
       ~adopt:(fun _name _cfg -> ())
       ~start:(dom_create node))

let nodes : payload Drvnode.registry =
  Drvnode.registry ~init:seed_default_domain ~journal_dir:"/var/lib/ovirt/test"
    ~uuid_scope:"test"
    ~recover (fun ~node_name ->
      let sub = substrate node_name in
      { op_latency_s = 0.0; host = sub.sub_host; actives = sub.sub_actives })

let get_node name = Drvnode.get_node nodes name
let reset_nodes () = Drvnode.reset_nodes nodes

let () =
  shutdown_hook :=
    fun node_name name -> ignore (dom_shutdown (get_node node_name) name)

(* Managed save: checkpoint the live memory, stop the domain, keep the
   bytes driver-side; restore is the exact inverse. *)
let dom_save (node : node) name =
  Drvnode.with_write node (fun () ->
      let* state, active = require_active node name in
      match !state with
      | Vm_state.Running | Vm_state.Paused ->
        Persist.Media.write (save_path node name) (Guest_image.snapshot active.image);
        let* () = stop_active node name in
        Drvnode.emit node name Events.Ev_stopped;
        Ok ()
      | other ->
        Verror.error Verror.Operation_invalid "cannot save domain in state %s"
          (Vm_state.state_name other))

let dom_restore (node : node) name =
  Drvnode.with_write node (fun () ->
      let* cfg = require_config node name in
      if Hashtbl.mem node.payload.actives name then
        Verror.error Verror.Operation_invalid "domain %S is already running" name
      else
        match Persist.Media.read (save_path node name) with
        | None ->
          Verror.error Verror.Operation_invalid "domain %S has no managed-save image"
            name
        | Some bytes ->
          let* () =
            Result.map_error
              (Verror.make Verror.Resource_exhausted)
              (Hvsim.Hostinfo.reserve node.payload.host
                 ~memory_kib:cfg.Vm_config.memory_kib ~vcpus:cfg.Vm_config.vcpus)
          in
          add_active node name (ref Vm_state.Running) cfg;
          (match Hashtbl.find_opt node.payload.actives name with
           | Some (_, active) -> Guest_image.restore_from active.image bytes
           | None -> assert false);
          Persist.Media.remove (save_path node name);
          Drvnode.emit node name Events.Ev_started;
          Ok ())

let dom_has_managed_save (node : node) name =
  Drvnode.with_read node (fun () ->
      let* _cfg = require_config node name in
      Ok (Persist.Media.exists (save_path node name)))

(* Guest agent (intrusive baseline): endpoint fetched under the lock,
   executed outside it so guest-shutdown can re-enter the driver. *)
let agent_endpoint (node : node) name =
  Drvnode.with_read node (fun () ->
      let* _state, active = require_active node name in
      Ok active.agent)

let guest_agent_install node name =
  let* ep = agent_endpoint node name in
  Result.map_error (Verror.make Verror.Operation_invalid)
    (Hvsim.Guest_agent.install ep)

let guest_agent_exec node name line =
  let* ep = agent_endpoint node name in
  Ok (Hvsim.Guest_agent.exec ep line)

(* Runs with the node read lock already held (callers: dom_get_info,
   dom_list_all) — must not re-enter a lock section. *)
let info_locked (node : node) name (cfg : Vm_config.t) =
  match Hashtbl.find_opt node.payload.actives name with
  | Some (state, active) ->
    Ok
      Driver.
        {
          di_state = !state;
          di_max_mem_kib = cfg.Vm_config.memory_kib;
          di_memory_kib = cfg.Vm_config.memory_kib;
          di_vcpus = cfg.Vm_config.vcpus;
          di_cpu_time_ns = active.cpu_time_ns;
        }
  | None ->
    Ok
      Driver.
        {
          di_state = Vm_state.Shutoff;
          di_max_mem_kib = cfg.Vm_config.memory_kib;
          di_memory_kib = cfg.Vm_config.memory_kib;
          di_vcpus = cfg.Vm_config.vcpus;
          di_cpu_time_ns = 0L;
        }

let dom_get_info (node : node) name =
  Drvnode.with_read node (fun () ->
      hypervisor_wait node;
      let* cfg = require_config node name in
      info_locked node name cfg)

(* One lock section, one simulated hypervisor wait for the whole fleet:
   the native bulk listing the remote protocol's Proc_dom_list_all rides
   on (per-op inventory pays one wait per domain instead). *)
let dom_list_all (node : node) =
  Drvnode.list_all node
    ~prepare:(fun () -> hypervisor_wait node)
    ~dom_id:(fun name ->
      if Hashtbl.mem node.payload.actives name then
        Some (Hashtbl.hash name land 0xffff)
      else None)
    ~info:(info_locked node) ()

let dom_get_xml (node : node) name =
  Drvnode.with_read node (fun () ->
      hypervisor_wait node;
      let* cfg = require_config node name in
      Ok (Vmm.Domxml.to_xml ~virt_type:"test" cfg))

let dom_set_memory (node : node) name kib =
  Drvnode.with_write node (fun () ->
      let* cfg = require_config node name in
      if kib <= 0 then Verror.error Verror.Invalid_arg "memory must be positive"
      else if kib > cfg.Vm_config.memory_kib then
        Verror.error Verror.Invalid_arg
          "balloon target %d exceeds maximum memory %d" kib cfg.Vm_config.memory_kib
      else Ok ())

let list_domains (node : node) =
  Drvnode.with_read node (fun () ->
      Hashtbl.fold
        (fun name _ acc ->
          match domain_ref_of node name with Ok r -> r :: acc | Error _ -> acc)
        node.payload.actives []
      |> List.sort (fun a b -> compare a.Driver.dom_name b.Driver.dom_name)
      |> Result.ok)

let list_defined (node : node) =
  Drvnode.list_defined node ~active:(Hashtbl.mem node.payload.actives)

let lookup_by_name (node : node) name =
  Drvnode.lookup_by_name node (domain_ref_of node) name

let lookup_by_uuid (node : node) uuid =
  Drvnode.lookup_by_uuid node (domain_ref_of node) uuid

(* Migration hooks: the generic precopy loop in [Domain.migrate] drives
   these.  The source keeps running until stop-copy. *)
let migrate_begin (node : node) name =
  Drvnode.with_write node (fun () ->
      let* state, active = require_active node name in
      if !state <> Vm_state.Running then
        Verror.error Verror.Operation_invalid "domain %S is not running" name
      else
        let* cfg = require_config node name in
        Ok
          Driver.
            {
              mig_config_xml = Vmm.Domxml.to_xml ~virt_type:"test" cfg;
              mig_image = active.image;
              mig_enter_stopcopy = (fun () -> dom_suspend node name);
              mig_confirm =
                (fun () ->
                  Drvnode.with_write node (fun () ->
                      let* () = stop_active node name in
                      Drvnode.emit node name Events.Ev_stopped;
                      Ok ()));
              mig_abort = (fun () -> ignore (dom_resume node name));
            })

let migrate_prepare (node : node) config_xml =
  let* cfg, _ =
    Result.map_error (Verror.make Verror.Invalid_arg) (Vmm.Domxml.of_xml config_xml)
  in
  let name = cfg.Vm_config.name in
  (* Start paused: create resources but hold in Paused until finish. *)
  Drvnode.with_write node (fun () ->
      let* () = Domstore.define node.store cfg in
      if Hashtbl.mem node.payload.actives name then
        Verror.error Verror.Operation_invalid
          "domain %S is already active on destination" name
      else
        let* () =
          Result.map_error
            (Verror.make Verror.Resource_exhausted)
            (Hvsim.Hostinfo.reserve node.payload.host
               ~memory_kib:cfg.Vm_config.memory_kib ~vcpus:cfg.Vm_config.vcpus)
        in
        let state = ref Vm_state.Paused in
        add_active node name state cfg;
        let image =
          match Hashtbl.find_opt node.payload.actives name with
          | Some (_, active) -> active.image
          | None -> assert false
        in
        Ok
          Driver.
            {
              mig_dest_image = image;
              mig_finish =
                (fun () ->
                  let* () = dom_resume node name in
                  Drvnode.emit node name Events.Ev_started;
                  Ok ());
              mig_cancel = (fun () -> ignore (dom_destroy node name));
            })

(* ------------------------------------------------------------------ *)
(* Registration                                                        *)
(* ------------------------------------------------------------------ *)

let open_node (node : node) =
  Driver.make_ops ~drv_name:"test"
    ~get_capabilities:(fun () -> capabilities node)
    ~get_hostname:(fun () -> node.node_name)
    ~list_domains:(fun () -> list_domains node)
    ~list_defined:(fun () -> list_defined node)
    ~lookup_by_name:(lookup_by_name node) ~lookup_by_uuid:(lookup_by_uuid node)
    ~define_xml:(define_xml node) ~undefine:(undefine node)
    ~dom_create:(dom_create node) ~dom_suspend:(dom_suspend node)
    ~dom_resume:(dom_resume node) ~dom_shutdown:(dom_shutdown node)
    ~dom_destroy:(dom_destroy node) ~dom_get_info:(dom_get_info node)
    ~dom_get_xml:(dom_get_xml node) ~dom_set_memory:(dom_set_memory node)
    ~dom_save:(dom_save node) ~dom_restore:(dom_restore node)
    ~dom_has_managed_save:(dom_has_managed_save node)
    ~dom_set_autostart:(Drvnode.set_autostart node)
    ~dom_get_autostart:(Drvnode.get_autostart node)
    ~dom_list_all:(fun () -> dom_list_all node)
    ~migrate_begin:(migrate_begin node) ~migrate_prepare:(migrate_prepare node)
    ~guest_agent_install:(guest_agent_install node)
    ~guest_agent_exec:(guest_agent_exec node)
    ~net:(Driver.net_ops_of_backend node.net)
    ~storage:(Driver.storage_ops_of_backend node.storage)
    ~events:node.events
    ~generation:(fun () -> Drvnode.generation node)
    ()

let node_of_uri uri =
  match uri.Vuri.host with
  | Some host -> host
  | None -> (
    match uri.Vuri.path with
    | "/" | "/default" | "" -> "default"
    | path -> String.sub path 1 (String.length path - 1))

let register () =
  Drvnode.register ~name:"test"
    ~open_conn:(fun uri ->
      let node = get_node (node_of_uri uri) in
      (match Vuri.param uri "latency_us" with
       | Some us ->
         (match int_of_string_opt us with
          | Some us when us >= 0 ->
            node.payload.op_latency_s <- float_of_int us /. 1_000_000.0
          | Some _ | None -> ())
       | None -> ());
      Ok (open_node node))
    ()
