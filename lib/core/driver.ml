type domain_ref = {
  dom_name : string;
  dom_uuid : Vmm.Uuid.t;
  dom_id : int option;
}

type domain_info = {
  di_state : Vmm.Vm_state.state;
  di_max_mem_kib : int;
  di_memory_kib : int;
  di_vcpus : int;
  di_cpu_time_ns : int64;
}

(* One row of a bulk listing: everything a fleet-inventory pass needs,
   so remote clients can fetch the whole host in one round trip. *)
type domain_record = {
  rec_ref : domain_ref;
  rec_info : domain_info;
  rec_autostart : bool option;
}

type migrate_source = {
  mig_config_xml : string;
  mig_image : Vmm.Guest_image.t;
  mig_enter_stopcopy : unit -> (unit, Verror.t) result;
  mig_confirm : unit -> (unit, Verror.t) result;
  mig_abort : unit -> unit;
}

type migrate_dest = {
  mig_dest_image : Vmm.Guest_image.t;
  mig_finish : unit -> (unit, Verror.t) result;
  mig_cancel : unit -> unit;
}

type net_ops = {
  net_define :
    name:string -> bridge:string -> ip_range:string ->
    (Net_backend.info, Verror.t) result;
  net_undefine : string -> (unit, Verror.t) result;
  net_start : string -> (unit, Verror.t) result;
  net_stop : string -> (unit, Verror.t) result;
  net_set_autostart : string -> bool -> (unit, Verror.t) result;
  net_lookup : string -> (Net_backend.info, Verror.t) result;
  net_list : unit -> (Net_backend.info list, Verror.t) result;
}

type storage_ops = {
  pool_define :
    name:string -> target_path:string -> capacity_b:int ->
    (Storage_backend.pool_info, Verror.t) result;
  pool_undefine : string -> (unit, Verror.t) result;
  pool_start : string -> (unit, Verror.t) result;
  pool_stop : string -> (unit, Verror.t) result;
  pool_lookup : string -> (Storage_backend.pool_info, Verror.t) result;
  pool_list : unit -> (Storage_backend.pool_info list, Verror.t) result;
  vol_create :
    pool:string -> name:string -> capacity_b:int -> format:string ->
    (Storage_backend.vol_info, Verror.t) result;
  vol_delete : pool:string -> name:string -> (unit, Verror.t) result;
  vol_list : pool:string -> (Storage_backend.vol_info list, Verror.t) result;
  vol_by_path : string -> (Storage_backend.vol_info, Verror.t) result;
}

let net_ops_of_backend b =
  {
    net_define = (fun ~name ~bridge ~ip_range -> Net_backend.define b ~name ~bridge ~ip_range);
    net_undefine = Net_backend.undefine b;
    net_start = Net_backend.start b;
    net_stop = Net_backend.stop b;
    net_set_autostart = Net_backend.set_autostart b;
    net_lookup = Net_backend.lookup b;
    net_list = (fun () -> Ok (Net_backend.list b));
  }

let storage_ops_of_backend b =
  {
    pool_define =
      (fun ~name ~target_path ~capacity_b ->
        Storage_backend.define_pool b ~name ~target_path ~capacity_b);
    pool_undefine = Storage_backend.undefine_pool b;
    pool_start = Storage_backend.start_pool b;
    pool_stop = Storage_backend.stop_pool b;
    pool_lookup = Storage_backend.lookup_pool b;
    pool_list = (fun () -> Ok (Storage_backend.list_pools b));
    vol_create =
      (fun ~pool ~name ~capacity_b ~format ->
        Storage_backend.create_volume b ~pool ~name ~capacity_b ~format);
    vol_delete = (fun ~pool ~name -> Storage_backend.delete_volume b ~pool ~name);
    vol_list = (fun ~pool -> Storage_backend.list_volumes b ~pool);
    vol_by_path = Storage_backend.volume_by_path b;
  }

(* Federation (protocol v1.7): a fleet controller aggregates many member
   daemons behind one connection.  Listings are scatter-gathered with
   per-shard error isolation, so a reply is annotated with which members
   could not contribute rather than failing outright. *)

type shard_error = {
  se_member : string;
  se_error : Verror.t;
}

type fleet_listing = {
  fl_records : domain_record list;
  fl_shard_errors : shard_error list;
  fl_members : int;
}

type member_health = Mh_up | Mh_degraded | Mh_down

let member_health_name = function
  | Mh_up -> "up"
  | Mh_degraded -> "degraded"
  | Mh_down -> "down"

type member_status = {
  ms_name : string;
  ms_health : member_health;
  ms_consec_failures : int;
  ms_probes : int;
  ms_failures : int;
  ms_domains : int;
}

type fleet_status = {
  fs_fleet : string;
  fs_members : member_status list;
  fs_migrations_active : int;
  fs_migrations_recovered : int;
  fs_migrations_rolled_back : int;
}

type fleet_view = {
  fleet_list_all : unit -> (fleet_listing, Verror.t) result;
  fleet_status : unit -> (fleet_status, Verror.t) result;
  fleet_migrate : domain:string -> dest:string -> (unit, Verror.t) result;
  fleet_owner : string -> (string, Verror.t) result;
}

type ops = {
  drv_name : string;
  close : unit -> unit;
  get_capabilities : unit -> Capabilities.t;
  get_hostname : unit -> string;
  list_domains : unit -> (domain_ref list, Verror.t) result;
  list_defined : unit -> (string list, Verror.t) result;
  lookup_by_name : string -> (domain_ref, Verror.t) result;
  lookup_by_uuid : Vmm.Uuid.t -> (domain_ref, Verror.t) result;
  define_xml : string -> (domain_ref, Verror.t) result;
  undefine : string -> (unit, Verror.t) result;
  dom_create : string -> (unit, Verror.t) result;
  dom_suspend : string -> (unit, Verror.t) result;
  dom_resume : string -> (unit, Verror.t) result;
  dom_shutdown : string -> (unit, Verror.t) result;
  dom_destroy : string -> (unit, Verror.t) result;
  dom_get_info : string -> (domain_info, Verror.t) result;
  dom_get_xml : string -> (string, Verror.t) result;
  dom_set_memory : string -> int -> (unit, Verror.t) result;
  dom_save : (string -> (unit, Verror.t) result) option;
  dom_restore : (string -> (unit, Verror.t) result) option;
  dom_has_managed_save : (string -> (bool, Verror.t) result) option;
  dom_set_autostart : (string -> bool -> (unit, Verror.t) result) option;
  dom_get_autostart : (string -> (bool, Verror.t) result) option;
  dom_set_policy : (string -> Dompolicy.t -> (unit, Verror.t) result) option;
  dom_get_policy : (string -> (Dompolicy.t, Verror.t) result) option;
  dom_list_all : (unit -> (domain_record list, Verror.t) result) option;
  migrate_begin : (string -> (migrate_source, Verror.t) result) option;
  migrate_prepare : (string -> (migrate_dest, Verror.t) result) option;
  guest_agent_install : (string -> (unit, Verror.t) result) option;
  guest_agent_exec : (string -> string -> (string, Verror.t) result) option;
  net : net_ops option;
  storage : storage_ops option;
  fleet : fleet_view option;
  events : Events.bus;
  generation : (unit -> int) option;
}

let unsupported ~drv ~op =
  Verror.error Verror.Operation_unsupported "driver %s does not implement %s" drv op

let make_ops ~drv_name ~get_capabilities ~get_hostname ?(close = fun () -> ())
    ?list_domains ?list_defined ?lookup_by_name ?lookup_by_uuid ?define_xml
    ?undefine ?dom_create ?dom_suspend ?dom_resume ?dom_shutdown ?dom_destroy
    ?dom_get_info ?dom_get_xml ?dom_set_memory ?dom_save ?dom_restore
    ?dom_has_managed_save ?dom_set_autostart ?dom_get_autostart ?dom_set_policy
    ?dom_get_policy ?dom_list_all ?migrate_begin ?migrate_prepare
    ?guest_agent_install ?guest_agent_exec ?net ?storage ?fleet ?events
    ?generation () =
  let missing op _ = unsupported ~drv:drv_name ~op in
  let missing0 op () = unsupported ~drv:drv_name ~op in
  {
    drv_name;
    close;
    get_capabilities;
    get_hostname;
    list_domains = Option.value list_domains ~default:(missing0 "list_domains");
    list_defined = Option.value list_defined ~default:(missing0 "list_defined");
    lookup_by_name = Option.value lookup_by_name ~default:(missing "lookup_by_name");
    lookup_by_uuid = Option.value lookup_by_uuid ~default:(missing "lookup_by_uuid");
    define_xml = Option.value define_xml ~default:(missing "define_xml");
    undefine = Option.value undefine ~default:(missing "undefine");
    dom_create = Option.value dom_create ~default:(missing "create");
    dom_suspend = Option.value dom_suspend ~default:(missing "suspend");
    dom_resume = Option.value dom_resume ~default:(missing "resume");
    dom_shutdown = Option.value dom_shutdown ~default:(missing "shutdown");
    dom_destroy = Option.value dom_destroy ~default:(missing "destroy");
    dom_get_info = Option.value dom_get_info ~default:(missing "get_info");
    dom_get_xml = Option.value dom_get_xml ~default:(missing "get_xml");
    dom_set_memory =
      (match dom_set_memory with
       | Some f -> f
       | None -> fun _ _ -> unsupported ~drv:drv_name ~op:"set_memory");
    dom_save;
    dom_restore;
    dom_has_managed_save;
    dom_set_autostart;
    dom_get_autostart;
    dom_set_policy;
    dom_get_policy;
    dom_list_all;
    migrate_begin;
    migrate_prepare;
    guest_agent_install;
    guest_agent_exec;
    net;
    storage;
    fleet;
    events = (match events with Some bus -> bus | None -> Events.create_bus ());
    generation;
  }

(* ------------------------------------------------------------------ *)
(* Fleet status hook                                                   *)
(* ------------------------------------------------------------------ *)

(* Set by the fleet subsystem (which depends on this library, not the
   other way round) so the admin service can report every in-process
   fleet without a dependency cycle. *)
let fleet_status_hook : (unit -> fleet_status list) ref = ref (fun () -> [])
let set_fleet_status_hook f = fleet_status_hook := f
let fleet_statuses () = !fleet_status_hook ()

(* ------------------------------------------------------------------ *)
(* Bulk listing                                                        *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

(* Per-op emulation of [dom_list_all] for drivers without a native
   snapshot: list + per-domain lookup/info/autostart.  Not race-free
   (a domain may vanish between the listing and its info call — such
   rows are dropped rather than failing the whole listing), which is
   exactly why the native single-lock path exists. *)
let list_all_fallback ops =
  let* active = ops.list_domains () in
  let* defined = ops.list_defined () in
  let defined_refs =
    List.filter_map
      (fun name -> Result.to_option (ops.lookup_by_name name))
      defined
  in
  let record r =
    match ops.dom_get_info r.dom_name with
    | Error _ -> None
    | Ok info ->
      let autostart =
        match ops.dom_get_autostart with
        | Some f -> Result.to_option (f r.dom_name)
        | None -> None
      in
      Some { rec_ref = r; rec_info = info; rec_autostart = autostart }
  in
  Ok (List.filter_map record (active @ defined_refs))

let list_all ops =
  match ops.dom_list_all with Some f -> f () | None -> list_all_fallback ops

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

type registration = {
  reg_name : string;
  probe : Vuri.t -> bool;
  open_conn : Vuri.t -> (ops, Verror.t) result;
}

let registry : registration list ref = ref []
let registry_mutex = Mutex.create ()

let with_registry f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

(* Single-pass ordered upsert: re-registering replaces in place (probe
   order is load-bearing — the remote driver registers last as the
   catch-all), a new name appends. *)
let register reg =
  with_registry (fun () ->
      let rec upsert = function
        | [] -> [ reg ]
        | r :: rest -> if r.reg_name = reg.reg_name then reg :: rest else r :: upsert rest
      in
      registry := upsert !registry)

let registered () = with_registry (fun () -> List.map (fun r -> r.reg_name) !registry)

let open_uri uri =
  let regs = with_registry (fun () -> !registry) in
  match List.find_opt (fun r -> r.probe uri) regs with
  | Some r -> r.open_conn uri
  | None ->
    Verror.error Verror.No_connect "no driver accepts URI %S" (Vuri.to_string uri)
