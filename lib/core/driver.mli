(** The driver architecture: libvirt's core design.

    A {e driver} supplies an {!ops} record per open connection — the
    uniform internal interface every hypervisor backend implements.  The
    public API ([Connect]/[Domain]/[Network]/[Storage]) only ever talks to
    an [ops] record, so adding a hypervisor never changes the API.

    Drivers register a {!registration} (a URI probe plus an opener) in a
    global {e registry}; {!open_uri} walks registrations in order and the
    first probe that accepts wins — the remote driver registers last and
    accepts what no client-side driver claimed, exactly libvirt's
    selection rule. *)

type domain_ref = {
  dom_name : string;
  dom_uuid : Vmm.Uuid.t;
  dom_id : int option;  (** hypervisor id while active (Xen domid, pid) *)
}

type domain_info = {
  di_state : Vmm.Vm_state.state;
  di_max_mem_kib : int;
  di_memory_kib : int;  (** current (ballooned) memory *)
  di_vcpus : int;
  di_cpu_time_ns : int64;
}

type domain_record = {
  rec_ref : domain_ref;
  rec_info : domain_info;
  rec_autostart : bool option;  (** [None] when the driver lacks autostart *)
}
(** One row of a bulk listing ({!ops.dom_list_all}): ref + info +
    autostart in a single snapshot, the unit of the wire protocol's
    [Proc_dom_list_all]. *)

(** Migration session handles (source and destination halves).  The
    generic precopy loop in [Domain.migrate] drives these; only drivers
    whose hypervisor exposes a live memory image provide them. *)

type migrate_source = {
  mig_config_xml : string;
  mig_image : Vmm.Guest_image.t;
  mig_enter_stopcopy : unit -> (unit, Verror.t) result;
      (** pause the source for the final copy round *)
  mig_confirm : unit -> (unit, Verror.t) result;
      (** migration succeeded: tear the source domain down *)
  mig_abort : unit -> unit;  (** migration failed: resume the source *)
}

type migrate_dest = {
  mig_dest_image : Vmm.Guest_image.t;  (** paused destination's memory *)
  mig_finish : unit -> (unit, Verror.t) result;  (** resume at destination *)
  mig_cancel : unit -> unit;  (** failure: destroy the half-built domain *)
}

(** Network and storage sub-driver interfaces.  Local drivers wrap their
    embedded backends ({!net_ops_of_backend}); the remote driver
    implements the same records over RPC, so the public [Network] and
    [Storage] APIs work identically through the daemon. *)

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

val net_ops_of_backend : Net_backend.t -> net_ops
val storage_ops_of_backend : Storage_backend.t -> storage_ops

(** {1 Federation (protocol v1.7)}

    A fleet controller aggregates many member daemons behind a single
    connection.  Listings are scatter-gathered with per-shard error
    isolation: a dead member degrades the reply instead of failing it,
    and the reply says exactly which members could not contribute. *)

type shard_error = {
  se_member : string;  (** member (shard) name *)
  se_error : Verror.t;  (** why it could not contribute *)
}

type fleet_listing = {
  fl_records : domain_record list;  (** rows from reachable members *)
  fl_shard_errors : shard_error list;
      (** one marker per member that failed or timed out; empty means the
          listing is complete and fresh *)
  fl_members : int;  (** members queried ([1] for a plain daemon) *)
}

(** Member health as seen by the controller's prober: [Mh_degraded] means
    recent failures (or a recovering member) — still queried, but
    suspect; [Mh_down] members are skipped by the data path and probed
    with backoff. *)
type member_health = Mh_up | Mh_degraded | Mh_down

val member_health_name : member_health -> string

type member_status = {
  ms_name : string;
  ms_health : member_health;
  ms_consec_failures : int;
  ms_probes : int;  (** probes attempted since the member joined *)
  ms_failures : int;  (** probe + data-path failures, lifetime *)
  ms_domains : int;  (** last known domain count; [-1] = never listed *)
}

type fleet_status = {
  fs_fleet : string;  (** fleet (controller) name *)
  fs_members : member_status list;
  fs_migrations_active : int;
  fs_migrations_recovered : int;  (** journal replays rolled forward *)
  fs_migrations_rolled_back : int;  (** aborted back to a running source *)
}

(** The controller surface a fleet connection exposes on top of the
    ordinary {!ops} operations (which it serves by scatter-gather or
    placement-routed forwarding). *)
type fleet_view = {
  fleet_list_all : unit -> (fleet_listing, Verror.t) result;
  fleet_status : unit -> (fleet_status, Verror.t) result;
  fleet_migrate : domain:string -> dest:string -> (unit, Verror.t) result;
      (** journaled two-phase cross-daemon migration; [dest] is a member
          name *)
  fleet_owner : string -> (string, Verror.t) result;
      (** member name owning a domain (placement + learned locations) *)
}

type 'a reply = until:float -> ('a, Verror.t) result option
(** A call already made, whose outcome the caller reads when it is
    ready to: at once for a local driver, from the wire for the remote
    driver, which has sent the call and reads its reply on the thread
    that asks.  [None] when [until] passed before the outcome came; the
    call is then abandoned.  Read each reply once. *)

exception Reopen
(** Raised by reading a {!reply} up to a finite [until] when the call's
    connection has died and must be opened again before the call can be
    retried: that can outlast any [until], since opening waits on the
    peer.  The call is over; the reader makes it again where it may wait
    ({!list_all}), e.g. on a thread of its own.  Read with no deadline,
    a reply re-opens and retries itself. *)

val ready : ('a, Verror.t) result -> 'a reply
(** A reply whose outcome is already known. *)

val wait : 'a reply -> ('a, Verror.t) result
(** Read a reply with no deadline. *)

type ops = {
  drv_name : string;
  close : unit -> unit;
  get_capabilities : unit -> Capabilities.t;
  get_hostname : unit -> string;
  list_domains : unit -> (domain_ref list, Verror.t) result;  (** active *)
  list_defined : unit -> (string list, Verror.t) result;  (** inactive *)
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
      (** managed save: checkpoint a running domain's memory to the
          driver's state directory and stop it *)
  dom_restore : (string -> (unit, Verror.t) result) option;
      (** resume a domain from its managed-save image (consumes it) *)
  dom_has_managed_save : (string -> (bool, Verror.t) result) option;
  dom_set_autostart : (string -> bool -> (unit, Verror.t) result) option;
      (** mark a domain to be started when the driver recovers a node
          after a daemon restart (cf. [net_set_autostart]) *)
  dom_get_autostart : (string -> (bool, Verror.t) result) option;
  dom_set_policy : (string -> Dompolicy.t -> (unit, Verror.t) result) option;
      (** declare the domain's lifecycle policy to the daemon-side
          reconciler; only the remote driver implements this (policy is
          a daemon concept, local drivers have no reconciler) *)
  dom_get_policy : (string -> (Dompolicy.t, Verror.t) result) option;
  dom_list_all : (unit -> domain_record list reply) option;
      (** bulk listing of all domains (active and defined), snapshotted
          under one driver read lock when implemented natively; absent
          drivers are served by {!list_all_fallback}.  Calling it makes
          the listing; reading the reply it returns gets the rows, so a
          caller can send to several remote connections before it waits
          on any *)
  migrate_begin : (string -> (migrate_source, Verror.t) result) option;
  migrate_prepare : (string -> (migrate_dest, Verror.t) result) option;
  guest_agent_install : (string -> (unit, Verror.t) result) option;
      (** intrusive baseline: install the in-guest agent of a domain *)
  guest_agent_exec : (string -> string -> (string, Verror.t) result) option;
      (** [exec domain json_line] over the guest-agent channel *)
  net : net_ops option;
  storage : storage_ops option;
  fleet : fleet_view option;
      (** present only on fleet-controller connections: the federation
          surface (scatter-gather listing with shard errors, member
          health, cross-daemon migration) *)
  events : Events.bus;
  generation : (unit -> int) option;
      (** monotonic write stamp over the connection's whole visible
          state (node plus network/storage backends); present only for
          local stateful drivers.  The daemon's reply cache declines to
          cache when absent; see {!Drvnode.generation} *)
}

val unsupported : drv:string -> op:string -> ('a, Verror.t) result
(** The canonical [Operation_unsupported] error. *)

val make_ops :
  drv_name:string ->
  get_capabilities:(unit -> Capabilities.t) ->
  get_hostname:(unit -> string) ->
  ?close:(unit -> unit) ->
  ?list_domains:(unit -> (domain_ref list, Verror.t) result) ->
  ?list_defined:(unit -> (string list, Verror.t) result) ->
  ?lookup_by_name:(string -> (domain_ref, Verror.t) result) ->
  ?lookup_by_uuid:(Vmm.Uuid.t -> (domain_ref, Verror.t) result) ->
  ?define_xml:(string -> (domain_ref, Verror.t) result) ->
  ?undefine:(string -> (unit, Verror.t) result) ->
  ?dom_create:(string -> (unit, Verror.t) result) ->
  ?dom_suspend:(string -> (unit, Verror.t) result) ->
  ?dom_resume:(string -> (unit, Verror.t) result) ->
  ?dom_shutdown:(string -> (unit, Verror.t) result) ->
  ?dom_destroy:(string -> (unit, Verror.t) result) ->
  ?dom_get_info:(string -> (domain_info, Verror.t) result) ->
  ?dom_get_xml:(string -> (string, Verror.t) result) ->
  ?dom_set_memory:(string -> int -> (unit, Verror.t) result) ->
  ?dom_save:(string -> (unit, Verror.t) result) ->
  ?dom_restore:(string -> (unit, Verror.t) result) ->
  ?dom_has_managed_save:(string -> (bool, Verror.t) result) ->
  ?dom_set_autostart:(string -> bool -> (unit, Verror.t) result) ->
  ?dom_get_autostart:(string -> (bool, Verror.t) result) ->
  ?dom_set_policy:(string -> Dompolicy.t -> (unit, Verror.t) result) ->
  ?dom_get_policy:(string -> (Dompolicy.t, Verror.t) result) ->
  ?dom_list_all:(unit -> (domain_record list, Verror.t) result) ->
  ?migrate_begin:(string -> (migrate_source, Verror.t) result) ->
  ?migrate_prepare:(string -> (migrate_dest, Verror.t) result) ->
  ?guest_agent_install:(string -> (unit, Verror.t) result) ->
  ?guest_agent_exec:(string -> string -> (string, Verror.t) result) ->
  ?net:net_ops ->
  ?storage:storage_ops ->
  ?fleet:fleet_view ->
  ?events:Events.bus ->
  ?generation:(unit -> int) ->
  unit ->
  ops
(** Omitted operations answer {!unsupported}.  [dom_list_all] answers
    at once (its outcome becomes a {!ready} reply); a driver that lists
    over the wire sets the [dom_list_all] field itself. *)

val list_all_fallback : ops -> (domain_record list, Verror.t) result
(** Emulate a bulk listing with per-op calls (list + lookup + info +
    autostart).  Not race-free: rows that vanish mid-walk are dropped. *)

val send_list_all : ops -> domain_record list reply
(** [dom_list_all] when the driver has one, {!list_all_fallback}
    otherwise. *)

val list_all : ops -> (domain_record list, Verror.t) result
(** {!send_list_all}, waited for. *)

(** {1 Registry} *)

type registration = {
  reg_name : string;
  probe : Vuri.t -> bool;
  open_conn : Vuri.t -> (ops, Verror.t) result;
}

val register : registration -> unit
(** Appends; re-registering a [reg_name] replaces the old entry in place
    (keeps ordering stable across re-initialization in tests). *)

val registered : unit -> string list

val open_uri : Vuri.t -> (ops, Verror.t) result
(** First accepting probe wins; [No_connect] if none accepts. *)

