(** The administration program: runtime management of the daemon itself.

    Mirrors the libvirt-admin interface: per-server threadpool tuning,
    client limits, client listing/identity/disconnect, and daemon-global
    logging level/filters/outputs.  Typed-parameter field names are the
    exact strings the admin API documents. *)

val program : int
val version : int

type procedure =
  | Proc_list_servers  (** ret: server-name array *)
  | Proc_lookup_server  (** args: name; ret: none (existence check) *)
  | Proc_get_threadpool  (** args: server; ret: typed params *)
  | Proc_set_threadpool  (** args: server + typed params *)
  | Proc_get_client_limits
  | Proc_set_client_limits
  | Proc_list_clients  (** args: server; ret: client entries *)
  | Proc_get_client_info  (** args: server + id; ret: typed params *)
  | Proc_client_close  (** args: server + id *)
  | Proc_get_log_level  (** ret: uint *)
  | Proc_set_log_level  (** args: uint *)
  | Proc_get_log_filters  (** ret: string *)
  | Proc_set_log_filters
  | Proc_get_log_outputs
  | Proc_set_log_outputs
  | Proc_daemon_uptime  (** ret: hyper seconds (monitoring aid) *)
  | Proc_daemon_drain
      (** graceful shutdown: stop accepting connections, finish in-flight
          dispatches, then close.  Replies before the drain completes. *)
  | Proc_daemon_pool_stats
      (** args: server; ret: typed params — overload counters
          (jobs done/failed/shed/expired, stuck workers) plus the live
          queue/wall limits *)
  | Proc_daemon_reconcile_status
      (** ret: the reconciler summary + per-domain rows, encoded exactly
          as the remote program's [Proc_daemon_reconcile_status] reply *)
  | Proc_daemon_event_stats
      (** appended in v1.4 — ret: typed params: aggregate replay-ring
          counters for the v1.6 resumable event streams (events
          emitted/replayed/gapped, resumes, ring occupancy/capacity,
          live subscribers, highest stream position) *)
  | Proc_daemon_reply_cache_stats
      (** appended in v1.5 — ret: typed params: aggregate server
          reply-cache counters across every per-node-URI cache (hits,
          misses, insertions, invalidations, evictions, cached replies
          sent from the receiving thread, live entries/bytes, enabled
          flag) *)
  | Proc_daemon_fleet_status
      (** appended in v1.6 — ret: one
          {!Ovirt_core.Driver.fleet_status} per fleet hosted in the
          daemon's process (empty array if it hosts none): member
          health, probe/failure counters, migration totals *)

val proc_to_int : procedure -> int
val proc_of_int : int -> (procedure, string) result

val is_high_priority : procedure -> bool
(** Every admin procedure is high-priority: the whole point is that
    administration works when ordinary workers are wedged. *)

(** {1 Typed-parameter field names}

    The keys that setters and client identity name.  The stats records'
    other keys are stated once, in their table row. *)

val threadpool_workers_min : string
val threadpool_workers_max : string
val threadpool_workers_priority : string
val threadpool_workers_free : string
val threadpool_workers_current : string
val threadpool_job_queue_depth : string
val threadpool_job_queue_limit : string
val threadpool_wall_limit_ms : string

val server_clients_max : string
val server_clients_current : string
val server_clients_unauth_max : string
val server_clients_unauth_current : string

val client_info_readonly : string
val client_info_sock_addr : string
val client_info_x509_dname : string
val client_info_unix_user_id : string
val client_info_unix_user_name : string
val client_info_unix_group_id : string
val client_info_unix_group_name : string
val client_info_unix_process_id : string

(** {1 Typed-parameter records}

    Each record of {!Admin_records} that a procedure returns as typed
    parameters has one table: the daemon encodes through it, the admin
    client decodes through it and [ovirt-admin] prints what it encodes. *)

type 'r table
(** A record's fields in wire order, each with its key, its kind (a uint,
    or a flag sent as uint 0/1) and its getter, plus the record's
    constructor. *)

val threadpool_info : Admin_records.threadpool_info table
val pool_stats : Admin_records.pool_stats table
val client_limits : Admin_records.client_limits table
val event_stats : Admin_records.event_stats table
val reply_cache_stats : Admin_records.reply_cache_stats table

val to_params : 'r table -> 'r -> Ovrpc.Typed_params.t
(** Every field, in wire order. *)

val of_params :
  'r table -> Ovrpc.Typed_params.t -> ('r, Ovirt_core.Verror.t) result
(** [Rpc_failure "reply lacks field %S"] when a key is missing,
    [Rpc_failure "bad reply: ..."] when one is not a uint.  Keys the
    table does not name are ignored. *)

val keys : 'r table -> (string * bool) list
(** Each key with whether its record's setter may write it. *)

(** {1 Client list entries} *)

type client_entry = {
  client_id : int64;
  client_transport : int;  (** 0 unix, 1 tcp, 2 tls *)
  connected_since : int64;  (** seconds since epoch *)
}

(** {1 Signatures}

    One value per procedure, built by its table row in wire order: the
    procedure with its argument and reply codecs.  [Admin_client] calls
    through it and the daemon's admin service serves through it. *)

type ('a, 'r) signature = private {
  sg_proc : procedure;
  sg_args : 'a Xdr.codec;
  sg_ret : 'r Xdr.codec;
}

type params := Ovrpc.Typed_params.t

val list_servers : (unit, string list) signature
val lookup_server : (string, unit) signature
(** an existence check *)

val get_threadpool : (string, params) signature
val set_threadpool : (string * params, unit) signature
val get_client_limits : (string, params) signature
val set_client_limits : (string * params, unit) signature
val list_clients : (string, client_entry list) signature
val get_client_info : (string * int64, params) signature
val client_close : (string * int64, unit) signature
val get_log_level : (unit, int) signature
val set_log_level : (int, unit) signature
val get_log_filters : (unit, string) signature
val set_log_filters : (string, unit) signature
val get_log_outputs : (unit, string) signature
val set_log_outputs : (string, unit) signature
val daemon_uptime : (unit, int64) signature
(** seconds since the daemon started *)

val daemon_drain : (unit, unit) signature
val daemon_pool_stats : (string, params) signature

val daemon_reconcile_status :
  (unit, Reconcile.summary * Reconcile.dom_status list) signature
(** The remote program's [daemon_reconcile_status] reply body. *)

val daemon_event_stats : (unit, params) signature
val daemon_reply_cache_stats : (unit, params) signature

val daemon_fleet_status : (unit, Ovirt_core.Driver.fleet_status list) signature
(** An array of opaques, each a {!Remote_protocol.fleet_health} body. *)
