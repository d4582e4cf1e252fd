(** Administration client API (the [virAdm*] surface).

    Connects to a daemon's admin socket — root-only and local-only — and
    provides its runtime management: server enumeration, workerpool
    tuning, client limits/identity/disconnect, and logging control.  This
    is the interface whose absence motivated the runtime-management work:
    every setter here edits live state that the persistent configuration
    file can only seed at startup. *)

type conn
type server
(** A named server on the daemon (["libvirtd"] or ["admin"]). *)

val connect :
  ?daemon:string -> ?identity:Ovnet.Transport.unix_identity -> unit ->
  (conn, Ovirt_core.Verror.t) result
(** [daemon] defaults to {!Protocol.Remote_protocol.default_daemon}.  Non-root identities are refused by
    the daemon (the socket is root-only). *)

val close : conn -> unit
val daemon_uptime_s : conn -> (int64, Ovirt_core.Verror.t) result

val drain : conn -> (unit, Ovirt_core.Verror.t) result
(** Ask the daemon to shut down gracefully: stop accepting, finish
    in-flight dispatches, then close.  Returns as soon as the daemon
    acknowledges; the drain itself runs in the background. *)

val reconcile_status :
  conn ->
  (Reconcile.summary * Reconcile.dom_status list, Ovirt_core.Verror.t) result
(** The reconciler's convergence summary and per-domain rows — the
    administrator's view of whether the declared fleet state holds. *)

(** {1 Typed-parameter records}

    The records below, each decoded through its table in
    {!Protocol.Admin_protocol}: a reply that lacks a key fails with
    [Rpc_failure "reply lacks field ..."], one whose key is not a uint
    with [Rpc_failure "bad reply: ..."]. *)

include module type of struct
  include Protocol.Admin_records
end

val event_stats : conn -> (event_stats, Ovirt_core.Verror.t) result
(** The administrator's view of event-stream health: a growing
    [es_gapped] means rings are undersized for the observed outages
    (raise [event_ring] in the daemon configuration). *)

val reply_cache_stats : conn -> (reply_cache_stats, Ovirt_core.Verror.t) result
(** The administrator's view of the listing fast path.  The daemon
    caches only the [dom_list_all] and [fleet_list_all] replies, so every
    counter counts listings.  A hit ratio near zero under a read-heavy
    load means writes are churning the node: each one drops its cached
    listings (event-driven flush, or a stale generation stamp on the
    next lookup).  The [reply_cache_entries] bound does not help: a
    cache holds at most two keys, so only a bound of 1 ever evicts. *)

val fleet_status :
  conn -> (Ovirt_core.Driver.fleet_status list, Ovirt_core.Verror.t) result
(** One status per fleet hosted in the daemon's process (empty if it
    hosts none): member health as the controller's prober sees it,
    probe/failure counters, last known domain counts and migration
    totals. *)

(** {1 Servers} *)

val list_servers : conn -> (string list, Ovirt_core.Verror.t) result
val lookup_server : conn -> string -> (server, Ovirt_core.Verror.t) result
val server_name : server -> string

(** {1 Workerpool} *)

val threadpool_info : server -> (threadpool_info, Ovirt_core.Verror.t) result
val pool_stats : server -> (pool_stats, Ovirt_core.Verror.t) result

val set_threadpool :
  server ->
  ?min_workers:int ->
  ?max_workers:int ->
  ?prio_workers:int ->
  ?job_queue_limit:int ->
  ?wall_limit_ms:int ->
  unit ->
  (unit, Ovirt_core.Verror.t) result

val set_threadpool_params :
  server -> Ovrpc.Typed_params.t -> (unit, Ovirt_core.Verror.t) result
(** Raw typed-parameter variant (lets tests exercise read-only/unknown
    field rejection). *)

(** {1 Client management} *)

type client_info = {
  cl_id : int64;
  cl_transport : Ovnet.Transport.kind;
  cl_connected_since : int64;
}

val list_clients : server -> (client_info list, Ovirt_core.Verror.t) result
val client_limits : server -> (client_limits, Ovirt_core.Verror.t) result

val set_client_limits :
  server -> ?max_clients:int -> ?max_unauth:int -> unit ->
  (unit, Ovirt_core.Verror.t) result

val set_client_limits_params :
  server -> Ovrpc.Typed_params.t -> (unit, Ovirt_core.Verror.t) result

val client_identity :
  server -> int64 -> (Ovrpc.Typed_params.t, Ovirt_core.Verror.t) result
(** Transport-dependent identity fields; see
    {!Protocol.Admin_protocol.client_info_readonly} and friends. *)

val client_disconnect : server -> int64 -> (unit, Ovirt_core.Verror.t) result

(** {1 Logging} *)

val get_logging_level : conn -> (Vlog.priority, Ovirt_core.Verror.t) result
val set_logging_level : conn -> Vlog.priority -> (unit, Ovirt_core.Verror.t) result

val set_logging_level_raw : conn -> int -> (unit, Ovirt_core.Verror.t) result
(** Send an arbitrary numeric level (tests exercise range rejection). *)

val get_logging_filters : conn -> (string, Ovirt_core.Verror.t) result
val set_logging_filters : conn -> string -> (unit, Ovirt_core.Verror.t) result
val get_logging_outputs : conn -> (string, Ovirt_core.Verror.t) result
val set_logging_outputs : conn -> string -> (unit, Ovirt_core.Verror.t) result
