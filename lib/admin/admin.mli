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
(** [daemon] defaults to ["ovirtd"].  Non-root identities are refused by
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

(** Aggregate replay-ring counters across the daemon's per-node event
    rings (v1.6 resumable subscriptions). *)
type event_stats = {
  es_rings : int;  (** rings created (one per distinct node opened) *)
  es_emitted : int;  (** events appended to rings since startup *)
  es_replayed : int;  (** events re-sent through resume replays *)
  es_gapped : int;  (** resumes answered with a gap verdict *)
  es_resumes : int;  (** resume calls served *)
  es_ring_occupancy : int;  (** retained events, summed over rings *)
  es_ring_capacity : int;  (** ring capacity, summed over rings *)
  es_subscribers : int;  (** live seq-tagged subscriptions *)
  es_head_seq : int;  (** highest stream position across rings *)
}

val event_stats : conn -> (event_stats, Ovirt_core.Verror.t) result
(** The administrator's view of event-stream health: a growing
    [es_gapped] means rings are undersized for the observed outages
    (raise [event_ring] in the daemon configuration). *)

(** Aggregate reply-cache counters across the daemon's per-node caches
    (the zero-work read fast path). *)
type reply_cache_stats = {
  rc_caches : int;  (** caches created (one per distinct node opened) *)
  rc_hits : int;  (** lookups answered from cached bodies *)
  rc_misses : int;  (** lookups that fell through to the handler *)
  rc_insertions : int;  (** bodies stored *)
  rc_invalidations : int;  (** entries dropped by events or stale stamps *)
  rc_evictions : int;  (** entries dropped by the capacity bound *)
  rc_patched_sends : int;  (** cached replies sent from the receiving thread *)
  rc_entries : int;  (** currently cached bodies, summed over caches *)
  rc_bytes : int;  (** currently cached body bytes, summed over caches *)
  rc_enabled : bool;  (** the daemon-level [reply_cache] knob *)
}

val reply_cache_stats : conn -> (reply_cache_stats, Ovirt_core.Verror.t) result
(** The administrator's view of read fast-path health: a hit ratio near
    zero under a read-heavy load means writes are churning the caches or
    [reply_cache_entries] is too small. *)

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

type threadpool_info = {
  tp_min_workers : int;
  tp_max_workers : int;
  tp_n_workers : int;
  tp_free_workers : int;
  tp_prio_workers : int;
  tp_job_queue_depth : int;
  tp_job_queue_limit : int;  (** admission bound; 0 = unbounded *)
  tp_wall_limit_ms : int;  (** stuck-worker watchdog; 0 = off *)
}

(** Overload counters since pool creation, plus the live limits. *)
type pool_stats = {
  ps_jobs_done : int;
  ps_jobs_failed : int;  (** handler raised *)
  ps_jobs_shed : int;  (** rejected by admission control *)
  ps_jobs_expired : int;  (** deadline passed while queued *)
  ps_workers_stuck : int;  (** ever written off by the watchdog *)
  ps_workers_stuck_now : int;  (** still wedged *)
  ps_job_queue_depth : int;
  ps_job_queue_limit : int;
  ps_wall_limit_ms : int;
}

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

type client_limits = {
  nclients_max : int;
  nclients_current : int;
  nclients_unauth_max : int;
  nclients_unauth_current : int;
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
