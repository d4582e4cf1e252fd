let program = 0x06900690
let version = 1

type procedure =
  | Proc_list_servers
  | Proc_lookup_server
  | Proc_get_threadpool
  | Proc_set_threadpool
  | Proc_get_client_limits
  | Proc_set_client_limits
  | Proc_list_clients
  | Proc_get_client_info
  | Proc_client_close
  | Proc_get_log_level
  | Proc_set_log_level
  | Proc_get_log_filters
  | Proc_set_log_filters
  | Proc_get_log_outputs
  | Proc_set_log_outputs
  | Proc_daemon_uptime
  | Proc_daemon_drain
  | Proc_daemon_pool_stats
  | Proc_daemon_reconcile_status
  | Proc_daemon_event_stats
  | Proc_daemon_reply_cache_stats
  | Proc_daemon_fleet_status

let is_high_priority (_ : procedure) = true

(* Field names exactly as the admin API documents them. *)
let threadpool_workers_min = "minWorkers"
let threadpool_workers_max = "maxWorkers"
let threadpool_workers_priority = "prioWorkers"
let threadpool_workers_free = "freeWorkers"
let threadpool_workers_current = "nWorkers"
let threadpool_job_queue_depth = "jobQueueDepth"
let threadpool_job_queue_limit = "jobQueueLimit"
let threadpool_wall_limit_ms = "wallLimitMs"
let pool_jobs_done = "jobsDone"
let pool_jobs_failed = "jobsFailed"
let pool_jobs_shed = "jobsShed"
let pool_jobs_expired = "jobsExpired"
let pool_workers_stuck = "workersStuck"
let pool_workers_stuck_now = "workersStuckNow"
let server_clients_max = "nclients_max"
let server_clients_current = "nclients"
let server_clients_unauth_max = "nclients_unauth_max"
let server_clients_unauth_current = "nclients_unauth"
let client_info_readonly = "readonly"
let client_info_sock_addr = "sock_addr"
let client_info_x509_dname = "x509_dname"
let client_info_unix_user_id = "unix_user_id"
let client_info_unix_user_name = "unix_user_name"
let client_info_unix_group_id = "unix_group_id"
let client_info_unix_group_name = "unix_group_name"
let client_info_unix_process_id = "unix_process_id"
let event_rings = "nRings"
let event_emitted = "eventsEmitted"
let event_replayed = "eventsReplayed"
let event_gapped = "eventsGapped"
let event_resumes = "eventResumes"
let event_ring_occupancy = "ringOccupancy"
let event_ring_capacity = "ringCapacity"
let event_subscribers = "nSubscribers"
let event_head_seq = "headSeq"
let reply_cache_caches = "nCaches"
let reply_cache_hits = "replyCacheHits"
let reply_cache_misses = "replyCacheMisses"
let reply_cache_insertions = "replyCacheInsertions"
let reply_cache_invalidations = "replyCacheInvalidations"
let reply_cache_evictions = "replyCacheEvictions"
let reply_cache_patched_sends = "replyCachePatchedSends"
let reply_cache_entries = "replyCacheEntries"
let reply_cache_bytes = "replyCacheBytes"
let reply_cache_enabled = "replyCacheEnabled"

type client_entry = {
  client_id : int64;
  client_transport : int;
  connected_since : int64;
}

(* ------------------------------------------------------------------ *)
(* Codecs and procedure table                                          *)
(* ------------------------------------------------------------------ *)

module Rp = Remote_protocol

let params = Xdr.codec Ovrpc.Typed_params.encode Ovrpc.Typed_params.decode
let server_params = Xdr.pair Xdr.string params
let client_ref = Xdr.pair Xdr.string Xdr.hyper

let client_entry =
  Xdr.record3
    ((fun c -> c.client_id), Xdr.hyper)
    ((fun c -> c.client_transport), Xdr.int)
    ((fun c -> c.connected_since), Xdr.hyper)
    (fun client_id client_transport connected_since ->
      { client_id; client_transport; connected_since })

(* v1.6: every fleet hosted by the daemon's process, each status an
   opaque holding the remote program's body (one wire format for fleet
   health). *)
let fleet_statuses =
  Xdr.array
    (Xdr.conv (Xdr.encode Rp.fleet_health) (Xdr.decode Rp.fleet_health) Xdr.string)

type ('a, 'r) signature = {
  sg_proc : procedure;
  sg_args : 'a Xdr.codec;
  sg_ret : 'r Xdr.codec;
}

(* Procedures in definition order, newest first, until [table] is built.
   Numbers are append-only: a row's position is its wire number. *)
let rows = ref []

let row proc args ret =
  rows := proc :: !rows;
  { sg_proc = proc; sg_args = args; sg_ret = ret }

let list_servers = row Proc_list_servers Xdr.unit (Xdr.array Xdr.string)
let lookup_server = row Proc_lookup_server Xdr.string Xdr.unit
let get_threadpool = row Proc_get_threadpool Xdr.string params
let set_threadpool = row Proc_set_threadpool server_params Xdr.unit
let get_client_limits = row Proc_get_client_limits Xdr.string params
let set_client_limits = row Proc_set_client_limits server_params Xdr.unit
let list_clients = row Proc_list_clients Xdr.string (Xdr.array client_entry)
let get_client_info = row Proc_get_client_info client_ref params
let client_close = row Proc_client_close client_ref Xdr.unit
let get_log_level = row Proc_get_log_level Xdr.unit Xdr.uint
let set_log_level = row Proc_set_log_level Xdr.uint Xdr.unit
let get_log_filters = row Proc_get_log_filters Xdr.unit Xdr.string
let set_log_filters = row Proc_set_log_filters Xdr.string Xdr.unit
let get_log_outputs = row Proc_get_log_outputs Xdr.unit Xdr.string
let set_log_outputs = row Proc_set_log_outputs Xdr.string Xdr.unit
let daemon_uptime = row Proc_daemon_uptime Xdr.unit Xdr.hyper

(* v1.1 *)
let daemon_drain = row Proc_daemon_drain Xdr.unit Xdr.unit

(* v1.2 *)
let daemon_pool_stats = row Proc_daemon_pool_stats Xdr.string params

(* v1.3 *)
let daemon_reconcile_status =
  row Proc_daemon_reconcile_status Xdr.unit Rp.daemon_reconcile_status.Rp.sg_ret

(* v1.4 *)
let daemon_event_stats = row Proc_daemon_event_stats Xdr.unit params

(* v1.5 *)
let daemon_reply_cache_stats = row Proc_daemon_reply_cache_stats Xdr.unit params

(* v1.6 *)
let daemon_fleet_status = row Proc_daemon_fleet_status Xdr.unit fleet_statuses

let table = Array.of_list (List.rev !rows)

let proc_index =
  let h = Hashtbl.create 32 in
  Array.iteri (fun i p -> Hashtbl.replace h p (i + 1)) table;
  h

let proc_to_int proc = Hashtbl.find proc_index proc

let proc_of_int n =
  if n >= 1 && n <= Array.length table then Ok table.(n - 1)
  else Error (Printf.sprintf "unknown admin procedure %d" n)
