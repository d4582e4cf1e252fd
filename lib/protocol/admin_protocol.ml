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

(* Field names exactly as the admin API documents them: the ones that
   setters and client identity name; the rest live in their table row. *)
let threadpool_workers_min = "minWorkers"
let threadpool_workers_max = "maxWorkers"
let threadpool_workers_priority = "prioWorkers"
let threadpool_workers_free = "freeWorkers"
let threadpool_workers_current = "nWorkers"
let threadpool_job_queue_depth = "jobQueueDepth"
let threadpool_job_queue_limit = "jobQueueLimit"
let threadpool_wall_limit_ms = "wallLimitMs"
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

(* ------------------------------------------------------------------ *)
(* Typed-parameter records: one table each                             *)
(* ------------------------------------------------------------------ *)

open Admin_records
module Tp = Ovrpc.Typed_params
module Verror = Ovirt_core.Verror

(* Every field travels as a uint; a flag as 0 or 1. *)
type _ kind = Uint : int kind | Flag : bool kind

type ('r, 'a) field = { key : string; kind : 'a kind; get : 'r -> 'a; writable : bool }

(* The fields in wire order; ['c] is the constructor that takes their
   values in that order.  A module of its own, so that its list syntax
   does not shadow the ordinary one. *)
module Fields = struct
  type ('r, 'c) t =
    | [] : ('r, 'r) t
    | ( :: ) : ('r, 'a) field * ('r, 'c) t -> ('r, 'a -> 'c) t
end

type 'r table = Table : ('r, 'c) Fields.t * 'c -> 'r table

let uint ?(writable = false) key get = { key; kind = Uint; get; writable }
let flag key get = { key; kind = Flag; get; writable = false }

let threadpool_info =
  Table (Fields.[
    uint ~writable:true threadpool_workers_min (fun r -> r.tp_min_workers);
    uint ~writable:true threadpool_workers_max (fun r -> r.tp_max_workers);
    uint threadpool_workers_current (fun r -> r.tp_n_workers);
    uint threadpool_workers_free (fun r -> r.tp_free_workers);
    uint ~writable:true threadpool_workers_priority (fun r -> r.tp_prio_workers);
    uint threadpool_job_queue_depth (fun r -> r.tp_job_queue_depth);
    uint ~writable:true threadpool_job_queue_limit (fun r -> r.tp_job_queue_limit);
    uint ~writable:true threadpool_wall_limit_ms (fun r -> r.tp_wall_limit_ms) ],
  fun tp_min_workers tp_max_workers tp_n_workers tp_free_workers tp_prio_workers
      tp_job_queue_depth tp_job_queue_limit tp_wall_limit_ms ->
    { tp_min_workers; tp_max_workers; tp_n_workers; tp_free_workers; tp_prio_workers;
      tp_job_queue_depth; tp_job_queue_limit; tp_wall_limit_ms })

let pool_stats =
  Table (Fields.[
    uint "jobsDone" (fun r -> r.ps_jobs_done);
    uint "jobsFailed" (fun r -> r.ps_jobs_failed);
    uint "jobsShed" (fun r -> r.ps_jobs_shed);
    uint "jobsExpired" (fun r -> r.ps_jobs_expired);
    uint "workersStuck" (fun r -> r.ps_workers_stuck);
    uint "workersStuckNow" (fun r -> r.ps_workers_stuck_now);
    uint threadpool_job_queue_depth (fun r -> r.ps_job_queue_depth);
    uint threadpool_job_queue_limit (fun r -> r.ps_job_queue_limit);
    uint threadpool_wall_limit_ms (fun r -> r.ps_wall_limit_ms) ],
  fun ps_jobs_done ps_jobs_failed ps_jobs_shed ps_jobs_expired ps_workers_stuck
      ps_workers_stuck_now ps_job_queue_depth ps_job_queue_limit ps_wall_limit_ms ->
    { ps_jobs_done; ps_jobs_failed; ps_jobs_shed; ps_jobs_expired; ps_workers_stuck;
      ps_workers_stuck_now; ps_job_queue_depth; ps_job_queue_limit; ps_wall_limit_ms })

let client_limits =
  Table (Fields.[
    uint ~writable:true server_clients_max (fun r -> r.nclients_max);
    uint server_clients_current (fun r -> r.nclients_current);
    uint ~writable:true server_clients_unauth_max (fun r -> r.nclients_unauth_max);
    uint server_clients_unauth_current (fun r -> r.nclients_unauth_current) ],
  fun nclients_max nclients_current nclients_unauth_max nclients_unauth_current ->
    { nclients_max; nclients_current; nclients_unauth_max; nclients_unauth_current })

let event_stats =
  Table (Fields.[
    uint "nRings" (fun r -> r.es_rings);
    uint "eventsEmitted" (fun r -> r.es_emitted);
    uint "eventsReplayed" (fun r -> r.es_replayed);
    uint "eventsGapped" (fun r -> r.es_gapped);
    uint "eventResumes" (fun r -> r.es_resumes);
    uint "ringOccupancy" (fun r -> r.es_ring_occupancy);
    uint "ringCapacity" (fun r -> r.es_ring_capacity);
    uint "nSubscribers" (fun r -> r.es_subscribers);
    uint "headSeq" (fun r -> r.es_head_seq) ],
  fun es_rings es_emitted es_replayed es_gapped es_resumes es_ring_occupancy
      es_ring_capacity es_subscribers es_head_seq ->
    { es_rings; es_emitted; es_replayed; es_gapped; es_resumes; es_ring_occupancy;
      es_ring_capacity; es_subscribers; es_head_seq })

let reply_cache_stats =
  Table (Fields.[
    uint "nCaches" (fun r -> r.rc_caches);
    uint "replyCacheHits" (fun r -> r.rc_hits);
    uint "replyCacheMisses" (fun r -> r.rc_misses);
    uint "replyCacheInsertions" (fun r -> r.rc_insertions);
    uint "replyCacheInvalidations" (fun r -> r.rc_invalidations);
    uint "replyCacheEvictions" (fun r -> r.rc_evictions);
    uint "replyCachePatchedSends" (fun r -> r.rc_patched_sends);
    uint "replyCacheEntries" (fun r -> r.rc_entries);
    uint "replyCacheBytes" (fun r -> r.rc_bytes);
    flag "replyCacheEnabled" (fun r -> r.rc_enabled) ],
  fun rc_caches rc_hits rc_misses rc_insertions rc_invalidations rc_evictions
      rc_patched_sends rc_entries rc_bytes rc_enabled ->
    { rc_caches; rc_hits; rc_misses; rc_insertions; rc_invalidations; rc_evictions;
      rc_patched_sends; rc_entries; rc_bytes; rc_enabled })

let rec encode : type r c. (r, c) Fields.t -> r -> Tp.t =
 fun fields r ->
  match fields with
  | Fields.[] -> []
  | Fields.({ key; kind = Uint; get; _ } :: rest) -> Tp.uint key (get r) :: encode rest r
  | Fields.({ key; kind = Flag; get; _ } :: rest) ->
    Tp.uint key (Bool.to_int (get r)) :: encode rest r

let rec decode : type r c. (r, c) Fields.t -> c -> Tp.t -> (r, Verror.t) result =
 fun fields make params ->
  match fields with
  | Fields.[] -> Ok make
  | Fields.({ key; kind; _ } :: rest) -> (
    match (Tp.find_uint params key, kind) with
    | Some n, Uint -> decode rest (make n) params
    | Some n, Flag -> decode rest (make (n <> 0)) params
    | None, _ -> Verror.error Verror.Rpc_failure "reply lacks field %S" key)

let rec field_keys : type r c. (r, c) Fields.t -> (string * bool) list = function
  | Fields.[] -> []
  | Fields.({ key; writable; _ } :: rest) -> (key, writable) :: field_keys rest

let to_params (Table (fields, _)) r = encode fields r
let keys (Table (fields, _)) = field_keys fields

let of_params (Table (fields, make)) params =
  try decode fields make params
  with Tp.Invalid msg -> Verror.error Verror.Rpc_failure "bad reply: %s" msg

type client_entry = {
  client_id : int64;
  client_transport : int;
  connected_since : int64;
}

(* ------------------------------------------------------------------ *)
(* Codecs and procedure table                                          *)
(* ------------------------------------------------------------------ *)

module Rp = Remote_protocol

let params = Xdr.codec Tp.encode Tp.decode
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
