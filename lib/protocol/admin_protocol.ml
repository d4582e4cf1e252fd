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

let all_procedures =
  [|
    Proc_list_servers; Proc_lookup_server; Proc_get_threadpool;
    Proc_set_threadpool; Proc_get_client_limits; Proc_set_client_limits;
    Proc_list_clients; Proc_get_client_info; Proc_client_close;
    Proc_get_log_level; Proc_set_log_level; Proc_get_log_filters;
    Proc_set_log_filters; Proc_get_log_outputs; Proc_set_log_outputs;
    Proc_daemon_uptime;
    (* v1.1 additions: numbers are append-only *)
    Proc_daemon_drain;
    (* v1.2 additions *)
    Proc_daemon_pool_stats;
    (* v1.3 additions *)
    Proc_daemon_reconcile_status;
    (* v1.4 additions *)
    Proc_daemon_event_stats;
    (* v1.5 additions *)
    Proc_daemon_reply_cache_stats;
    (* v1.6 additions *)
    Proc_daemon_fleet_status;
  |]

let proc_index =
  let h = Hashtbl.create 32 in
  Array.iteri (fun i p -> Hashtbl.replace h p (i + 1)) all_procedures;
  h

let proc_to_int proc = Hashtbl.find proc_index proc

let proc_of_int n =
  if n >= 1 && n <= Array.length all_procedures then Ok all_procedures.(n - 1)
  else Error (Printf.sprintf "unknown admin procedure %d" n)

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
(* Body codecs                                                         *)
(* ------------------------------------------------------------------ *)

let enc_server_name name = Xdr.encode Xdr.enc_string name
let dec_server_name body = Xdr.decode Xdr.dec_string body

let enc_server_params ~server params =
  Xdr.encode
    (fun e () ->
      Xdr.enc_string e server;
      Ovrpc.Typed_params.encode e params)
    ()

let dec_server_params body =
  Xdr.decode
    (fun d ->
      let server = Xdr.dec_string d in
      let params = Ovrpc.Typed_params.decode d in
      (server, params))
    body

let enc_params params = Xdr.encode Ovrpc.Typed_params.encode params
let dec_params body = Xdr.decode Ovrpc.Typed_params.decode body

let enc_client_ref ~server ~id =
  Xdr.encode
    (fun e () ->
      Xdr.enc_string e server;
      Xdr.enc_uhyper e id)
    ()

let dec_client_ref body =
  Xdr.decode
    (fun d ->
      let server = Xdr.dec_string d in
      let id = Xdr.dec_uhyper d in
      (server, id))
    body

let enc_client_entry e entry =
  Xdr.enc_uhyper e entry.client_id;
  Xdr.enc_int e entry.client_transport;
  Xdr.enc_hyper e entry.connected_since

let dec_client_entry d =
  let client_id = Xdr.dec_uhyper d in
  let client_transport = Xdr.dec_int d in
  let connected_since = Xdr.dec_hyper d in
  { client_id; client_transport; connected_since }

let enc_client_list l = Xdr.encode (fun e -> Xdr.enc_array e enc_client_entry) l
let dec_client_list body = Xdr.decode (fun d -> Xdr.dec_array d dec_client_entry) body

let enc_uint_body n = Xdr.encode Xdr.enc_uint n
let dec_uint_body body = Xdr.decode Xdr.dec_uint body
let enc_hyper_body n = Xdr.encode Xdr.enc_hyper n
let dec_hyper_body body = Xdr.decode Xdr.dec_hyper body

(* v1.6: every fleet hosted by the daemon's process, each status encoded
   with the remote program's codec (one wire format for fleet health). *)
let enc_fleet_statuses l =
  Xdr.encode
    (fun e ->
      Xdr.enc_array e (fun e s ->
          Xdr.enc_string e (Remote_protocol.enc_fleet_status s)))
    l

let dec_fleet_statuses body =
  Xdr.decode
    (fun d ->
      Xdr.dec_array d (fun d -> Remote_protocol.dec_fleet_status (Xdr.dec_string d)))
    body
