module Verror = Ovirt_core.Verror
module Ap = Protocol.Admin_protocol
module Tp = Ovrpc.Typed_params
module Transport = Ovnet.Transport

type conn = { rpc : Rpc_client.t }
type server = { conn : conn; srv_name : string }

let ( let* ) = Result.bind

let connect ?(daemon = "ovirtd") ?identity () =
  let* rpc =
    Rpc_client.connect
      ~address:(daemon ^ "-admin-sock")
      ~kind:Transport.Unix_sock ~program:Ap.program ~version:Ap.version ?identity ()
  in
  let conn = { rpc } in
  (* Probe: a root-refused connection is closed server-side; surface that
     now rather than on the first real call. *)
  match
    Rpc_client.call rpc ~procedure:(Ap.proc_to_int Ap.Proc_list_servers) ~body:""
      ~timeout_s:5.0 ()
  with
  | Ok _ -> Ok conn
  | Error err ->
    Rpc_client.close rpc;
    if err.Verror.code = Verror.Rpc_failure then
      Verror.error Verror.Auth_failed
        "admin socket refused the connection (root only): %s" err.Verror.message
    else Error err

let close conn = Rpc_client.close conn.rpc

(* One procedure through its signature: the arguments encoded and the
   reply decoded by the codecs the daemon serves it with. *)
let rpc conn (s : (_, _) Ap.signature) args =
  let* reply =
    Rpc_client.call conn.rpc ~procedure:(Ap.proc_to_int s.Ap.sg_proc)
      ~body:(Xdr.encode s.Ap.sg_args args) ()
  in
  match Xdr.decode s.Ap.sg_ret reply with
  | v -> Ok v
  | exception Xdr.Error msg -> Verror.error Verror.Rpc_failure "bad reply: %s" msg
  | exception Tp.Invalid msg -> Verror.error Verror.Rpc_failure "bad reply: %s" msg

let daemon_uptime_s conn = rpc conn Ap.daemon_uptime ()
let drain conn = rpc conn Ap.daemon_drain ()
let reconcile_status conn = rpc conn Ap.daemon_reconcile_status ()
let fleet_status conn = rpc conn Ap.daemon_fleet_status ()

(* ------------------------------------------------------------------ *)
(* Servers                                                             *)
(* ------------------------------------------------------------------ *)

let list_servers conn = rpc conn Ap.list_servers ()

let lookup_server conn name =
  let* () = rpc conn Ap.lookup_server name in
  Ok { conn; srv_name = name }

let server_name srv = srv.srv_name

(* ------------------------------------------------------------------ *)
(* Workerpool                                                          *)
(* ------------------------------------------------------------------ *)

type threadpool_info = {
  tp_min_workers : int;
  tp_max_workers : int;
  tp_n_workers : int;
  tp_free_workers : int;
  tp_prio_workers : int;
  tp_job_queue_depth : int;
  tp_job_queue_limit : int;
  tp_wall_limit_ms : int;
}

type pool_stats = {
  ps_jobs_done : int;
  ps_jobs_failed : int;
  ps_jobs_shed : int;
  ps_jobs_expired : int;
  ps_workers_stuck : int;
  ps_workers_stuck_now : int;
  ps_job_queue_depth : int;
  ps_job_queue_limit : int;
  ps_wall_limit_ms : int;
}

let required params field =
  match Tp.find_uint params field with
  | Some v -> Ok v
  | None -> Verror.error Verror.Rpc_failure "reply lacks field %S" field

let threadpool_info srv =
  let* params = rpc srv.conn Ap.get_threadpool srv.srv_name in
  let* tp_min_workers = required params Ap.threadpool_workers_min in
  let* tp_max_workers = required params Ap.threadpool_workers_max in
  let* tp_n_workers = required params Ap.threadpool_workers_current in
  let* tp_free_workers = required params Ap.threadpool_workers_free in
  let* tp_prio_workers = required params Ap.threadpool_workers_priority in
  let* tp_job_queue_depth = required params Ap.threadpool_job_queue_depth in
  let* tp_job_queue_limit = required params Ap.threadpool_job_queue_limit in
  let* tp_wall_limit_ms = required params Ap.threadpool_wall_limit_ms in
  Ok
    {
      tp_min_workers;
      tp_max_workers;
      tp_n_workers;
      tp_free_workers;
      tp_prio_workers;
      tp_job_queue_depth;
      tp_job_queue_limit;
      tp_wall_limit_ms;
    }

let pool_stats srv =
  let* params = rpc srv.conn Ap.daemon_pool_stats srv.srv_name in
  let* ps_jobs_done = required params Ap.pool_jobs_done in
  let* ps_jobs_failed = required params Ap.pool_jobs_failed in
  let* ps_jobs_shed = required params Ap.pool_jobs_shed in
  let* ps_jobs_expired = required params Ap.pool_jobs_expired in
  let* ps_workers_stuck = required params Ap.pool_workers_stuck in
  let* ps_workers_stuck_now = required params Ap.pool_workers_stuck_now in
  let* ps_job_queue_depth = required params Ap.threadpool_job_queue_depth in
  let* ps_job_queue_limit = required params Ap.threadpool_job_queue_limit in
  let* ps_wall_limit_ms = required params Ap.threadpool_wall_limit_ms in
  Ok
    {
      ps_jobs_done;
      ps_jobs_failed;
      ps_jobs_shed;
      ps_jobs_expired;
      ps_workers_stuck;
      ps_workers_stuck_now;
      ps_job_queue_depth;
      ps_job_queue_limit;
      ps_wall_limit_ms;
    }

type event_stats = {
  es_rings : int;
  es_emitted : int;
  es_replayed : int;
  es_gapped : int;
  es_resumes : int;
  es_ring_occupancy : int;
  es_ring_capacity : int;
  es_subscribers : int;
  es_head_seq : int;
}

let event_stats conn =
  let* params = rpc conn Ap.daemon_event_stats () in
  let* es_rings = required params Ap.event_rings in
  let* es_emitted = required params Ap.event_emitted in
  let* es_replayed = required params Ap.event_replayed in
  let* es_gapped = required params Ap.event_gapped in
  let* es_resumes = required params Ap.event_resumes in
  let* es_ring_occupancy = required params Ap.event_ring_occupancy in
  let* es_ring_capacity = required params Ap.event_ring_capacity in
  let* es_subscribers = required params Ap.event_subscribers in
  let* es_head_seq = required params Ap.event_head_seq in
  Ok
    {
      es_rings;
      es_emitted;
      es_replayed;
      es_gapped;
      es_resumes;
      es_ring_occupancy;
      es_ring_capacity;
      es_subscribers;
      es_head_seq;
    }

type reply_cache_stats = {
  rc_caches : int;
  rc_hits : int;
  rc_misses : int;
  rc_insertions : int;
  rc_invalidations : int;
  rc_evictions : int;
  rc_patched_sends : int;
  rc_entries : int;
  rc_bytes : int;
  rc_enabled : bool;
}

let reply_cache_stats conn =
  let* params = rpc conn Ap.daemon_reply_cache_stats () in
  let* rc_caches = required params Ap.reply_cache_caches in
  let* rc_hits = required params Ap.reply_cache_hits in
  let* rc_misses = required params Ap.reply_cache_misses in
  let* rc_insertions = required params Ap.reply_cache_insertions in
  let* rc_invalidations = required params Ap.reply_cache_invalidations in
  let* rc_evictions = required params Ap.reply_cache_evictions in
  let* rc_patched_sends = required params Ap.reply_cache_patched_sends in
  let* rc_entries = required params Ap.reply_cache_entries in
  let* rc_bytes = required params Ap.reply_cache_bytes in
  let* enabled = required params Ap.reply_cache_enabled in
  Ok
    {
      rc_caches;
      rc_hits;
      rc_misses;
      rc_insertions;
      rc_invalidations;
      rc_evictions;
      rc_patched_sends;
      rc_entries;
      rc_bytes;
      rc_enabled = enabled <> 0;
    }

let set_threadpool_params srv params =
  rpc srv.conn Ap.set_threadpool (srv.srv_name, params)

let set_threadpool srv ?min_workers ?max_workers ?prio_workers ?job_queue_limit
    ?wall_limit_ms () =
  let params =
    List.filter_map Fun.id
      [
        Option.map (Tp.uint Ap.threadpool_workers_min) min_workers;
        Option.map (Tp.uint Ap.threadpool_workers_max) max_workers;
        Option.map (Tp.uint Ap.threadpool_workers_priority) prio_workers;
        Option.map (Tp.uint Ap.threadpool_job_queue_limit) job_queue_limit;
        Option.map (Tp.uint Ap.threadpool_wall_limit_ms) wall_limit_ms;
      ]
  in
  set_threadpool_params srv params

(* ------------------------------------------------------------------ *)
(* Client management                                                   *)
(* ------------------------------------------------------------------ *)

type client_info = {
  cl_id : int64;
  cl_transport : Transport.kind;
  cl_connected_since : int64;
}

type client_limits = {
  nclients_max : int;
  nclients_current : int;
  nclients_unauth_max : int;
  nclients_unauth_current : int;
}

let list_clients srv =
  let* entries = rpc srv.conn Ap.list_clients srv.srv_name in
  let kind_of n =
    match Transport.kind_of_int n with
    | Some kind -> Ok kind
    | None -> Verror.error Verror.Rpc_failure "unknown transport code %d" n
  in
  let rec build acc = function
    | [] -> Ok (List.rev acc)
    | e :: rest ->
      let* cl_transport = kind_of e.Ap.client_transport in
      build
        ({
           cl_id = e.Ap.client_id;
           cl_transport;
           cl_connected_since = e.Ap.connected_since;
         }
        :: acc)
        rest
  in
  build [] entries

let client_limits srv =
  let* params = rpc srv.conn Ap.get_client_limits srv.srv_name in
  let* nclients_max = required params Ap.server_clients_max in
  let* nclients_current = required params Ap.server_clients_current in
  let* nclients_unauth_max = required params Ap.server_clients_unauth_max in
  let* nclients_unauth_current = required params Ap.server_clients_unauth_current in
  Ok { nclients_max; nclients_current; nclients_unauth_max; nclients_unauth_current }

let set_client_limits_params srv params =
  rpc srv.conn Ap.set_client_limits (srv.srv_name, params)

let set_client_limits srv ?max_clients ?max_unauth () =
  let params =
    List.filter_map Fun.id
      [
        Option.map (Tp.uint Ap.server_clients_max) max_clients;
        Option.map (Tp.uint Ap.server_clients_unauth_max) max_unauth;
      ]
  in
  set_client_limits_params srv params

let client_identity srv id = rpc srv.conn Ap.get_client_info (srv.srv_name, id)
let client_disconnect srv id = rpc srv.conn Ap.client_close (srv.srv_name, id)

(* ------------------------------------------------------------------ *)
(* Logging                                                             *)
(* ------------------------------------------------------------------ *)

let get_logging_level conn =
  let* n = rpc conn Ap.get_log_level () in
  Result.map_error (Verror.make Verror.Rpc_failure) (Vlog.priority_of_int n)

let set_logging_level_raw conn n = rpc conn Ap.set_log_level n

let set_logging_level conn level =
  set_logging_level_raw conn (Vlog.priority_to_int level)

let get_logging_filters conn = rpc conn Ap.get_log_filters ()
let set_logging_filters conn filters = rpc conn Ap.set_log_filters filters
let get_logging_outputs conn = rpc conn Ap.get_log_outputs ()
let set_logging_outputs conn outputs = rpc conn Ap.set_log_outputs outputs
