module Verror = Ovirt_core.Verror
module Ap = Protocol.Admin_protocol
module Tp = Ovrpc.Typed_params
module Rpc_packet = Ovrpc.Rpc_packet
open Protocol.Admin_records

type daemon_view = {
  view_servers : unit -> (string * Server_obj.t) list;
  view_logger : Vlog.t;
  view_started_at : float;
  view_drain : unit -> unit;
  view_reconcile : unit -> Reconcile.t option;
  view_remote : Remote_service.t;
}

let ( let* ) = Result.bind

let find_server view name =
  match List.assoc_opt name (view.view_servers ()) with
  | Some srv -> Ok srv
  | None -> Verror.error Verror.No_server "no server named %S" name

(* Reject unknown and read-only fields on setters: silently ignoring a
   typo'd tunable is how misconfigurations survive.  The record's table
   says which of its keys are writable. *)
let check_fields table params =
  let keys = Ap.keys table in
  let rec go = function
    | [] -> Ok ()
    | (field, _) :: rest -> (
      match List.assoc_opt field keys with
      | Some true -> go rest
      | Some false -> Verror.error Verror.Invalid_arg "field %S is read-only" field
      | None -> Verror.error Verror.Invalid_arg "unknown field %S" field)
  in
  go params

let threadpool_info srv =
  let s = Threadpool.stats (Server_obj.pool srv) in
  Ap.to_params Ap.threadpool_info
    {
      tp_min_workers = s.min_workers;
      tp_max_workers = s.max_workers;
      tp_n_workers = s.n_workers;
      tp_free_workers = s.free_workers;
      tp_prio_workers = s.prio_workers;
      tp_job_queue_depth = s.job_queue_depth;
      tp_job_queue_limit = s.job_queue_limit;
      tp_wall_limit_ms = s.wall_limit_ms;
    }

let pool_stats srv =
  let s = Threadpool.stats (Server_obj.pool srv) in
  Ap.to_params Ap.pool_stats
    {
      ps_jobs_done = s.jobs_completed;
      ps_jobs_failed = s.jobs_failed;
      ps_jobs_shed = s.jobs_shed;
      ps_jobs_expired = s.jobs_expired;
      ps_workers_stuck = s.workers_stuck;
      ps_workers_stuck_now = s.workers_stuck_now;
      ps_job_queue_depth = s.job_queue_depth;
      ps_job_queue_limit = s.job_queue_limit;
      ps_wall_limit_ms = s.wall_limit_ms;
    }

let set_threadpool srv params =
  let* () = check_fields Ap.threadpool_info params in
  let min_workers = Tp.find_uint params Ap.threadpool_workers_min in
  let max_workers = Tp.find_uint params Ap.threadpool_workers_max in
  let prio_workers = Tp.find_uint params Ap.threadpool_workers_priority in
  let job_queue_limit = Tp.find_uint params Ap.threadpool_job_queue_limit in
  let wall_limit_ms = Tp.find_uint params Ap.threadpool_wall_limit_ms in
  if
    min_workers = None && max_workers = None && prio_workers = None
    && job_queue_limit = None && wall_limit_ms = None
  then Verror.error Verror.Invalid_arg "no tunable fields supplied"
  else
    match
      Threadpool.set_limits (Server_obj.pool srv) ?min_workers ?max_workers
        ?prio_workers ?job_queue_limit ?wall_limit_ms ()
    with
    | () -> Ok ()
    | exception Threadpool.Invalid_limits msg ->
      Error (Verror.make Verror.Invalid_arg msg)

let client_limits srv =
  let limits = Server_obj.limits srv in
  let total, unauth = Server_obj.client_counts srv in
  Ap.to_params Ap.client_limits
    {
      nclients_max = limits.max_clients;
      nclients_current = total;
      nclients_unauth_max = limits.max_anonymous;
      nclients_unauth_current = unauth;
    }

let set_client_limits srv params =
  let* () = check_fields Ap.client_limits params in
  let max_clients = Tp.find_uint params Ap.server_clients_max in
  let max_anonymous = Tp.find_uint params Ap.server_clients_unauth_max in
  if max_clients = None && max_anonymous = None then
    Verror.error Verror.Invalid_arg "no tunable fields supplied"
  else Server_obj.set_limits srv ?max_clients ?max_anonymous ()

(* Decode the arguments with the procedure's signature, run the handler,
   encode its result with the same signature. *)
let serve (s : (_, _) Ap.signature) body f =
  let* r = f (Xdr.decode s.Ap.sg_args body) in
  Ok (Xdr.encode s.Ap.sg_ret r)

(* One counter summed over every per-node structure that keeps it. *)
let sum f stats = List.fold_left (fun acc s -> acc + f s) 0 stats

let event_stats remote =
  let rings = Remote_service.event_stats remote in
  let total f = sum f rings in
  Ap.to_params Ap.event_stats
    {
      es_rings = List.length rings;
      es_emitted = total (fun s -> s.Eventring.er_emitted);
      es_replayed = total (fun s -> s.er_replayed);
      es_gapped = total (fun s -> s.er_gaps);
      es_resumes = total (fun s -> s.er_resumes);
      es_ring_occupancy = total (fun s -> s.er_occupancy);
      es_ring_capacity = total (fun s -> s.er_capacity);
      es_subscribers = total (fun s -> s.er_subscribers);
      es_head_seq = List.fold_left (fun acc s -> max acc s.Eventring.er_head) 0 rings;
    }

let reply_cache_stats remote =
  let caches = Remote_service.reply_cache_stats remote in
  let total f = sum f caches in
  Ap.to_params Ap.reply_cache_stats
    {
      rc_caches = List.length caches;
      rc_hits = total (fun s -> s.Reply_cache.hits);
      rc_misses = total (fun s -> s.misses);
      rc_insertions = total (fun s -> s.insertions);
      rc_invalidations = total (fun s -> s.invalidations);
      rc_evictions = total (fun s -> s.evictions);
      rc_patched_sends = total (fun s -> s.patched_sends);
      rc_entries = total (fun s -> s.entries);
      rc_bytes = total (fun s -> s.bytes);
      rc_enabled = Remote_service.reply_cache_enabled remote;
    }

let invalid_arg_of r = Result.map_error (Verror.make Verror.Invalid_arg) r

let handle view proc body =
  let logger = view.view_logger in
  let params_of s f =
    serve s body (fun server ->
        let* srv = find_server view server in
        Ok (f srv))
  in
  match proc with
  | Ap.Proc_list_servers ->
    serve Ap.list_servers body (fun () -> Ok (List.map fst (view.view_servers ())))
  | Ap.Proc_lookup_server ->
    serve Ap.lookup_server body (fun server ->
        let* _srv = find_server view server in
        Ok ())
  | Ap.Proc_get_threadpool -> params_of Ap.get_threadpool threadpool_info
  | Ap.Proc_set_threadpool ->
    serve Ap.set_threadpool body (fun (server, params) ->
        let* srv = find_server view server in
        let* () = set_threadpool srv params in
        Vlog.logf logger ~module_:"daemon.admin" Vlog.Info
          "threadpool limits of server %s changed" server;
        Ok ())
  | Ap.Proc_get_client_limits -> params_of Ap.get_client_limits client_limits
  | Ap.Proc_set_client_limits ->
    serve Ap.set_client_limits body (fun (server, params) ->
        let* srv = find_server view server in
        set_client_limits srv params)
  | Ap.Proc_list_clients ->
    params_of Ap.list_clients (fun srv ->
        Server_obj.list_clients srv
        |> List.map (fun client ->
               Ap.
                 {
                   client_id = Client_obj.id client;
                   client_transport =
                     Ovnet.Transport.kind_to_int
                       (Ovnet.Transport.kind (Client_obj.conn client));
                   connected_since =
                     Int64.of_float (Client_obj.connected_since client);
                 }))
  | Ap.Proc_get_client_info ->
    serve Ap.get_client_info body (fun (server, id) ->
        let* srv = find_server view server in
        let* client = Server_obj.find_client srv id in
        Ok (Client_obj.identity_params client))
  | Ap.Proc_client_close ->
    serve Ap.client_close body (fun (server, id) ->
        let* srv = find_server view server in
        let* client = Server_obj.find_client srv id in
        Client_obj.close client;
        Vlog.logf logger ~module_:"daemon.admin" Vlog.Info
          "client %Ld of server %s disconnected by administrator" id server;
        Ok ())
  | Ap.Proc_get_log_level ->
    serve Ap.get_log_level body (fun () ->
        Ok (Vlog.priority_to_int (Vlog.get_level logger)))
  | Ap.Proc_set_log_level ->
    serve Ap.set_log_level body (fun n ->
        let* level = invalid_arg_of (Vlog.priority_of_int n) in
        Vlog.set_level logger level;
        Ok ())
  | Ap.Proc_get_log_filters ->
    serve Ap.get_log_filters body (fun () ->
        Ok (Vlog.format_filters (Vlog.get_filters logger)))
  | Ap.Proc_set_log_filters ->
    serve Ap.set_log_filters body (fun text ->
        let* filters = invalid_arg_of (Vlog.parse_filters text) in
        Vlog.define_filters logger filters;
        Ok ())
  | Ap.Proc_get_log_outputs ->
    serve Ap.get_log_outputs body (fun () ->
        Ok (Vlog.format_outputs (Vlog.get_outputs logger)))
  | Ap.Proc_set_log_outputs ->
    serve Ap.set_log_outputs body (fun text ->
        let* outputs = invalid_arg_of (Vlog.parse_outputs text) in
        Vlog.define_outputs logger outputs;
        Ok ())
  | Ap.Proc_daemon_uptime ->
    serve Ap.daemon_uptime body (fun () ->
        Ok (Int64.of_float (Unix.gettimeofday () -. view.view_started_at)))
  | Ap.Proc_daemon_drain ->
    serve Ap.daemon_drain body (fun () ->
        Vlog.logf logger ~module_:"daemon.admin" Vlog.Info
          "daemon drain requested by administrator";
        view.view_drain ();
        Ok ())
  | Ap.Proc_daemon_pool_stats -> params_of Ap.daemon_pool_stats pool_stats
  | Ap.Proc_daemon_reconcile_status ->
    serve Ap.daemon_reconcile_status body (fun () ->
        match view.view_reconcile () with
        | None ->
          Verror.error Verror.Operation_unsupported "this daemon has no reconciler"
        | Some r -> Ok (Reconcile.status r))
  | Ap.Proc_daemon_event_stats ->
    serve Ap.daemon_event_stats body (fun () -> Ok (event_stats view.view_remote))
  | Ap.Proc_daemon_reply_cache_stats ->
    serve Ap.daemon_reply_cache_stats body (fun () ->
        Ok (reply_cache_stats view.view_remote))
  | Ap.Proc_daemon_fleet_status ->
    (* Every fleet hosted in this process. *)
    serve Ap.daemon_fleet_status body (fun () -> Ok (Ovirt_fleet.Fleet.statuses ()))

(* Every admin call is a pool job, an unknown procedure's error too. *)
let program view =
  let route _srv _client header body =
    let job priority run = Dispatch.Queue { priority; deadline = None; run } in
    match Ap.proc_of_int header.Rpc_packet.procedure with
    | Ok proc -> job (Ap.is_high_priority proc) (fun () -> handle view proc body)
    | Error msg -> job false (fun () -> Error (Verror.make Verror.Rpc_failure msg))
  in
  Dispatch.
    {
      prog_number = Ap.program;
      prog_version = Ap.version;
      route;
      on_disconnect = (fun _client -> ());
    }
