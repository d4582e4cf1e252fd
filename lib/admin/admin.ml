module Verror = Ovirt_core.Verror
module Ap = Protocol.Admin_protocol
module Rp = Protocol.Remote_protocol
module Tp = Ovrpc.Typed_params
module Transport = Ovnet.Transport

type conn = { rpc : Rpc_client.t }
type server = { conn : conn; srv_name : string }

let ( let* ) = Result.bind

let connect ?(daemon = Rp.default_daemon) ?identity () =
  let* rpc =
    Rpc_client.connect ~address:(Rp.admin_address daemon)
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
(* Typed-parameter records                                             *)
(* ------------------------------------------------------------------ *)

include Protocol.Admin_records

(* A procedure whose reply is one record, decoded through its table. *)
let record conn s table args =
  let* params = rpc conn s args in
  Ap.of_params table params

let threadpool_info srv = record srv.conn Ap.get_threadpool Ap.threadpool_info srv.srv_name
let pool_stats srv = record srv.conn Ap.daemon_pool_stats Ap.pool_stats srv.srv_name
let client_limits srv = record srv.conn Ap.get_client_limits Ap.client_limits srv.srv_name
let event_stats conn = record conn Ap.daemon_event_stats Ap.event_stats ()

let reply_cache_stats conn =
  record conn Ap.daemon_reply_cache_stats Ap.reply_cache_stats ()

(* ------------------------------------------------------------------ *)
(* Workerpool                                                          *)
(* ------------------------------------------------------------------ *)

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
