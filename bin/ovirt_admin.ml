(* ovirt-admin: the virt-admin-like daemon administration shell.
   Usage:  ovirt-admin [-d daemon-name] [-e] [command [args...]]
   The simulated network lives in-process, so -d expects a daemon started
   by this process (as in ovirtd_demo); with -e an embedded demo daemon
   named "ovirtd" is started first, with a few clients connected, so the
   binary is explorable standalone. *)

module Ap = Protocol.Admin_protocol
module Rp = Protocol.Remote_protocol

let ( let* ) = Result.bind
let verr r = Result.map_error Ovirt.Verror.to_string r

type shell = { mutable conn : Ovirt.Admin_client.conn option; daemon : string }

let require_conn shell =
  match shell.conn with
  | Some conn -> Ok conn
  | None ->
    let* conn = verr (Ovirt.Admin_client.connect ~daemon:shell.daemon ()) in
    shell.conn <- Some conn;
    Ok conn

let one_positional args what =
  match args.Ovcli.positional with
  | [ v ] -> Ok v
  | _ -> Error (Printf.sprintf "expected exactly one argument: %s" what)

let server shell name =
  let* conn = require_conn shell in
  verr (Ovirt.Admin_client.lookup_server conn name)

(* One "key: value" line per typed parameter, keys padded to the longest
   (at least 15 columns, as virt-admin prints them). *)
let show_params params =
  let width = List.fold_left (fun w (field, _) -> max w (String.length field)) 15 params in
  params
  |> List.map (fun (field, value) ->
         let text =
           match value with
           | Ovrpc.Typed_params.P_int n | Ovrpc.Typed_params.P_uint n -> string_of_int n
           | Ovrpc.Typed_params.P_llong n | Ovrpc.Typed_params.P_ullong n ->
             Int64.to_string n
           | Ovrpc.Typed_params.P_double f -> string_of_float f
           | Ovrpc.Typed_params.P_bool b -> if b then "yes" else "no"
           | Ovrpc.Typed_params.P_string s -> s
         in
         Printf.sprintf "%-*s: %s" width field text)
  |> String.concat "\n"

(* A typed-parameter record, printed by the table it was decoded with. *)
let show table record = Ok (show_params (Ap.to_params table record))

let format_timestamp seconds =
  let tm = Unix.gmtime (Int64.to_float seconds) in
  Printf.sprintf "%04d-%02d-%02d %02d:%02d:%02d+0000" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let commands shell =
  let simple name group args_help summary handler =
    Ovcli.{ name; group; args_help; summary; handler }
  in
  [
    simple "uri" "Connection" "" "print the admin connection target" (fun _ ->
        Ok (Rp.admin_address shell.daemon));
    simple "uptime" "Monitoring commands" "" "daemon uptime in seconds" (fun _ ->
        let* conn = require_conn shell in
        let* seconds = verr (Ovirt.Admin_client.daemon_uptime_s conn) in
        Ok (Printf.sprintf "%Ld s" seconds));
    simple "srv-list" "Monitoring commands" "" "list available servers on the daemon"
      (fun _ ->
        let* conn = require_conn shell in
        let* servers = verr (Ovirt.Admin_client.list_servers conn) in
        let buf = Buffer.create 64 in
        Buffer.add_string buf " Id   Name\n---------------\n";
        List.iteri
          (fun i name -> Buffer.add_string buf (Printf.sprintf " %-4d %s\n" i name))
          servers;
        Ok (Buffer.contents buf));
    simple "srv-threadpool-info" "Monitoring commands" "<server>"
      "get server workerpool parameters" (fun args ->
        let* name = one_positional args "<server>" in
        let* srv = server shell name in
        let* tp = verr (Ovirt.Admin_client.threadpool_info srv) in
        show Ap.threadpool_info tp);
    simple "pool-stats" "Monitoring commands" "<server>"
      "overload counters: shed/expired jobs, stuck workers, live limits"
      (fun args ->
        let* name = one_positional args "<server>" in
        let* srv = server shell name in
        let* ps = verr (Ovirt.Admin_client.pool_stats srv) in
        show Ap.pool_stats ps);
    simple "event-stats" "Monitoring commands" ""
      "event replay-ring counters: emitted/replayed/gapped, resumes, occupancy"
      (fun _ ->
        let* conn = require_conn shell in
        let* es = verr (Ovirt.Admin_client.event_stats conn) in
        show Ap.event_stats es);
    simple "reply-cache-stats" "Monitoring commands" ""
      "reply-cache counters: hits/misses, invalidations, evictions, bytes"
      (fun _ ->
        let* conn = require_conn shell in
        let* rc = verr (Ovirt.Admin_client.reply_cache_stats conn) in
        show Ap.reply_cache_stats rc);
    simple "fleet-status" "Monitoring commands" ""
      "federated control plane: member health, probes, migration totals"
      (fun _ ->
        let* conn = require_conn shell in
        let* fleets = verr (Ovirt.Admin_client.fleet_status conn) in
        if fleets = [] then Ok "no fleets hosted by this daemon"
        else begin
          let buf = Buffer.create 256 in
          List.iter
            (fun fs ->
              Buffer.add_string buf
                (Printf.sprintf
                   "fleet %s: %d member%s  migrations active: %d  recovered: \
                    %d  rolled back: %d\n"
                   fs.Ovirt.Driver.fs_fleet
                   (List.length fs.Ovirt.Driver.fs_members)
                   (if List.length fs.Ovirt.Driver.fs_members = 1 then ""
                    else "s")
                   fs.Ovirt.Driver.fs_migrations_active
                   fs.Ovirt.Driver.fs_migrations_recovered
                   fs.Ovirt.Driver.fs_migrations_rolled_back);
              Buffer.add_string buf
                (Printf.sprintf " %-20s %-10s %-8s %-9s %s\n" "Member" "Health"
                   "Probes" "Failures" "Domains");
              List.iter
                (fun m ->
                  Buffer.add_string buf
                    (Printf.sprintf " %-20s %-10s %-8d %-9d %s\n"
                       m.Ovirt.Driver.ms_name
                       (Ovirt.Driver.member_health_name m.Ovirt.Driver.ms_health)
                       m.Ovirt.Driver.ms_probes m.Ovirt.Driver.ms_failures
                       (if m.Ovirt.Driver.ms_domains < 0 then "-"
                        else string_of_int m.Ovirt.Driver.ms_domains)))
                fs.Ovirt.Driver.fs_members)
            fleets;
          Ok (Buffer.contents buf)
        end);
    simple "reconcile-status" "Monitoring commands" ""
      "reconciler convergence: declared specs vs actual fleet state"
      (fun _ ->
        let* conn = require_conn shell in
        let* summary, rows = verr (Ovirt.Admin_client.reconcile_status conn) in
        let buf = Buffer.create 256 in
        Buffer.add_string buf
          (Printf.sprintf
             "specs: %d  converged: %d  pending: %d  diverged: %d\n"
             summary.Ovirt.Reconcile.sum_specs
             summary.Ovirt.Reconcile.sum_converged
             summary.Ovirt.Reconcile.sum_pending
             summary.Ovirt.Reconcile.sum_diverged);
        Buffer.add_string buf
          (Printf.sprintf
             "plans: %d  ops applied: %d  skipped: %d  failed: %d%s\n"
             summary.Ovirt.Reconcile.sum_plans
             summary.Ovirt.Reconcile.sum_ops_applied
             summary.Ovirt.Reconcile.sum_ops_skipped
             summary.Ovirt.Reconcile.sum_ops_failed
             (if summary.Ovirt.Reconcile.sum_resumed then
                "  (resumed an interrupted plan)"
              else ""));
        if rows <> [] then begin
          Buffer.add_string buf
            (Printf.sprintf " %-20s %-10s %-8s %s\n" "Name" "Status" "Attempts"
               "Policy");
          List.iter
            (fun r ->
              Buffer.add_string buf
                (Printf.sprintf " %-20s %-10s %-8d %s%s\n"
                   r.Ovirt.Reconcile.ds_name
                   (Ovirt.Reconcile.status_name r.Ovirt.Reconcile.ds_status)
                   r.Ovirt.Reconcile.ds_attempts
                   (Ovirt.Dompolicy.to_string r.Ovirt.Reconcile.ds_policy)
                   (if r.Ovirt.Reconcile.ds_last_error = "" then ""
                    else " [" ^ r.Ovirt.Reconcile.ds_last_error ^ "]")))
            rows
        end;
        Ok (Buffer.contents buf));
    simple "pool-set" "Management commands"
      "<server> [--queue-limit N] [--wall-limit-ms N]"
      "tune overload protection: admission bound and stuck-worker wall limit"
      (fun args ->
        let* name = one_positional args "<server>" in
        let* srv = server shell name in
        let* job_queue_limit = Ovcli.int_flag args "queue-limit" in
        let* wall_limit_ms = Ovcli.int_flag args "wall-limit-ms" in
        let* () =
          verr
            (Ovirt.Admin_client.set_threadpool srv ?job_queue_limit ?wall_limit_ms
               ())
        in
        Ok "overload parameters updated");
    simple "srv-threadpool-set" "Management commands"
      "<server> [--min-workers N] [--max-workers N] [--prio-workers N]"
      "set server workerpool parameters" (fun args ->
        let* name = one_positional args "<server>" in
        let* srv = server shell name in
        let* min_workers = Ovcli.int_flag args "min-workers" in
        let* max_workers = Ovcli.int_flag args "max-workers" in
        let* prio_workers = Ovcli.int_flag args "prio-workers" in
        let* () =
          verr
            (Ovirt.Admin_client.set_threadpool srv ?min_workers ?max_workers
               ?prio_workers ())
        in
        Ok "threadpool parameters updated");
    simple "srv-clients-info" "Monitoring commands" "<server>"
      "get server client-processing controls" (fun args ->
        let* name = one_positional args "<server>" in
        let* srv = server shell name in
        let* cl = verr (Ovirt.Admin_client.client_limits srv) in
        show Ap.client_limits cl);
    simple "srv-clients-set" "Management commands"
      "<server> [--max-clients N] [--max-unauth-clients N]"
      "set server client-processing controls" (fun args ->
        let* name = one_positional args "<server>" in
        let* srv = server shell name in
        let* max_clients = Ovcli.int_flag args "max-clients" in
        let* max_unauth = Ovcli.int_flag args "max-unauth-clients" in
        let* () =
          verr (Ovirt.Admin_client.set_client_limits srv ?max_clients ?max_unauth ())
        in
        Ok "client limits updated");
    simple "srv-clients-list" "Monitoring commands" "<server>"
      "list clients connected to a server" (fun args ->
        let* name = one_positional args "<server>" in
        let* srv = server shell name in
        let* clients = verr (Ovirt.Admin_client.list_clients srv) in
        let buf = Buffer.create 128 in
        Buffer.add_string buf
          (Printf.sprintf " %-5s %-10s %s\n" "Id" "Transport" "Connected since");
        Buffer.add_string buf "--------------------------------------------\n";
        List.iter
          (fun c ->
            Buffer.add_string buf
              (Printf.sprintf " %-5Ld %-10s %s\n" c.Ovirt.Admin_client.cl_id
                 (Ovnet.Transport.kind_name c.Ovirt.Admin_client.cl_transport)
                 (format_timestamp c.Ovirt.Admin_client.cl_connected_since)))
          clients;
        Ok (Buffer.contents buf));
    simple "client-info" "Monitoring commands" "<id> --server <server>"
      "retrieve a client's identity from a server" (fun args ->
        let* id_str = one_positional args "<id>" in
        let* id =
          match Int64.of_string_opt id_str with
          | Some id -> Ok id
          | None -> Error "client id must be an integer"
        in
        let* server_name =
          match Ovcli.flag args "server" with
          | Some s -> Ok s
          | None -> Error "--server <server> is required"
        in
        let* srv = server shell server_name in
        let* params = verr (Ovirt.Admin_client.client_identity srv id) in
        Ok (show_params params));
    simple "client-disconnect" "Management commands" "<id> --server <server>"
      "forcefully disconnect a client" (fun args ->
        let* id_str = one_positional args "<id>" in
        let* id =
          match Int64.of_string_opt id_str with
          | Some id -> Ok id
          | None -> Error "client id must be an integer"
        in
        let* server_name =
          match Ovcli.flag args "server" with
          | Some s -> Ok s
          | None -> Error "--server <server> is required"
        in
        let* srv = server shell server_name in
        let* () = verr (Ovirt.Admin_client.client_disconnect srv id) in
        Ok (Printf.sprintf "client %Ld disconnected from %s" id server_name));
    simple "dmn-drain" "Management commands" ""
      "gracefully shut the daemon down (finish in-flight work, then stop)"
      (fun _ ->
        let* conn = require_conn shell in
        let* () = verr (Ovirt.Admin_client.drain conn) in
        shell.conn <- None;
        Ok "daemon draining: new connections refused, in-flight work finishing");
    simple "dmn-log-info" "Monitoring commands" "" "view daemon logging settings"
      (fun _ ->
        let* conn = require_conn shell in
        let* level = verr (Ovirt.Admin_client.get_logging_level conn) in
        let* filters = verr (Ovirt.Admin_client.get_logging_filters conn) in
        let* outputs = verr (Ovirt.Admin_client.get_logging_outputs conn) in
        Ok
          (String.concat "\n"
             [
               "Logging level: " ^ Vlog.priority_name level;
               "Logging filters: " ^ filters;
               "Logging outputs: " ^ outputs;
             ]));
    simple "dmn-log-define" "Management commands"
      "[--level N] [--filters \"...\"] [--outputs \"...\"]"
      "change daemon logging settings" (fun args ->
        let* conn = require_conn shell in
        let* level = Ovcli.int_flag args "level" in
        let* () =
          match level with
          | None -> Ok ()
          | Some n -> verr (Ovirt.Admin_client.set_logging_level_raw conn n)
        in
        let* () =
          match Ovcli.flag args "filters" with
          | None -> Ok ()
          | Some filters -> verr (Ovirt.Admin_client.set_logging_filters conn filters)
        in
        let* () =
          match Ovcli.flag args "outputs" with
          | None -> Ok ()
          | Some outputs -> verr (Ovirt.Admin_client.set_logging_outputs conn outputs)
        in
        Ok "logging settings updated");
  ]

let start_embedded_daemon () =
  let daemon = Ovirt.Daemon.start ~name:Rp.default_daemon () in
  (* A few clients so the monitoring commands have something to show. *)
  let open_client transport =
    match
      Ovirt.Connect.open_uri (Printf.sprintf "test+%s:///default" transport)
    with
    | Ok conn -> Some conn
    | Error _ -> None
  in
  let clients = List.filter_map open_client [ "unix"; "tls"; "tcp" ] in
  Printf.printf "embedded daemon %S started with %d demo clients\n\n" Rp.default_daemon
    (List.length clients);
  daemon

let () =
  let argv = Array.to_list Sys.argv in
  let daemon, embedded, rest =
    match argv with
    | _ :: "-d" :: name :: rest -> (name, false, rest)
    | _ :: "-e" :: rest -> (Rp.default_daemon, true, rest)
    | _ :: rest -> (Rp.default_daemon, false, rest)
    | [] -> (Rp.default_daemon, false, [])
  in
  let _embedded_daemon = if embedded then Some (start_embedded_daemon ()) else None in
  let shell = { conn = None; daemon } in
  let commands = commands shell in
  match rest with
  | [] ->
    print_endline "Welcome to ovirt-admin, the daemon administration shell.";
    print_endline "Type 'help' for a command list, 'quit' to leave.\n";
    Ovcli.repl ~commands ~program:"ovirt-admin" ~prompt:"ovirt-admin # " stdin stdout
  | tokens ->
    (match Ovcli.run_one ~commands ~program:"ovirt-admin" tokens with
     | Ok text ->
       print_endline text;
       exit 0
     | Error msg ->
       Printf.eprintf "error: %s\n" msg;
       exit 1)
