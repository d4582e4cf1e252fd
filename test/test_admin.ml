(* Administration interface: server enumeration, workerpool tuning,
   client limits/identity/disconnect, logging control — plus the
   equivalence-partitioning combinational suites (T1-T4) covering the
   setter input domains, mirroring the published test design for this
   interface. *)

open Testutil
module Verror = Ovirt.Verror
module Connect = Ovirt.Connect
module Admin = Ovirt.Admin_client
module Daemon = Ovirt.Daemon
module Daemon_config = Ovirt.Daemon_config
module Tp = Ovrpc.Typed_params
module Ap = Protocol.Admin_protocol
module Transport = Ovnet.Transport

let () = Ovirt.initialize ()

let quiet_config =
  {
    Daemon_config.default with
    Daemon_config.log_outputs = [ { Vlog.min_priority = Vlog.Debug; sink = Vlog.Null } ];
  }

let with_admin ?(config = quiet_config) f =
  let name = fresh_name "admd" in
  let daemon = Daemon.start ~name ~config () in
  Fun.protect
    ~finally:(fun () -> Daemon.stop daemon)
    (fun () ->
      let admin = vok (Admin.connect ~daemon:name ()) in
      Fun.protect ~finally:(fun () -> Admin.close admin) (fun () -> f name daemon admin))

(* --- basics -------------------------------------------------------------- *)

let test_root_only () =
  with_admin (fun name _ _ ->
      let identity =
        Transport.{ uid = 1000; gid = 1000; pid = 5; username = "eve"; groupname = "eve" }
      in
      match Admin.connect ~daemon:name ~identity () with
      | Error e ->
        Alcotest.(check bool) "refused" true
          (e.Verror.code = Verror.Auth_failed || e.Verror.code = Verror.Rpc_failure)
      | Ok _ -> Alcotest.fail "non-root admin connection accepted")

let test_list_servers () =
  with_admin (fun _ _ admin ->
      Alcotest.(check (list string)) "both servers" [ "libvirtd"; "admin" ]
        (vok (Admin.list_servers admin));
      let srv = vok (Admin.lookup_server admin "libvirtd") in
      Alcotest.(check string) "name" "libvirtd" (Admin.server_name srv);
      expect_verr Verror.No_server (Admin.lookup_server admin "nonexistent"))

let test_uptime () =
  with_admin (fun _ _ admin ->
      let up = vok (Admin.daemon_uptime_s admin) in
      Alcotest.(check bool) "non-negative" true (up >= 0L))

(* --- workerpool ----------------------------------------------------------- *)

let test_threadpool_info_matches_config () =
  with_admin (fun _ _ admin ->
      let srv = vok (Admin.lookup_server admin "libvirtd") in
      let tp = vok (Admin.threadpool_info srv) in
      Alcotest.(check int) "min" 5 tp.Admin.tp_min_workers;
      Alcotest.(check int) "max" 20 tp.Admin.tp_max_workers;
      Alcotest.(check int) "current at min" 5 tp.Admin.tp_n_workers;
      Alcotest.(check int) "prio" 5 tp.Admin.tp_prio_workers;
      Alcotest.(check int) "queue empty" 0 tp.Admin.tp_job_queue_depth)

let test_threadpool_resize_applies () =
  with_admin (fun _ daemon admin ->
      let srv = vok (Admin.lookup_server admin "libvirtd") in
      vok (Admin.set_threadpool srv ~min_workers:8 ~max_workers:32 ~prio_workers:3 ());
      let tp = vok (Admin.threadpool_info srv) in
      Alcotest.(check int) "max updated" 32 tp.Admin.tp_max_workers;
      Alcotest.(check int) "min updated" 8 tp.Admin.tp_min_workers;
      (* The real pool grew to the new minimum. *)
      let pool =
        Ovirt.Server_obj.pool (Option.get (Daemon.find_server daemon "libvirtd"))
      in
      let grew = eventually (fun () -> (Threadpool.stats pool).Threadpool.n_workers >= 8) in
      Alcotest.(check bool) "workers spawned" true grew;
      let prio_ok =
        eventually (fun () -> (Threadpool.stats pool).Threadpool.prio_workers = 3)
      in
      Alcotest.(check bool) "prio adjusted" true prio_ok)

let test_threadpool_partial_update () =
  with_admin (fun _ _ admin ->
      let srv = vok (Admin.lookup_server admin "libvirtd") in
      vok (Admin.set_threadpool srv ~max_workers:25 ());
      let tp = vok (Admin.threadpool_info srv) in
      Alcotest.(check int) "max changed" 25 tp.Admin.tp_max_workers;
      Alcotest.(check int) "min untouched" 5 tp.Admin.tp_min_workers)

(* --- client management ----------------------------------------------------- *)

let mgmt_uri ~daemon ?(transport = "unix") () =
  Printf.sprintf "test+%s://%s/?daemon=%s" transport (fresh_name "n") daemon

let test_client_listing_and_identity () =
  with_admin (fun daemon _ admin ->
      let c_unix = vok (Connect.open_uri (mgmt_uri ~daemon ())) in
      let c_tls = vok (Connect.open_uri (mgmt_uri ~daemon ~transport:"tls" ())) in
      let srv = vok (Admin.lookup_server admin "libvirtd") in
      let clients = vok (Admin.list_clients srv) in
      Alcotest.(check int) "two clients" 2 (List.length clients);
      let kinds = List.map (fun c -> c.Admin.cl_transport) clients in
      Alcotest.(check bool) "one unix one tls" true
        (List.mem Transport.Unix_sock kinds && List.mem Transport.Tls kinds);
      (* Identity of the unix client carries credentials; tls carries an
         address and a certificate name. *)
      let unix_client =
        List.find (fun c -> c.Admin.cl_transport = Transport.Unix_sock) clients
      in
      let params = vok (Admin.client_identity srv unix_client.Admin.cl_id) in
      Alcotest.(check (option string)) "username" (Some "root")
        (Tp.find_string params Ap.client_info_unix_user_name);
      Alcotest.(check (option bool)) "readonly flag" (Some false)
        (Tp.find_bool params Ap.client_info_readonly);
      (* activity tracking: a call moves last_activity forward *)
      let activity params =
        match List.assoc_opt "last_activity" params with
        | Some (Tp.P_llong t) -> t
        | _ -> Alcotest.fail "last_activity missing"
      in
      let before = activity params in
      Thread.delay 1.1;
      ignore (vok (Connect.list_domains c_unix));
      let params' = vok (Admin.client_identity srv unix_client.Admin.cl_id) in
      Alcotest.(check bool) "activity advanced" true (activity params' > before);
      let tls_client =
        List.find (fun c -> c.Admin.cl_transport = Transport.Tls) clients
      in
      let tparams = vok (Admin.client_identity srv tls_client.Admin.cl_id) in
      Alcotest.(check bool) "sock addr present" true
        (Tp.find_string tparams Ap.client_info_sock_addr <> None);
      Alcotest.(check bool) "x509 dname present" true
        (Tp.find_string tparams Ap.client_info_x509_dname <> None);
      Connect.close c_unix;
      Connect.close c_tls)

let test_client_limits_roundtrip () =
  with_admin (fun daemon _ admin ->
      let srv = vok (Admin.lookup_server admin "libvirtd") in
      let limits = vok (Admin.client_limits srv) in
      Alcotest.(check int) "default max" 120 limits.Admin.nclients_max;
      Alcotest.(check int) "none connected" 0 limits.Admin.nclients_current;
      let conn = vok (Connect.open_uri (mgmt_uri ~daemon ())) in
      let limits2 = vok (Admin.client_limits srv) in
      Alcotest.(check int) "one connected" 1 limits2.Admin.nclients_current;
      vok (Admin.set_client_limits srv ~max_clients:150 ~max_unauth:30 ());
      let limits3 = vok (Admin.client_limits srv) in
      Alcotest.(check int) "max raised" 150 limits3.Admin.nclients_max;
      Alcotest.(check int) "unauth raised" 30 limits3.Admin.nclients_unauth_max;
      Connect.close conn)

let test_client_disconnect () =
  with_admin (fun daemon _ admin ->
      let conn = vok (Connect.open_uri (mgmt_uri ~daemon ())) in
      Alcotest.(check bool) "client works" true
        (Result.is_ok (Connect.list_domains conn));
      let srv = vok (Admin.lookup_server admin "libvirtd") in
      let victim = List.hd (vok (Admin.list_clients srv)) in
      vok (Admin.client_disconnect srv victim.Admin.cl_id);
      let dead =
        eventually (fun () ->
            match Connect.list_domains conn with Error _ -> true | Ok _ -> false)
      in
      Alcotest.(check bool) "victim's calls fail" true dead;
      expect_verr Verror.No_client (Admin.client_disconnect srv victim.Admin.cl_id))

let test_client_info_unknown_id () =
  with_admin (fun _ _ admin ->
      let srv = vok (Admin.lookup_server admin "libvirtd") in
      expect_verr Verror.No_client (Admin.client_identity srv 424242L))

(* --- logging ---------------------------------------------------------------- *)

let test_logging_level_roundtrip () =
  with_admin (fun _ _ admin ->
      Alcotest.(check bool) "default error" true
        (vok (Admin.get_logging_level admin) = Vlog.Error);
      vok (Admin.set_logging_level admin Vlog.Debug);
      Alcotest.(check bool) "now debug" true
        (vok (Admin.get_logging_level admin) = Vlog.Debug))

let test_logging_filters_roundtrip () =
  with_admin (fun _ _ admin ->
      Alcotest.(check string) "empty initially" "" (vok (Admin.get_logging_filters admin));
      vok (Admin.set_logging_filters admin "3:util.object 4:rpc");
      Alcotest.(check string) "defined" "3:util.object 4:rpc"
        (vok (Admin.get_logging_filters admin));
      vok (Admin.set_logging_filters admin "");
      Alcotest.(check string) "cleared" "" (vok (Admin.get_logging_filters admin)))

let test_logging_outputs_roundtrip () =
  with_admin (fun _ daemon admin ->
      ignore daemon;
      vok (Admin.set_logging_outputs admin "1:file:/var/log/a.log 3:syslog:ovirtd");
      Alcotest.(check string) "defined" "1:file:/var/log/a.log 3:syslog:ovirtd"
        (vok (Admin.get_logging_outputs admin)))

let test_logging_changes_take_effect () =
  with_admin (fun _ daemon admin ->
      let logger = Daemon.logger daemon in
      vok (Admin.set_logging_level admin Vlog.Debug);
      vok (Admin.set_logging_outputs admin "1:file:/var/log/live.log");
      Vlog.logf logger ~module_:"probe" Vlog.Debug "probe line";
      Alcotest.(check bool) "line landed in the new output" true
        (String.length (Vlog.file_contents logger "/var/log/live.log") > 0))

(* ------------------------------------------------------------------------- *)
(* Equivalence-partitioning combinational suites.

   Notation follows the published design: connection classes A (active),
   B (closed), C (null — unrepresentable here, covered by B); parameter
   classes are numbered per table.  Each invalid class gets its own test
   case; valid classes combine into the success cases. *)
(* ------------------------------------------------------------------------- *)

(* T1: virAdmConnectSetLoggingLevel — level range 1-4 valid, <1 / >4 invalid. *)
let t1_cases = [ (`A, 1); (`A, 0); (`A, 5); (`B, 1) ]

let test_t1_logging_level () =
  with_admin (fun name _ admin ->
      List.iter
        (fun (conn_class, level) ->
          match conn_class with
          | `A ->
            let result = Admin.set_logging_level_raw admin level in
            if level >= 1 && level <= 4 then vok result
            else expect_verr Verror.Invalid_arg result
          | `B ->
            let closed = vok (Admin.connect ~daemon:name ()) in
            Admin.close closed;
            expect_verr Verror.Rpc_failure
              (Admin.set_logging_level_raw closed level))
        t1_cases)

(* T2: virAdmConnectSetLoggingFilters — the input characteristic classes:
   empty string (valid, clears), NULL (unrepresentable), no level prefix,
   level out of range (both sides), missing colon, empty match string,
   single filter, multiple space-delimited filters. *)
let t2_cases =
  [
    ("", true);
    ("3:util.object", true);
    ("3:util.object 4:rpc 1:event", true);
    ("util.object", false);
    ("x:util.object", false);
    ("0:util.object", false);
    ("5:util.object", false);
    ("3:", false);
    ("3:a 9:b", false);
  ]

let test_t2_logging_filters () =
  with_admin (fun name _ admin ->
      List.iter
        (fun (filters, valid) ->
          let result = Admin.set_logging_filters admin filters in
          if valid then vok result else expect_verr Verror.Invalid_arg result)
        t2_cases;
      (* closed-connection classes for the two valid shapes *)
      let closed = vok (Admin.connect ~daemon:name ()) in
      Admin.close closed;
      expect_verr Verror.Rpc_failure (Admin.set_logging_filters closed "3:a");
      expect_verr Verror.Rpc_failure (Admin.set_logging_filters closed "3:a 4:b"))

(* T3: virAdmConnectSetLoggingOutputs — adds output-kind and
   additional-data characteristics on top of T2's. *)
let t3_cases =
  [
    ("", true);
    ("2:stderr", true);
    ("1:file:/var/log/d.log", true);
    ("3:syslog:ovirtd", true);
    ("4:journald", true);
    ("1:file:/var/log/a.log 3:syslog:x 2:stderr", true);
    ("stderr", false);
    ("x:stderr", false);
    ("0:stderr", false);
    ("9:stderr", false);
    ("1:randomsink", false);
    ("1:file", false);
    ("1:file:relative", false);
    ("1:syslog", false);
    ("1:stderr:extra", false);
    ("1:journald:extra", false);
  ]

let test_t3_logging_outputs () =
  with_admin (fun _ _ admin ->
      List.iter
        (fun (outputs, valid) ->
          let result = Admin.set_logging_outputs admin outputs in
          if valid then vok result else expect_verr Verror.Invalid_arg result)
        t3_cases)

(* T4: virAdmServerSetThreadPoolParameters — server object classes
   (J valid, K closed connection, L unknown server), params classes
   (valid fields / unknown field / wrong type / read-only field /
   min>max inconsistency), nparams empty. *)
let test_t4_threadpool_params () =
  with_admin (fun name _ admin ->
      let srv = vok (Admin.lookup_server admin "libvirtd") in
      (* (J, valid, a) *)
      vok
        (Admin.set_threadpool_params srv
           [ Tp.uint Ap.threadpool_workers_min 2; Tp.uint Ap.threadpool_workers_max 30 ]);
      (* (J, unknown field, a) *)
      expect_verr Verror.Invalid_arg
        (Admin.set_threadpool_params srv [ Tp.uint "randomField" 1 ]);
      (* (J, wrong type, a) *)
      expect_verr Verror.Rpc_failure
        (Admin.set_threadpool_params srv
           [ Tp.string Ap.threadpool_workers_max "twenty" ]);
      (* (J, read-only field, a) *)
      expect_verr Verror.Invalid_arg
        (Admin.set_threadpool_params srv [ Tp.uint Ap.threadpool_workers_free 3 ]);
      expect_verr Verror.Invalid_arg
        (Admin.set_threadpool_params srv [ Tp.uint Ap.threadpool_workers_current 3 ]);
      expect_verr Verror.Invalid_arg
        (Admin.set_threadpool_params srv [ Tp.uint Ap.threadpool_job_queue_depth 0 ]);
      (* (J, maxWorkers < minWorkers, a) *)
      expect_verr Verror.Invalid_arg
        (Admin.set_threadpool_params srv
           [ Tp.uint Ap.threadpool_workers_min 10; Tp.uint Ap.threadpool_workers_max 5 ]);
      (* (J, empty container, a) *)
      expect_verr Verror.Invalid_arg (Admin.set_threadpool_params srv []);
      (* (L, valid, a): unknown server *)
      expect_verr Verror.No_server (Admin.lookup_server admin "ghost");
      (* (K, valid, a): closed connection *)
      let closed = vok (Admin.connect ~daemon:name ()) in
      let csrv = vok (Admin.lookup_server closed "libvirtd") in
      Admin.close closed;
      expect_verr Verror.Rpc_failure
        (Admin.set_threadpool_params csrv [ Tp.uint Ap.threadpool_workers_max 25 ]))

(* Same partitioning applied to the client-limit setter. *)
let test_client_limits_params_validation () =
  with_admin (fun _ _ admin ->
      let srv = vok (Admin.lookup_server admin "libvirtd") in
      expect_verr Verror.Invalid_arg
        (Admin.set_client_limits_params srv [ Tp.uint "bogus" 1 ]);
      expect_verr Verror.Invalid_arg
        (Admin.set_client_limits_params srv [ Tp.uint Ap.server_clients_current 5 ]);
      expect_verr Verror.Invalid_arg
        (Admin.set_client_limits_params srv
           [ Tp.uint Ap.server_clients_unauth_current 5 ]);
      expect_verr Verror.Invalid_arg (Admin.set_client_limits_params srv []);
      (* unauth > max is inconsistent *)
      expect_verr Verror.Invalid_arg
        (Admin.set_client_limits_params srv
           [
             Tp.uint Ap.server_clients_max 10;
             Tp.uint Ap.server_clients_unauth_max 20;
           ]);
      vok
        (Admin.set_client_limits_params srv
           [ Tp.uint Ap.server_clients_max 99; Tp.uint Ap.server_clients_unauth_max 9 ]))

(* Admin interface keeps working while the management pool is wedged —
   the raison d'être of priority workers. *)
let test_admin_responsive_under_wedged_pool () =
  with_admin (fun daemon d admin ->
      let pool =
        Ovirt.Server_obj.pool (Option.get (Daemon.find_server d "libvirtd"))
      in
      (* Wedge every ordinary worker of the management server.  A woken
         worker counts as free until it takes its job, so the pool is
         wedged only some time after the last push returns. *)
      let release = Mutex.create () in
      Mutex.lock release;
      let stats = Threadpool.stats pool in
      for _ = 1 to stats.Threadpool.max_workers do
        Threadpool.push pool (fun () ->
            Mutex.lock release;
            Mutex.unlock release)
      done;
      ignore daemon;
      (* A failed check must still release the workers, or stopping the
         daemon waits for them forever. *)
      Fun.protect
        ~finally:(fun () ->
          Mutex.unlock release;
          Threadpool.drain pool)
        (fun () ->
          Alcotest.(check bool) "every worker wedged" true
            (eventually (fun () ->
                 (Threadpool.stats pool).Threadpool.free_workers = 0));
          (* Admin still answers: its own server has its own pool. *)
          let tp =
            vok (Admin.threadpool_info (vok (Admin.lookup_server admin "libvirtd")))
          in
          Alcotest.(check bool) "queue visible while wedged" true
            (tp.Admin.tp_free_workers = 0);
          vok (Admin.set_threadpool (vok (Admin.lookup_server admin "libvirtd"))
                 ~max_workers:64 ())))

let () =
  Alcotest.run "admin"
    [
      ( "basics",
        [
          quick "root only" test_root_only;
          quick "list servers" test_list_servers;
          quick "uptime" test_uptime;
        ] );
      ( "workerpool",
        [
          quick "info matches config" test_threadpool_info_matches_config;
          quick "resize applies to the live pool" test_threadpool_resize_applies;
          quick "partial update" test_threadpool_partial_update;
        ] );
      ( "clients",
        [
          quick "listing and identity" test_client_listing_and_identity;
          quick "limits roundtrip" test_client_limits_roundtrip;
          quick "forceful disconnect" test_client_disconnect;
          quick "unknown id" test_client_info_unknown_id;
        ] );
      ( "logging",
        [
          quick "level roundtrip" test_logging_level_roundtrip;
          quick "filters roundtrip" test_logging_filters_roundtrip;
          quick "outputs roundtrip" test_logging_outputs_roundtrip;
          quick "changes take effect" test_logging_changes_take_effect;
        ] );
      ( "equivalence partitions",
        [
          quick "T1: logging level" test_t1_logging_level;
          quick "T2: logging filters" test_t2_logging_filters;
          quick "T3: logging outputs" test_t3_logging_outputs;
          quick "T4: threadpool parameters" test_t4_threadpool_params;
          quick "client limits validation" test_client_limits_params_validation;
        ] );
      ( "resilience",
        [ quick "admin responsive while pool wedged" test_admin_responsive_under_wedged_pool ] );
    ]
