(* Daemon and remote driver: connection establishment over all transports,
   direct-vs-remote parity, error propagation, client limits, events over
   RPC, disconnect cleanup, malformed traffic, and configuration. *)

open Testutil
module Verror = Ovirt.Verror
module Connect = Ovirt.Connect
module Domain = Ovirt.Domain
module Driver = Ovirt.Driver
module Daemon = Ovirt.Daemon
module Daemon_config = Ovirt.Daemon_config
module Server_obj = Ovirt.Server_obj
module Vm_config = Vmm.Vm_config
module Vm_state = Vmm.Vm_state
module Transport = Ovnet.Transport
module Netsim = Ovnet.Netsim
module Rpc_packet = Ovrpc.Rpc_packet
module Rp = Protocol.Remote_protocol

let () = Ovirt.initialize ()

(* One daemon per test, with a unique name and a quiet logger. *)
let quiet_config =
  {
    Daemon_config.default with
    Daemon_config.log_outputs = [ { Vlog.min_priority = Vlog.Debug; sink = Vlog.Null } ];
  }

let with_daemon ?(config = quiet_config) f =
  let name = fresh_name "testd" in
  let daemon = Daemon.start ~name ~config () in
  Fun.protect ~finally:(fun () -> Daemon.stop daemon) (fun () -> f name daemon)

let remote_uri ?(transport = "unix") ~daemon node =
  Printf.sprintf "test+%s://%s/?daemon=%s" transport node daemon

(* --- connection establishment ------------------------------------------- *)

let test_connect_all_transports () =
  with_daemon (fun name _ ->
      List.iter
        (fun transport ->
          let conn =
            vok (Connect.open_uri (remote_uri ~transport ~daemon:name (fresh_name "n")))
          in
          Alcotest.(check bool)
            (transport ^ " works")
            true
            (List.length (vok (Connect.list_domains conn)) = 1);
          Connect.close conn)
        [ "unix"; "tcp"; "tls"; "ssh" ])

let test_connect_daemon_down () =
  match Connect.open_uri "test+unix:///default?daemon=no-such-daemon" with
  | Error e -> Alcotest.(check bool) "rpc failure" true (e.Verror.code = Verror.Rpc_failure)
  | Ok _ -> Alcotest.fail "connected to a daemon that is not running"

let test_unknown_transport_rejected () =
  with_daemon (fun name _ ->
      match Connect.open_uri (remote_uri ~transport:"smoke" ~daemon:name "x") with
      | Error e ->
        Alcotest.(check bool) "invalid arg" true (e.Verror.code = Verror.Invalid_arg)
      | Ok _ -> Alcotest.fail "bogus transport accepted")

let test_daemon_rejects_unknown_scheme () =
  with_daemon (fun name _ ->
      match Connect.open_uri ("vbox+unix:///x?daemon=" ^ name) with
      | Error e ->
        Alcotest.(check bool) "no connect propagated" true
          (e.Verror.code = Verror.No_connect)
      | Ok _ -> Alcotest.fail "daemon opened unknown scheme")

(* --- direct vs remote parity --------------------------------------------- *)

let test_remote_parity_with_direct () =
  with_daemon (fun daemon _ ->
      let node = fresh_name "parity" in
      let direct = vok (Connect.open_uri (Printf.sprintf "test://%s/" node)) in
      let remote = vok (Connect.open_uri (remote_uri ~daemon node)) in
      (* Same node, two paths: state changes through one are visible in
         the other, and all reads agree. *)
      let name = fresh_name "vm" in
      let cfg = Vm_config.make ~memory_kib:(8 * 1024) name in
      let rdom =
        vok (Domain.define_xml remote (Vmm.Domxml.to_xml ~virt_type:"test" cfg))
      in
      vok (Domain.create rdom);
      let ddom = vok (Domain.lookup_by_name direct name) in
      Alcotest.(check bool) "direct sees the started domain" true
        (vok (Domain.get_state ddom) = Vm_state.Running);
      let dinfo = vok (Domain.get_info ddom) in
      let rinfo = vok (Domain.get_info rdom) in
      Alcotest.(check bool) "info agrees" true (dinfo = rinfo);
      Alcotest.(check string) "xml agrees" (vok (Domain.xml_desc ddom))
        (vok (Domain.xml_desc rdom));
      Alcotest.(check string) "hostname agrees" (vok (Connect.hostname direct))
        (vok (Connect.hostname remote));
      let dcaps = vok (Connect.capabilities direct) in
      let rcaps = vok (Connect.capabilities remote) in
      Alcotest.(check bool) "capabilities agree" true (dcaps = rcaps);
      vok (Domain.destroy rdom);
      Connect.close remote;
      Connect.close direct)

let test_remote_networks_and_storage () =
  with_daemon (fun daemon _ ->
      let remote = vok (Connect.open_uri (remote_uri ~daemon (fresh_name "n"))) in
      let nets = vok (Ovirt.Network.list remote) in
      Alcotest.(check bool) "default network over rpc" true
        (List.exists (fun n -> n.Ovirt.Net_backend.net_name = "default") nets);
      let net =
        vok
          (Ovirt.Network.define remote ~name:"remote-net" ~bridge:"virbr9"
             ~ip_range:"10.9.0.0/24")
      in
      vok (Ovirt.Network.start net);
      let info = vok (Ovirt.Network.info net) in
      Alcotest.(check bool) "started over rpc" true info.Ovirt.Net_backend.active;
      vok (Ovirt.Network.stop net);
      vok (Ovirt.Network.undefine net);
      let pool = vok (Ovirt.Storage.lookup_pool remote "default") in
      let vol =
        vok
          (Ovirt.Storage.create_volume pool ~name:"r.img" ~capacity_b:4096
             ~format:"raw")
      in
      Alcotest.(check string) "volume path over rpc" "/var/lib/ovirt/images/r.img"
        vol.Ovirt.Storage_backend.vol_key;
      let found = vok (Ovirt.Storage.volume_by_path remote vol.Ovirt.Storage_backend.vol_key) in
      Alcotest.(check string) "resolved" "r.img" found.Ovirt.Storage_backend.vol_name;
      vok (Ovirt.Storage.delete_volume pool ~name:"r.img");
      Connect.close remote)

let test_remote_error_codes_propagate () =
  with_daemon (fun daemon _ ->
      let remote = vok (Connect.open_uri (remote_uri ~daemon (fresh_name "n"))) in
      expect_verr Verror.No_domain (Domain.lookup_by_name remote "missing");
      let dom = vok (Domain.lookup_by_name remote "test") in
      expect_verr Verror.Operation_invalid (Domain.create dom);
      expect_verr Verror.Invalid_arg
        (Domain.define_xml remote "<domain type=\"test\"><name></name></domain>");
      Connect.close remote)

let test_remote_managed_save () =
  with_daemon (fun daemon _ ->
      let remote = vok (Connect.open_uri (remote_uri ~daemon (fresh_name "n"))) in
      let cfg = Vm_config.make ~memory_kib:(8 * 1024) (fresh_name "svr") in
      let dom = vok (Domain.define_xml remote (Vmm.Domxml.to_xml ~virt_type:"test" cfg)) in
      vok (Domain.create dom);
      Alcotest.(check bool) "no image" false (vok (Domain.has_managed_save dom));
      vok (Domain.save dom);
      Alcotest.(check bool) "saved over rpc" true (vok (Domain.has_managed_save dom));
      Alcotest.(check bool) "stopped" true (vok (Domain.get_state dom) = Vm_state.Shutoff);
      vok (Domain.restore dom);
      Alcotest.(check bool) "restored over rpc" true
        (vok (Domain.get_state dom) = Vm_state.Running);
      Connect.close remote)

let test_remote_migration_unsupported () =
  with_daemon (fun daemon _ ->
      let remote = vok (Connect.open_uri (remote_uri ~daemon (fresh_name "n"))) in
      let dest = vok (Connect.open_uri (remote_uri ~daemon (fresh_name "n2"))) in
      let dom = vok (Domain.lookup_by_name remote "test") in
      expect_verr Verror.Operation_unsupported (Domain.migrate dom ~dest ());
      Connect.close remote;
      Connect.close dest)

(* --- events over the wire ------------------------------------------------ *)

let test_events_stream_to_client () =
  with_daemon (fun daemon _ ->
      let remote = vok (Connect.open_uri (remote_uri ~daemon (fresh_name "n"))) in
      let seen = ref [] in
      let _ =
        vok
          (Connect.subscribe_events remote (fun ev ->
               seen := ev.Ovirt.Events.lifecycle :: !seen))
      in
      let cfg = Vm_config.make ~memory_kib:(8 * 1024) (fresh_name "evvm") in
      let dom = vok (Domain.define_xml remote (Vmm.Domxml.to_xml ~virt_type:"test" cfg)) in
      vok (Domain.create dom);
      vok (Domain.destroy dom);
      let delivered =
        eventually (fun () ->
            List.mem Ovirt.Events.Ev_defined !seen
            && List.mem Ovirt.Events.Ev_started !seen
            && List.mem Ovirt.Events.Ev_stopped !seen)
      in
      Alcotest.(check bool) "three events crossed the wire" true delivered;
      Connect.close remote)

(* --- client limits and lifecycle ------------------------------------------ *)

let test_client_limit_enforced () =
  let config =
    { quiet_config with Daemon_config.max_clients = 2; max_anonymous_clients = 2 }
  in
  with_daemon ~config (fun daemon d ->
      let c1 = vok (Connect.open_uri (remote_uri ~daemon (fresh_name "n"))) in
      let c2 = vok (Connect.open_uri (remote_uri ~daemon (fresh_name "n"))) in
      (* Third client: the daemon closes it; the open call fails. *)
      (match Connect.open_uri (remote_uri ~daemon (fresh_name "n")) with
       | Error _ -> ()
       | Ok _ -> Alcotest.fail "third client accepted over the limit");
      let srv = Option.get (Daemon.find_server d "libvirtd") in
      let total, _ = Server_obj.client_counts srv in
      Alcotest.(check int) "two clients tracked" 2 total;
      Connect.close c1;
      (* Slot freed: a new client fits again. *)
      let ok_now =
        eventually (fun () ->
            match Connect.open_uri (remote_uri ~daemon (fresh_name "n")) with
            | Ok c ->
              Connect.close c;
              true
            | Error _ -> false)
      in
      Alcotest.(check bool) "slot reusable after close" true ok_now;
      Connect.close c2)

let test_disconnect_cleans_daemon_state () =
  with_daemon (fun daemon d ->
      let conn = vok (Connect.open_uri (remote_uri ~daemon (fresh_name "n"))) in
      let srv = Option.get (Daemon.find_server d "libvirtd") in
      Alcotest.(check int) "one client" 1 (fst (Server_obj.client_counts srv));
      Connect.close conn;
      let gone =
        eventually (fun () -> fst (Server_obj.client_counts srv) = 0)
      in
      Alcotest.(check bool) "client reaped after disconnect" true gone)

let test_client_authentication_tracking () =
  with_daemon (fun daemon d ->
      (* A raw transport connection that never completes a call stays
         unauthenticated. *)
      let raw = Netsim.connect (daemon ^ "-sock") Transport.Unix_sock in
      let srv = Option.get (Daemon.find_server d "libvirtd") in
      let seen =
        eventually (fun () ->
            let total, unauth = Server_obj.client_counts srv in
            total = 1 && unauth = 1)
      in
      Alcotest.(check bool) "unauthenticated counted" true seen;
      (* A proper client authenticates via its first successful call. *)
      let conn = vok (Connect.open_uri (remote_uri ~daemon (fresh_name "n"))) in
      let authed =
        eventually (fun () ->
            let total, unauth = Server_obj.client_counts srv in
            total = 2 && unauth = 1)
      in
      Alcotest.(check bool) "authenticated counted" true authed;
      Transport.close raw;
      Connect.close conn)

(* --- hostile traffic ------------------------------------------------------ *)

let test_malformed_packet_drops_connection () =
  with_daemon (fun daemon _ ->
      let raw = Netsim.connect (daemon ^ "-sock") Transport.Unix_sock in
      Transport.send raw "not a packet at all";
      let closed =
        eventually (fun () ->
            match Transport.recv_opt raw ~timeout_s:0.05 with
            | exception Transport.Closed -> true
            | Some _ | None -> false)
      in
      Alcotest.(check bool) "daemon dropped the connection" true closed)

let test_unknown_program_answered_with_error () =
  with_daemon (fun daemon _ ->
      let raw = Netsim.connect (daemon ^ "-sock") Transport.Unix_sock in
      let header =
        Rpc_packet.call_header ~program:0x1234 ~version:1 ~procedure:1 ~serial:7
      in
      Transport.send raw (Rpc_packet.encode header "");
      (match Transport.recv_opt raw ~timeout_s:2.0 with
       | Some wire ->
         let rh, body = Rpc_packet.decode wire in
         Alcotest.(check bool) "error reply" true
           (rh.Rpc_packet.status = Rpc_packet.Status_error);
         Alcotest.(check int) "serial echoed" 7 rh.Rpc_packet.serial;
         let err = Rp.dec_error body in
         Alcotest.(check bool) "rpc failure" true (err.Verror.code = Verror.Rpc_failure)
       | None -> Alcotest.fail "no reply to unknown program");
      Transport.close raw)

let test_wrong_version_rejected () =
  with_daemon (fun daemon _ ->
      let raw = Netsim.connect (daemon ^ "-sock") Transport.Unix_sock in
      let header =
        Rpc_packet.call_header ~program:Rp.program ~version:99
          ~procedure:(Rp.proc_to_int Rp.Proc_ping) ~serial:1
      in
      Transport.send raw (Rpc_packet.encode header "");
      (match Transport.recv_opt raw ~timeout_s:2.0 with
       | Some wire ->
         let rh, _ = Rpc_packet.decode wire in
         Alcotest.(check bool) "error reply" true
           (rh.Rpc_packet.status = Rpc_packet.Status_error)
       | None -> Alcotest.fail "no reply to wrong version");
      Transport.close raw)

let test_call_without_open_rejected () =
  with_daemon (fun daemon _ ->
      let raw = Netsim.connect (daemon ^ "-sock") Transport.Unix_sock in
      let header =
        Rpc_packet.call_header ~program:Rp.program ~version:Rp.version
          ~procedure:(Rp.proc_to_int Rp.Proc_list_domains) ~serial:3
      in
      Transport.send raw (Rpc_packet.encode header "");
      (match Transport.recv_opt raw ~timeout_s:2.0 with
       | Some wire ->
         let rh, body = Rpc_packet.decode wire in
         Alcotest.(check bool) "error" true
           (rh.Rpc_packet.status = Rpc_packet.Status_error);
         Alcotest.(check bool) "no_connect" true
           ((Rp.dec_error body).Verror.code = Verror.No_connect)
       | None -> Alcotest.fail "no reply");
      Transport.close raw)

let test_double_open_rejected () =
  with_daemon (fun daemon _ ->
      let conn = vok (Connect.open_uri (remote_uri ~daemon (fresh_name "n"))) in
      (* Send a second OPEN over the same connection, below the API. *)
      ignore conn;
      (* The public API opens exactly once per connection, so exercise the
         daemon check directly. *)
      let raw = Netsim.connect (daemon ^ "-sock") Transport.Unix_sock in
      let send_open serial =
        let header =
          Rpc_packet.call_header ~program:Rp.program ~version:Rp.version
            ~procedure:(Rp.proc_to_int Rp.Proc_open) ~serial
        in
        Transport.send raw
          (Rpc_packet.encode header (Rp.enc_string_body "test:///default"))
      in
      send_open 1;
      (match Transport.recv_opt raw ~timeout_s:2.0 with
       | Some wire ->
         let rh, _ = Rpc_packet.decode wire in
         Alcotest.(check bool) "first open ok" true
           (rh.Rpc_packet.status = Rpc_packet.Status_ok)
       | None -> Alcotest.fail "no reply to first open");
      send_open 2;
      (match Transport.recv_opt raw ~timeout_s:2.0 with
       | Some wire ->
         let rh, body = Rpc_packet.decode wire in
         Alcotest.(check bool) "second open rejected" true
           (rh.Rpc_packet.status = Rpc_packet.Status_error);
         Alcotest.(check bool) "operation invalid" true
           ((Rp.dec_error body).Verror.code = Verror.Operation_invalid)
       | None -> Alcotest.fail "no reply to second open");
      Transport.close raw;
      Connect.close conn)

(* --- daemon assembly ------------------------------------------------------ *)

let test_daemon_structure () =
  with_daemon (fun _ d ->
      Alcotest.(check (list string)) "two servers" [ "libvirtd"; "admin" ]
        (List.map fst (Daemon.servers d));
      Alcotest.(check bool) "uptime ticks" true (Daemon.uptime_s d >= 0.0))

let test_daemon_name_collision () =
  with_daemon (fun name _ ->
      match Daemon.start ~name () with
      | exception Netsim.Address_in_use _ -> ()
      | d ->
        Daemon.stop d;
        Alcotest.fail "second daemon with same name started")

let test_daemon_stop_closes_clients () =
  let name = fresh_name "testd" in
  let daemon = Daemon.start ~name ~config:quiet_config () in
  let conn = vok (Connect.open_uri (remote_uri ~daemon:name (fresh_name "n"))) in
  Daemon.stop daemon;
  let refused =
    eventually (fun () ->
        match Connect.list_domains conn with Error _ -> true | Ok _ -> false)
  in
  Alcotest.(check bool) "calls fail after daemon stop" true refused

let test_config_parsing () =
  let text =
    String.concat "\n"
      [
        "# a comment";
        "min_workers = 3";
        "max_workers = 9";
        "prio_workers = 2";
        "max_clients = 40  # trailing comment";
        "log_level = 2";
        "log_filters = \"3:rpc 4:event\"";
        "log_outputs = \"1:file:/var/log/x.log\"";
        "";
      ]
  in
  let cfg = sok (Daemon_config.parse text) in
  Alcotest.(check int) "min" 3 cfg.Daemon_config.min_workers;
  Alcotest.(check int) "max" 9 cfg.Daemon_config.max_workers;
  Alcotest.(check int) "clients" 40 cfg.Daemon_config.max_clients;
  Alcotest.(check bool) "level" true (cfg.Daemon_config.log_level = Vlog.Info);
  Alcotest.(check int) "filters" 2 (List.length cfg.Daemon_config.log_filters);
  (* defaults survive for unset keys *)
  Alcotest.(check int) "anonymous default" 20 cfg.Daemon_config.max_anonymous_clients;
  (* roundtrip through the printer *)
  let cfg2 = sok (Daemon_config.parse (Daemon_config.to_file cfg)) in
  Alcotest.(check bool) "print/parse roundtrip" true (cfg = cfg2)

let test_config_rejections () =
  List.iter
    (fun text ->
      match Daemon_config.parse text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" text)
    [
      "nonsense";
      "unknown_key = 1";
      "min_workers = \"five\"";
      "min_workers = -2";
      "log_level = 7";
      "log_filters = 3";
      "log_filters = \"bad\"";
      "log_outputs = \"1:nowhere\"";
      "min_workers = 1 extra";
      (* Keys this build does not read are refused like any typo. *)
      "journal_compact_factor = 4";
      "journal_compact_slack = 16";
      "reactor_buf_kb = 16";
      "reactor_pool_bufs = 64";
      "reconcile_diverged_after = 3";
    ]

let test_config_applied_to_daemon () =
  let config =
    {
      quiet_config with
      Daemon_config.min_workers = 3;
      max_workers = 7;
      prio_workers = 2;
      max_clients = 11;
    }
  in
  with_daemon ~config (fun _ d ->
      let srv = Option.get (Daemon.find_server d "libvirtd") in
      let stats = Threadpool.stats (Server_obj.pool srv) in
      Alcotest.(check int) "min applied" 3 stats.Threadpool.min_workers;
      Alcotest.(check int) "max applied" 7 stats.Threadpool.max_workers;
      Alcotest.(check int) "prio applied" 2 stats.Threadpool.prio_workers;
      let limits = Server_obj.limits srv in
      Alcotest.(check int) "clients applied" 11 limits.Server_obj.max_clients)

(* --- rpc client engine ----------------------------------------------- *)

let test_rpc_client_concurrent_calls () =
  with_daemon (fun daemon _ ->
      let client =
        match
          Rpc_client.connect ~address:(daemon ^ "-sock") ~kind:Transport.Unix_sock
            ~program:Rp.program ~version:Rp.version ()
        with
        | Ok c -> c
        | Error e -> Alcotest.failf "connect: %s" (Verror.to_string e)
      in
      (* Many threads share one connection; replies must demultiplex by
         serial without crosstalk. *)
      let errors = Atomic.make 0 in
      let threads =
        List.init 8 (fun i ->
            Thread.create
              (fun () ->
                for j = 1 to 50 do
                  let body = Printf.sprintf "thread-%d-call-%d" i j in
                  match
                    Rpc_client.call client ~procedure:(Rp.proc_to_int Rp.Proc_echo)
                      ~body ()
                  with
                  | Ok reply when reply = body -> ()
                  | Ok _ | Error _ -> Atomic.incr errors
                done)
              ())
      in
      List.iter Thread.join threads;
      Alcotest.(check int) "no crosstalk over 400 calls" 0 (Atomic.get errors);
      Rpc_client.close client)

let test_rpc_client_timeout () =
  (* A listener that accepts but never replies: the watchdog must fire. *)
  let addr = fresh_name "mute" in
  let listener = listen_threaded addr (fun conn -> ignore (Transport.recv conn)) in
  let client =
    match
      Rpc_client.connect ~address:addr ~kind:Transport.Unix_sock ~program:Rp.program
        ~version:Rp.version ()
    with
    | Ok c -> c
    | Error e -> Alcotest.failf "connect: %s" (Verror.to_string e)
  in
  let t0 = Unix.gettimeofday () in
  (match
     Rpc_client.call client ~procedure:(Rp.proc_to_int Rp.Proc_ping) ~timeout_s:0.2 ()
   with
   | Error e ->
     Alcotest.(check bool) "rpc failure" true (e.Verror.code = Verror.Rpc_failure)
   | Ok _ -> Alcotest.fail "mute server answered");
  Alcotest.(check bool) "fired near the deadline" true
    (Unix.gettimeofday () -. t0 < 2.0);
  Rpc_client.close client;
  Netsim.close_listener listener

let test_rpc_client_close_fails_pending () =
  let addr = fresh_name "mute" in
  let listener = listen_threaded addr (fun conn -> ignore (Transport.recv conn)) in
  let client =
    match
      Rpc_client.connect ~address:addr ~kind:Transport.Unix_sock ~program:Rp.program
        ~version:Rp.version ()
    with
    | Ok c -> c
    | Error e -> Alcotest.failf "connect: %s" (Verror.to_string e)
  in
  let outcome = ref None in
  let caller =
    Thread.create
      (fun () ->
        outcome :=
          Some (Rpc_client.call client ~procedure:(Rp.proc_to_int Rp.Proc_ping) ()))
      ()
  in
  Thread.delay 0.05;
  Rpc_client.close client;
  Thread.join caller;
  (match !outcome with
   | Some (Error _) -> ()
   | Some (Ok _) -> Alcotest.fail "pending call succeeded after close"
   | None -> Alcotest.fail "caller did not return");
  Alcotest.(check bool) "closed flag" true (Rpc_client.is_closed client);
  (match Rpc_client.call client ~procedure:1 () with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "call on closed client succeeded");
  Netsim.close_listener listener

let () =
  Alcotest.run "daemon"
    [
      ( "establishment",
        [
          quick "all transports" test_connect_all_transports;
          quick "daemon down" test_connect_daemon_down;
          quick "unknown transport" test_unknown_transport_rejected;
          quick "unknown scheme via daemon" test_daemon_rejects_unknown_scheme;
        ] );
      ( "parity",
        [
          quick "remote sees direct state" test_remote_parity_with_direct;
          quick "networks and storage over rpc" test_remote_networks_and_storage;
          quick "error codes propagate" test_remote_error_codes_propagate;
          quick "migration unsupported over rpc" test_remote_migration_unsupported;
          quick "managed save over rpc" test_remote_managed_save;
        ] );
      ("events", [ quick "lifecycle events stream" test_events_stream_to_client ]);
      ( "clients",
        [
          quick "limit enforced" test_client_limit_enforced;
          quick "disconnect cleanup" test_disconnect_cleans_daemon_state;
          quick "authentication tracking" test_client_authentication_tracking;
        ] );
      ( "hostile traffic",
        [
          quick "malformed packet drops connection" test_malformed_packet_drops_connection;
          quick "unknown program" test_unknown_program_answered_with_error;
          quick "wrong version" test_wrong_version_rejected;
          quick "call without open" test_call_without_open_rejected;
          quick "double open" test_double_open_rejected;
        ] );
      ( "rpc client",
        [
          quick "concurrent calls demultiplex" test_rpc_client_concurrent_calls;
          quick "timeout watchdog" test_rpc_client_timeout;
          quick "close fails pending calls" test_rpc_client_close_fails_pending;
        ] );
      ( "assembly & config",
        [
          quick "two servers" test_daemon_structure;
          quick "name collision" test_daemon_name_collision;
          quick "stop closes clients" test_daemon_stop_closes_clients;
          quick "config parsing" test_config_parsing;
          quick "config rejections" test_config_rejections;
          quick "config applied" test_config_applied_to_daemon;
        ] );
    ]
