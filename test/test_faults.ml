(* Fault injection, keepalive, auto-reconnect and graceful drain: the
   robustness layer.  Covers the Faults plan semantics at the channel
   level, corruption through the real TCP-checksum and TLS-MAC paths,
   keepalive death and liveness, call timeouts enforced by the waiting
   caller (and their races with late replies), one thread per client
   connection, close races, drain behaviour, and the deterministic chaos
   scenario: a 100-op workload over a connection that dies every 10
   frames completes with reconnect enabled and fails without. *)

open Testutil
module Verror = Ovirt.Verror
module Connect = Ovirt.Connect
module Domain = Ovirt.Domain
module Daemon = Ovirt.Daemon
module Daemon_config = Ovirt.Daemon_config
module Server_obj = Ovirt.Server_obj
module Admin = Ovirt.Admin_client
module Vm_config = Vmm.Vm_config
module Transport = Ovnet.Transport
module Netsim = Ovnet.Netsim
module Faults = Ovnet.Faults
module Chan = Ovnet.Chan
module Rp = Protocol.Remote_protocol

let () = Ovirt.initialize ()

let quiet_config =
  {
    Daemon_config.default with
    Daemon_config.log_outputs = [ { Vlog.min_priority = Vlog.Debug; sink = Vlog.Null } ];
  }

let with_daemon ?(config = quiet_config) f =
  let name = fresh_name "faultd" in
  let daemon = Daemon.start ~name ~config () in
  Fun.protect ~finally:(fun () -> Daemon.stop daemon) (fun () -> f name daemon)

(* --- the plan itself, at the channel level ------------------------------- *)

let test_delay () =
  let a, b = Chan.pipe () in
  let b = Faults.wrap (Faults.plan [ Faults.Delay 0.05 ]) b in
  let t0 = Unix.gettimeofday () in
  Chan.send a.Chan.outgoing "payload";
  Alcotest.(check string) "delivered" "payload" (Chan.recv b.Chan.incoming);
  Alcotest.(check bool) "delayed" true (Unix.gettimeofday () -. t0 >= 0.04)

let test_blackhole () =
  let a, b = Chan.pipe () in
  let plan = Faults.plan [ Faults.Blackhole ] in
  let b = Faults.wrap plan b in
  Chan.send a.Chan.outgoing "vanishes";
  Alcotest.(check (option string))
    "nothing arrives" None
    (Chan.recv_opt b.Chan.incoming ~timeout_s:0.1);
  Alcotest.(check bool) "counted" true
    (eventually (fun () -> (Faults.stats plan).Faults.frames_blackholed = 1))

let test_drop_after () =
  let a, b = Chan.pipe () in
  let plan = Faults.plan [ Faults.Drop_after 2 ] in
  let b = Faults.wrap plan b in
  Chan.send a.Chan.outgoing "one";
  Alcotest.(check string) "first frame flows" "one" (Chan.recv b.Chan.incoming);
  Chan.send a.Chan.outgoing "two";
  (match Chan.recv b.Chan.incoming with
   | exception Chan.Closed -> ()
   | msg -> Alcotest.failf "second frame delivered (%S), connection not killed" msg);
  (* The kill closes both directions: the peer cannot send either. *)
  Alcotest.(check bool) "peer side dies" true
    (eventually (fun () ->
         match Chan.send a.Chan.outgoing "three" with
         | exception Chan.Closed -> true
         | () -> false));
  Alcotest.(check int) "kill counted" 1 (Faults.stats plan).Faults.connections_killed

let test_corrupt_deterministic () =
  let corrupted_frame seed =
    let a, b = Chan.pipe () in
    let b = Faults.wrap (Faults.plan ~seed [ Faults.Corrupt_frame 1 ]) b in
    Chan.send a.Chan.outgoing "sixteen byte msg";
    Chan.recv b.Chan.incoming
  in
  let x = corrupted_frame 42 and y = corrupted_frame 42 in
  Alcotest.(check string) "same seed, same corruption" x y;
  Alcotest.(check bool) "actually corrupted" true (x <> "sixteen byte msg");
  let bits_flipped =
    let orig = "sixteen byte msg" in
    let count = ref 0 in
    String.iteri
      (fun i c ->
        let d = Char.code c lxor Char.code orig.[i] in
        for bit = 0 to 7 do
          if d land (1 lsl bit) <> 0 then incr count
        done)
      x;
    !count
  in
  Alcotest.(check int) "exactly one bit" 1 bits_flipped

let test_refuse_connect () =
  let addr = fresh_name "refuser" in
  let plan = Faults.plan [ Faults.Refuse_connect ] in
  let listener = listen_threaded ~faults:plan addr (fun _ -> ()) in
  Fun.protect
    ~finally:(fun () -> Netsim.close_listener listener)
    (fun () ->
      (match Netsim.connect addr Transport.Unix_sock with
       | exception Netsim.Connection_refused _ -> ()
       | _ -> Alcotest.fail "refused listener accepted a connection");
      Alcotest.(check int) "refusal counted" 1
        (Faults.stats plan).Faults.connects_refused)

(* --- corruption through the real transport integrity paths --------------- *)

let echo rpc msg =
  Result.map Rp.dec_string_body
    (Rpc_client.call rpc ~procedure:(Rp.proc_to_int Rp.Proc_echo)
       ~body:(Rp.enc_string_body msg) ())

let mgmt_rpc ?faults ?keepalive daemon ~kind =
  vok
    (Rpc_client.connect ~address:(Daemon.mgmt_address daemon) ~kind
       ~program:Rp.program ~version:Rp.version ?faults ?keepalive ())

let expect_corrupt_failure rpc daemon =
  (match echo rpc "second" with
   | Ok reply -> Alcotest.failf "corrupted reply delivered: %S" reply
   | Error e ->
     Alcotest.(check bool) "rpc failure" true (e.Verror.code = Verror.Rpc_failure);
     Alcotest.(check bool)
       ("mentions corruption: " ^ e.Verror.message)
       true
       (let lower = String.lowercase_ascii e.Verror.message in
        (* either the receiver saw the corrupt frame, or the daemon side
           noticed first and the connection just died *)
        contains lower "corrupt"
        || contains lower "closed"));
  Alcotest.(check bool) "client closed" true (Rpc_client.is_closed rpc);
  (* The daemon reaps its side of the poisoned connection. *)
  match Daemon.find_server daemon "libvirtd" with
  | None -> Alcotest.fail "no libvirtd server"
  | Some srv ->
    Alcotest.(check bool) "daemon-side client reaped" true
      (eventually (fun () -> fst (Server_obj.client_counts srv) = 0))

let test_tcp_checksum_corruption () =
  with_daemon (fun _ daemon ->
      (* Client-side incoming frames over TCP: 1 = first reply.  Let one
         echo through, corrupt the second reply's checksummed bytes. *)
      let rpc =
        mgmt_rpc daemon ~kind:Transport.Tcp
          ~faults:(Faults.plan [ Faults.Corrupt_frame 2 ])
      in
      Alcotest.(check string) "first echo intact" "first" (vok (echo rpc "first"));
      expect_corrupt_failure rpc daemon)

let test_tls_mac_corruption () =
  with_daemon (fun _ daemon ->
      (* Over TLS the client's frame 1 is the hello reply, frame 2 the
         first sealed reply: corrupting frame 3 breaks the second reply's
         MAC. *)
      let rpc =
        mgmt_rpc daemon ~kind:Transport.Tls
          ~faults:(Faults.plan [ Faults.Corrupt_frame 3 ])
      in
      Alcotest.(check string) "first echo intact" "first" (vok (echo rpc "first"));
      expect_corrupt_failure rpc daemon)

(* --- keepalive ------------------------------------------------------------ *)

let test_keepalive_detects_dead_peer () =
  with_daemon (fun _ daemon ->
      (* A blackhole swallows every reply (and pong): the keepalive timer
         must declare the peer dead after interval x count and fail the
         in-flight call promptly. *)
      let rpc =
        mgmt_rpc daemon ~kind:Transport.Unix_sock
          ~faults:(Faults.plan [ Faults.Blackhole ])
          ~keepalive:{ Rpc_client.ka_interval = 0.05; ka_count = 2 }
      in
      let t0 = Unix.gettimeofday () in
      (match echo rpc "into the void" with
       | Ok _ -> Alcotest.fail "blackholed call returned"
       | Error e ->
         Alcotest.(check bool) "rpc failure" true (e.Verror.code = Verror.Rpc_failure);
         Alcotest.(check bool)
           ("keepalive blamed: " ^ e.Verror.message)
           true
           (contains e.Verror.message "keepalive"));
      Alcotest.(check bool) "prompt death" true (Unix.gettimeofday () -. t0 < 2.0);
      Alcotest.(check bool) "closed" true (Rpc_client.is_closed rpc))

let test_keepalive_keeps_idle_connection_alive () =
  with_daemon (fun _ daemon ->
      (* Idle well past interval x count: only answered pings keep the
         client from declaring the (healthy) daemon dead. *)
      let rpc =
        mgmt_rpc daemon ~kind:Transport.Unix_sock
          ~keepalive:{ Rpc_client.ka_interval = 0.05; ka_count = 2 }
      in
      Thread.delay 0.4;
      Alcotest.(check bool) "still open" false (Rpc_client.is_closed rpc);
      Alcotest.(check string) "still works" "alive" (vok (echo rpc "alive"));
      Rpc_client.close rpc)

let test_keepalive_count_below_one_refused () =
  with_daemon (fun name _ ->
      List.iter
        (fun count ->
          let uri =
            Printf.sprintf "test+unix://%s/?daemon=%s&keepalive=5&keepalive_count=%d"
              (fresh_name "kc") name count
          in
          match Connect.open_uri uri with
          | Ok conn ->
            Connect.close conn;
            Alcotest.failf "keepalive_count=%d accepted" count
          | Error e ->
            Alcotest.(check string)
              (Printf.sprintf "keepalive_count=%d: invalid argument" count)
              (Verror.code_name Verror.Invalid_arg)
              (Verror.code_name e.Verror.code);
            Alcotest.(check bool)
              ("names the parameter: " ^ e.Verror.message)
              true
              (contains e.Verror.message "keepalive_count"))
        [ 0; -3 ])

(* --- the client: call timeouts and its one thread ------------------------- *)

let test_call_timeout_without_watchdog_threads () =
  let addr = fresh_name "tarpit" in
  let listener = listen_threaded addr (fun _conn -> Thread.delay 5.0) in
  Fun.protect
    ~finally:(fun () -> Netsim.close_listener listener)
    (fun () ->
      let rpc =
        vok
          (Rpc_client.connect ~address:addr ~kind:Transport.Unix_sock
             ~program:Rp.program ~version:Rp.version ())
      in
      let t0 = Unix.gettimeofday () in
      (match
         Rpc_client.call rpc ~procedure:(Rp.proc_to_int Rp.Proc_echo)
           ~body:(Rp.enc_string_body "slow") ~timeout_s:0.1 ()
       with
       | Ok _ -> Alcotest.fail "tarpit replied"
       | Error e ->
         Alcotest.(check bool)
           ("timed out: " ^ e.Verror.message)
           true
           (contains e.Verror.message "timed out"));
      Alcotest.(check bool) "prompt" true (Unix.gettimeofday () -. t0 < 1.0);
      (* The timeout fails the one call, not the connection. *)
      Alcotest.(check bool) "connection survives" false (Rpc_client.is_closed rpc);
      Alcotest.(check int) "no pending leak" 0 (Rpc_client.pending_calls rpc);
      Rpc_client.close rpc)

(* The process's threads, by kernel thread id. *)
let thread_ids () = Array.to_list (Sys.readdir "/proc/self/task")

(* Twenty connections start twenty threads, one receiver each, and
   nothing else.  Only threads born in the window count, so one that an
   earlier test left behind and that exits meanwhile changes nothing;
   the daemon's pool has a fixed size and has parked, so it neither
   grows nor retires a worker meanwhile. *)
let test_one_thread_per_connection () =
  if Sys.file_exists "/proc/self/task" then
    let config = { quiet_config with Daemon_config.min_workers = 2; max_workers = 2 } in
    with_daemon ~config (fun _ daemon ->
        (* One timed call first: it starts the lazy timekeeper, which is
           shared by the process, not owned by a connection. *)
        let warm = mgmt_rpc daemon ~kind:Transport.Unix_sock in
        ignore
          (vok
             (Rpc_client.call warm ~procedure:(Rp.proc_to_int Rp.Proc_echo)
                ~body:(Rp.enc_string_body "warm") ~timeout_s:5.0 ()));
        Threadpool.drain (Server_obj.pool (Option.get (Daemon.find_server daemon "libvirtd")));
        let before = thread_ids () in
        let conns = List.init 20 (fun _ -> mgmt_rpc daemon ~kind:Transport.Unix_sock) in
        let born = List.filter (fun id -> not (List.mem id before)) (thread_ids ()) in
        List.iter Rpc_client.close (warm :: conns);
        Alcotest.(check int) "20 connections, 20 threads" 20 (List.length born))

(* 16 threads share one connection to a server that answers each call
   after the delay its body names, some under the 100 ms timeout and some
   over.  A call gets its own echo or the timeout error, never another
   call's reply; late replies to timed-out calls are dropped; slots
   recycled after a timeout serve later calls correctly. *)
let test_deadline_races () =
  let addr = fresh_name "laggard" in
  let listener =
    listen_threaded addr (fun conn ->
        let rec serve () =
          match Transport.recv conn with
          | exception Transport.Closed -> ()
          | wire ->
            let header, body = Ovrpc.Rpc_packet.decode wire in
            let delay_ms = Scanf.sscanf body "%d:" Fun.id in
            let reply =
              Ovrpc.Rpc_packet.encode
                { header with Ovrpc.Rpc_packet.msg_type = Ovrpc.Rpc_packet.Reply }
                body
            in
            ignore
              (Thread.create
                 (fun () ->
                   Thread.delay (float_of_int delay_ms /. 1000.);
                   try Transport.send conn reply with Transport.Closed -> ())
                 ());
            serve ()
        in
        serve ())
  in
  Fun.protect
    ~finally:(fun () -> Netsim.close_listener listener)
    (fun () ->
      let rpc =
        vok
          (Rpc_client.connect ~address:addr ~kind:Transport.Unix_sock
             ~program:Rp.program ~version:Rp.version ())
      in
      let delays_ms = [| 10; 40; 80; 95; 100; 105; 120; 200 |] in
      let echoed = Atomic.make 0 and timed_out = Atomic.make 0 in
      let wrong = ref [] and wrong_mutex = Mutex.create () in
      let caller round i () =
        let body = Printf.sprintf "%d:%d:%d" delays_ms.(i mod 8) round i in
        match Rpc_client.call rpc ~procedure:7 ~body ~timeout_s:0.1 () with
        | Ok reply when reply = body -> Atomic.incr echoed
        | Error e when contains e.Verror.message "call 7 timed out after 0.1s" ->
          Atomic.incr timed_out
        | outcome ->
          let got =
            match outcome with Ok r -> "reply " ^ r | Error e -> Verror.to_string e
          in
          Mutex.protect wrong_mutex (fun () ->
              wrong := Printf.sprintf "%s got %s" body got :: !wrong)
      in
      for round = 1 to 4 do
        List.iter Thread.join (List.init 16 (fun i -> Thread.create (caller round i) ()))
      done;
      Alcotest.(check (list string)) "every call its own outcome" [] !wrong;
      Alcotest.(check int) "every call answered" 64 (Atomic.get echoed + Atomic.get timed_out);
      Alcotest.(check bool) "some echoes" true (Atomic.get echoed > 0);
      Alcotest.(check bool) "some timeouts" true (Atomic.get timed_out > 0);
      Alcotest.(check int) "no pending leak" 0 (Rpc_client.pending_calls rpc);
      (* The late replies land and are dropped; the connection lives on. *)
      Thread.delay 0.25;
      Alcotest.(check bool) "connection survives" false (Rpc_client.is_closed rpc);
      Alcotest.(check string) "still serves" "0:after"
        (vok (Rpc_client.call rpc ~procedure:7 ~body:"0:after" ()));
      Alcotest.(check int) "still no pending" 0 (Rpc_client.pending_calls rpc);
      Rpc_client.close rpc)

let test_close_is_idempotent_and_race_free () =
  with_daemon (fun _ daemon ->
      let rpc = mgmt_rpc daemon ~kind:Transport.Unix_sock in
      Alcotest.(check string) "works" "x" (vok (echo rpc "x"));
      let closers =
        List.init 5 (fun _ -> Thread.create (fun () -> Rpc_client.close rpc) ())
      in
      List.iter Thread.join closers;
      Rpc_client.close rpc;
      Alcotest.(check bool) "closed" true (Rpc_client.is_closed rpc);
      match echo rpc "after close" with
      | Ok _ -> Alcotest.fail "call on closed connection succeeded"
      | Error e ->
        Alcotest.(check bool) "rpc failure" true (e.Verror.code = Verror.Rpc_failure))

(* Closing a remote connection folds its counters into the process-wide
   totals and drops its record, so nothing keeps the closed connection's
   event bus alive. *)
let test_closed_connection_released () =
  with_daemon (fun name _ ->
      let uri = Printf.sprintf "test+unix://%s/?daemon=%s" (fresh_name "node") name in
      let open_use_close () =
        let conn = vok (Connect.open_uri uri) in
        ignore (vok (Connect.list_domains conn));
        let bus = Weak.create 1 in
        Weak.set bus 0 (Some (vok (Connect.ops conn)).Ovirt.Driver.events);
        let before = Drv_remote.stats () in
        Connect.close conn;
        Alcotest.(check bool) "close keeps the totals" true (Drv_remote.stats () = before);
        bus
      in
      let bus = (open_use_close [@inlined never]) () in
      Alcotest.(check bool) "closed connection's bus collected" true
        (eventually (fun () ->
             Gc.full_major ();
             not (Weak.check bus 0))))

(* --- drain ---------------------------------------------------------------- *)

let test_drain_refuses_calls_but_answers_pings () =
  with_daemon (fun _ daemon ->
      let srv = Option.get (Daemon.find_server daemon "libvirtd") in
      let rpc =
        mgmt_rpc daemon ~kind:Transport.Unix_sock
          ~keepalive:{ Rpc_client.ka_interval = 0.05; ka_count = 2 }
      in
      Alcotest.(check string) "before drain" "ok" (vok (echo rpc "ok"));
      Server_obj.set_draining srv true;
      (match echo rpc "during drain" with
       | Ok _ -> Alcotest.fail "draining server accepted a call"
       | Error e ->
         Alcotest.(check bool)
           ("refused with operation invalid: " ^ Verror.to_string e)
           true
           (e.Verror.code = Verror.Operation_invalid));
      (* Well past interval x count: pings must still be answered, so the
         client does not declare the draining daemon dead. *)
      Thread.delay 0.4;
      Alcotest.(check bool) "kept alive through drain" false (Rpc_client.is_closed rpc);
      Server_obj.set_draining srv false;
      Alcotest.(check string) "back in service" "ok" (vok (echo rpc "ok"));
      Rpc_client.close rpc)

let test_draining_server_refuses_new_clients () =
  with_daemon (fun _ daemon ->
      let srv = Option.get (Daemon.find_server daemon "libvirtd") in
      Server_obj.set_draining srv true;
      let conn = Netsim.connect (Daemon.mgmt_address daemon) Transport.Unix_sock in
      (* accept_client closes the transport on refusal. *)
      Alcotest.(check bool) "connection dropped" true
        (eventually (fun () ->
             match Transport.recv conn with
             | exception Transport.Closed -> true
             | _ -> false));
      Alcotest.(check bool) "no client registered" true
        (eventually (fun () -> fst (Server_obj.client_counts srv) = 0)))

let test_admin_drain_end_to_end () =
  with_daemon (fun name daemon ->
      let conn = vok (Connect.open_uri (Printf.sprintf "test+unix://%s/?daemon=%s" (fresh_name "dr") name)) in
      Alcotest.(check bool) "live before drain" true
        (List.length (vok (Connect.list_domains conn)) >= 0);
      let admin = vok (Admin.connect ~daemon:name ()) in
      vok (Admin.drain admin);
      (* The drain runs in the background; once it completes the listener
         is gone and every connection is closed. *)
      Alcotest.(check bool) "listener closed" true
        (eventually (fun () ->
             match Connect.open_uri (Printf.sprintf "test+unix://%s/?daemon=%s" (fresh_name "dr") name) with
             | Error _ -> true
             | Ok conn2 ->
               Connect.close conn2;
               false));
      Alcotest.(check bool) "existing connections closed" true
        (eventually (fun () -> Result.is_error (Connect.list_domains conn)));
      Admin.close admin;
      ignore daemon)

(* --- netsim sink failures are logged -------------------------------------- *)

let test_direct_sink_exception_logged () =
  let logger =
    Vlog.create ~level:Vlog.Debug
      ~outputs:[ { Vlog.min_priority = Vlog.Warn; sink = Vlog.File "netsim-log" } ]
      ()
  in
  Netsim.set_logger logger;
  Fun.protect
    ~finally:(fun () -> Netsim.set_logger (Vlog.create ~level:Vlog.Warn ()))
    (fun () ->
      let addr = fresh_name "boom" in
      let listener = Netsim.listen_direct addr (fun ~kind:_ _ -> failwith "kaboom") in
      Fun.protect
        ~finally:(fun () -> Netsim.close_listener listener)
        (fun () ->
          (* The failed sink's endpoint is closed before the client's
             half of the handshake goes out. *)
          (match Netsim.connect addr Transport.Unix_sock with
           | exception Transport.Closed -> ()
           | conn ->
             Transport.close conn;
             Alcotest.fail "connection survived a raising sink");
          let log = Vlog.file_contents logger "netsim-log" in
          Alcotest.(check bool) "warning logged" true
            (contains log "kaboom" && contains log addr)))

(* --- the chaos scenario ---------------------------------------------------- *)

(* At-least-once executor: on failure, check whether the side effect
   nevertheless took (the connection may have died after the daemon
   committed the operation), else retry.  This is the client half of the
   "mutating calls are not blindly retried" contract: the driver restores
   the connection but leaves the redo decision here, where the desired
   state is known. *)
let rec at_least_once ~retries op verify =
  match op () with
  | Ok () -> true
  | Error _ when verify () -> true
  | Error _ when retries > 0 ->
    Thread.delay 0.01;
    at_least_once ~retries:(retries - 1) op verify
  | Error _ -> false

(* One workload cycle: define, start, observe, destroy — 4 operations.
   Returns false as soon as an operation cannot be completed. *)
let chaos_cycle conn i =
  let name = Printf.sprintf "chaos-vm-%d" i in
  let xml = Vmm.Domxml.to_xml ~virt_type:"test" (Vm_config.make ~memory_kib:(8 * 1024) name) in
  let lookup () = Domain.lookup_by_name conn name in
  let define_ok =
    (* define of the same config is idempotent daemon-side *)
    at_least_once ~retries:5
      (fun () -> Result.map ignore (Domain.define_xml conn xml))
      (fun () -> Result.is_ok (lookup ()))
  in
  define_ok
  &&
  match lookup () with
  | Error _ -> false
  | Ok dom ->
    let is_active () = Domain.is_active dom in
    at_least_once ~retries:5
      (fun () -> Domain.create dom)
      (fun () -> is_active () = Ok true)
    && at_least_once ~retries:5
         (fun () -> Result.map ignore (Connect.list_domains conn))
         (fun () -> false)
    && at_least_once ~retries:5
         (fun () -> Domain.destroy dom)
         (fun () -> is_active () = Ok false)

let chaos_uri ~resilient name =
  if resilient then
    Printf.sprintf
      "test+unix://%s/?daemon=%s&reconnect=8&reconnect_delay=0.005&reconnect_max_delay=0.05&reconnect_seed=7&keepalive=0.05"
      (fresh_name "chaos") name
  else Printf.sprintf "test+unix://%s/?daemon=%s" (fresh_name "chaos") name

let run_chaos_workload ~resilient name =
  Drv_remote.reset_stats ();
  match Connect.open_uri (chaos_uri ~resilient name) with
  | Error _ -> (0, 25)
  | Ok conn ->
    let completed = ref 0 in
    (try
       for i = 1 to 25 do
         if chaos_cycle conn i then incr completed else raise Exit
       done
     with Exit -> ());
    (try Connect.close conn with _ -> ());
    (!completed, 25)

let test_chaos_workload_with_reconnect_completes () =
  with_daemon (fun name daemon ->
      (* Every accepted connection dies when its 10th frame arrives:
         handshake (identity, open, event-register) plus a handful of
         calls, then the knife.  Reconnect must absorb every cut. *)
      Alcotest.(check bool) "plan attached" true
        (Netsim.set_listener_faults (Daemon.mgmt_address daemon)
           (Some (Faults.plan ~seed:11 [ Faults.Drop_after 10 ])));
      let completed, total = run_chaos_workload ~resilient:true name in
      let stats = Drv_remote.stats () in
      Alcotest.(check int) "every cycle completed" total completed;
      Alcotest.(check bool)
        (Printf.sprintf "reconnected (%d times)" stats.Drv_remote.st_reconnects)
        true (stats.Drv_remote.st_reconnects >= 3);
      Alcotest.(check int) "no budget exhaustion" 0 stats.Drv_remote.st_giveups;
      (* Bounded retries: the transparent (idempotent) retries cannot
         exceed one per reconnect under this workload. *)
      Alcotest.(check bool)
        (Printf.sprintf "retries bounded (%d)" stats.Drv_remote.st_retried_calls)
        true
        (stats.Drv_remote.st_retried_calls <= stats.Drv_remote.st_reconnects * 2);
      Alcotest.(check bool) "recovery latencies recorded" true
        (List.length stats.Drv_remote.st_recovery_latencies
         = stats.Drv_remote.st_reconnects);
      List.iter
        (fun l -> Alcotest.(check bool) "recovery under a second" true (l < 1.0))
        stats.Drv_remote.st_recovery_latencies)

let test_chaos_workload_without_reconnect_fails () =
  with_daemon (fun name daemon ->
      Alcotest.(check bool) "plan attached" true
        (Netsim.set_listener_faults (Daemon.mgmt_address daemon)
           (Some (Faults.plan ~seed:11 [ Faults.Drop_after 10 ])));
      let completed, total = run_chaos_workload ~resilient:false name in
      Alcotest.(check bool)
        (Printf.sprintf "workload broke (%d/%d cycles)" completed total)
        true (completed < total);
      Alcotest.(check int) "and never reconnected" 0
        (Drv_remote.stats ()).Drv_remote.st_reconnects)

let test_reconnect_budget_exhaustion () =
  with_daemon (fun name daemon ->
      Drv_remote.reset_stats ();
      let conn =
        vok
          (Connect.open_uri
             (Printf.sprintf
                "test+unix://%s/?daemon=%s&reconnect=2&reconnect_delay=0.005"
                (fresh_name "exh") name))
      in
      Alcotest.(check bool) "works while daemon lives" true
        (Result.is_ok (Connect.list_domains conn));
      (* Kill the daemon outright: every reconnect attempt is refused. *)
      Daemon.stop daemon;
      (match Connect.list_domains conn with
       | Ok _ -> Alcotest.fail "call succeeded against a stopped daemon"
       | Error e ->
         Alcotest.(check bool) "rpc failure" true (e.Verror.code = Verror.Rpc_failure));
      let stats = Drv_remote.stats () in
      Alcotest.(check int) "gave up once" 1 stats.Drv_remote.st_giveups;
      Alcotest.(check bool) "attempts made" true
        (stats.Drv_remote.st_reconnect_attempts >= 2);
      (* Defunct: no more reconnect attempts, calls fail fast. *)
      let t0 = Unix.gettimeofday () in
      Alcotest.(check bool) "defunct fails" true
        (Result.is_error (Connect.list_domains conn));
      Alcotest.(check bool) "defunct fails fast" true
        (Unix.gettimeofday () -. t0 < 0.5);
      Alcotest.(check int) "no further attempts" stats.Drv_remote.st_reconnect_attempts
        (Drv_remote.stats ()).Drv_remote.st_reconnect_attempts)

let test_reconnect_backoff_within_call_budget () =
  with_daemon (fun name daemon ->
      let uri =
        Printf.sprintf
          "test+unix://%s/?daemon=%s&reconnect=5&reconnect_delay=5&timeout=0.2"
          (fresh_name "bud") name
      in
      let conn = vok (Connect.open_uri uri) in
      Alcotest.(check bool) "works while daemon lives" true
        (Result.is_ok (Connect.list_domains conn));
      Daemon.stop daemon;
      (* The first back-off alone would sleep about 5 s; the call's bound
         is its 0.2 s timeout plus 1 s. *)
      let t0 = Unix.gettimeofday () in
      (match Connect.list_domains conn with
       | Ok _ -> Alcotest.fail "call succeeded against a stopped daemon"
       | Error e ->
         Alcotest.(check bool) "rpc failure" true (e.Verror.code = Verror.Rpc_failure);
         Alcotest.(check bool) ("names the budget: " ^ e.Verror.message) true
           (contains e.Verror.message "budget of 1.2s"));
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool) (Printf.sprintf "within 1.5 s (%.2f s)" elapsed) true
        (elapsed < 1.5);
      (* Not defunct: once the daemon is back, a later call reconnects. *)
      let again = Daemon.start ~name ~config:quiet_config () in
      Fun.protect
        ~finally:(fun () -> Daemon.stop again)
        (fun () ->
          Alcotest.(check bool) "a later call reconnects" true
            (Result.is_ok (Connect.list_domains conn)));
      Connect.close conn)

let () =
  Alcotest.run "faults"
    [
      ( "plan",
        [
          quick "delay" test_delay;
          quick "blackhole" test_blackhole;
          quick "drop-after" test_drop_after;
          quick "corrupt-deterministic" test_corrupt_deterministic;
          quick "refuse-connect" test_refuse_connect;
        ] );
      ( "integrity",
        [
          quick "tcp-checksum" test_tcp_checksum_corruption;
          quick "tls-mac" test_tls_mac_corruption;
        ] );
      ( "keepalive",
        [
          quick "detects-dead-peer" test_keepalive_detects_dead_peer;
          quick "keeps-idle-alive" test_keepalive_keeps_idle_connection_alive;
          quick "count-below-one-refused" test_keepalive_count_below_one_refused;
        ] );
      ( "client",
        [
          quick "call-timeout" test_call_timeout_without_watchdog_threads;
          quick "deadline-races" test_deadline_races;
          quick "one-thread-per-connection" test_one_thread_per_connection;
          quick "close-race" test_close_is_idempotent_and_race_free;
          quick "closed-connection-released" test_closed_connection_released;
        ] );
      ( "drain",
        [
          quick "refuses-calls-answers-pings" test_drain_refuses_calls_but_answers_pings;
          quick "refuses-new-clients" test_draining_server_refuses_new_clients;
          quick "admin-end-to-end" test_admin_drain_end_to_end;
        ] );
      ("logging", [ quick "direct-sink-exception-logged" test_direct_sink_exception_logged ]);
      ( "chaos",
        [
          quick "with-reconnect-completes" test_chaos_workload_with_reconnect_completes;
          quick "without-reconnect-fails" test_chaos_workload_without_reconnect_fails;
          quick "budget-exhaustion" test_reconnect_budget_exhaustion;
          quick "backoff-within-call-budget" test_reconnect_backoff_within_call_budget;
        ] );
    ]
