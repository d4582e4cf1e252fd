(* Readiness-driven reactor: core loop semantics (ordering, edge/level
   triggering, wakeup-during-dispatch, one wakeup per burst), buffer pool
   accounting, and the daemon's reactor front end — including byte-stream
   reassembly, admin authorization, fault-injection parity, and an
   idle-connection mass. *)

open Testutil
module Verror = Ovirt.Verror
module Connect = Ovirt.Connect
module Daemon = Ovirt.Daemon
module Daemon_config = Ovirt.Daemon_config
module Admin = Ovirt.Admin_client
module Reactor = Ovirt.Reactor
module Bufpool = Ovirt.Bufpool
module Chan = Ovnet.Chan
module Transport = Ovnet.Transport
module Netsim = Ovnet.Netsim
module Faults = Ovnet.Faults
module Rpc_packet = Ovrpc.Rpc_packet
module Rp = Protocol.Remote_protocol

let () = Ovirt.initialize ()

let quiet_config =
  {
    Daemon_config.default with
    Daemon_config.log_outputs = [ { Vlog.min_priority = Vlog.Debug; sink = Vlog.Null } ];
  }

let with_daemon ~config f =
  let name = fresh_name "reactd" in
  let daemon = Daemon.start ~name ~config () in
  Fun.protect ~finally:(fun () -> Daemon.stop daemon) (fun () -> f name daemon)

let remote_uri ?(transport = "unix") ~daemon node =
  Printf.sprintf "test+%s://%s/?daemon=%s" transport node daemon

let new_reactor () =
  Reactor.create ~name:(fresh_name "test-reactor")
    ~logger:(Vlog.create ~level:Vlog.Warn ()) ()

let with_reactor f =
  let r = new_reactor () in
  Fun.protect ~finally:(fun () -> Reactor.stop r) (fun () -> f r)

(* --- core loop ----------------------------------------------------------- *)

let test_readiness_ordering () =
  with_reactor (fun r ->
      let a = Chan.create () and b = Chan.create () in
      let order = ref [] in
      let record tag chan () =
        ignore (Chan.try_recv chan);
        order := tag :: !order
      in
      ignore (Reactor.watch_chan r a ~mode:Reactor.Edge (record "a" a));
      ignore (Reactor.watch_chan r b ~mode:Reactor.Edge (record "b" b));
      (* Registration reports no readiness, so these sends produce the
         first hook events; the ready list is FIFO. *)
      Chan.send a "first";
      Chan.send b "second";
      Alcotest.(check bool) "both dispatched" true
        (eventually (fun () -> List.length !order = 2));
      Alcotest.(check (list string)) "fifo order" [ "a"; "b" ] (List.rev !order))

let test_edge_coalesces_level_drains () =
  (* Three messages queued before the watch exists produce exactly one
     readiness event (the kick).  An edge watch that reads one message
     per callback stalls with two stuck; a level watch re-queues itself
     until the channel is dry. *)
  let run mode =
    let r = new_reactor () in
    Fun.protect
      ~finally:(fun () -> Reactor.stop r)
      (fun () ->
        let c = Chan.create () in
        Chan.send c "1";
        Chan.send c "2";
        Chan.send c "3";
        let reads = ref 0 in
        let w =
          Reactor.watch_chan r c ~mode (fun () ->
              match Chan.try_recv c with
              | Some _ -> incr reads
              | None -> ())
        in
        Reactor.kick r w;
        (mode, reads, c))
  in
  let _, edge_reads, edge_chan = run Reactor.Edge in
  let _, level_reads, _ = run Reactor.Level in
  Alcotest.(check bool) "level watch drains all three" true
    (eventually (fun () -> !level_reads = 3));
  Thread.delay 0.1;
  Alcotest.(check int) "edge watch ran once for the coalesced kick" 1 !edge_reads;
  Alcotest.(check int) "edge leftovers still queued" 2 (Chan.pending edge_chan)

let test_wakeup_during_dispatch () =
  with_reactor (fun r ->
      let a = Chan.create () and b = Chan.create () in
      let in_a = ref false and release = ref false and b_ran = ref false in
      ignore
        (Reactor.watch_chan r a ~mode:Reactor.Edge (fun () ->
             ignore (Chan.try_recv a);
             in_a := true;
             while not !release do
               Thread.delay 0.002
             done));
      ignore
        (Reactor.watch_chan r b ~mode:Reactor.Edge (fun () ->
             ignore (Chan.try_recv b);
             b_ran := true));
      Chan.send a "block";
      Alcotest.(check bool) "reactor entered a's callback" true
        (eventually (fun () -> !in_a));
      (* The loop is busy dispatching, not parked in select: readiness
         arriving now must be queued, not lost. *)
      Chan.send b "poke";
      release := true;
      Alcotest.(check bool) "b dispatched after a released the loop" true
        (eventually (fun () -> !b_ran)))

let test_unwatch_stops_callbacks () =
  with_reactor (fun r ->
      let c = Chan.create () in
      let ran = ref false in
      let w = Reactor.watch_chan r c ~mode:Reactor.Level (fun () -> ran := true) in
      Reactor.unwatch r w;
      Chan.send c "ignored";
      Thread.delay 0.08;
      Alcotest.(check bool) "unwatched channel never dispatches" false !ran)

let test_stop_from_callback () =
  let r = new_reactor () in
  let c = Chan.create () in
  let w =
    Reactor.watch_chan r c ~mode:Reactor.Edge (fun () ->
        ignore (Chan.try_recv c);
        Reactor.stop r)
  in
  ignore w;
  Chan.send c "die";
  (* The callback's own stop skips the self-join; this one joins the
     exiting loop thread and must return promptly. *)
  Reactor.stop r;
  Reactor.stop r

let test_stats_counting () =
  with_reactor (fun r ->
      let c = Chan.create () in
      let w = Reactor.watch_chan r c ~mode:Reactor.Edge (fun () -> ignore (Chan.try_recv c)) in
      Chan.send c "x";
      Alcotest.(check bool) "dispatch counted" true
        (eventually (fun () -> (Reactor.stats r).Reactor.dispatches >= 1));
      Alcotest.(check int) "one active watch" 1 (Reactor.stats r).Reactor.watches_active;
      Reactor.unwatch r w;
      Alcotest.(check int) "none after unwatch" 0 (Reactor.stats r).Reactor.watches_active)

let test_burst_one_wakeup () =
  with_reactor (fun r ->
      (* One watch per channel, so every send queues a watch of its own
         and asks for a wakeup. *)
      let chans = List.init 20 (fun _ -> Chan.create ()) in
      let sent = ref false and reads = ref 0 in
      List.iteri
        (fun i c ->
          ignore
            (Reactor.watch_chan r c ~mode:Reactor.Edge (fun () ->
                 (* The first callback holds the loop until the whole
                    burst is sent, so it cannot park again in between. *)
                 if i = 0 then
                   while not !sent do
                     Thread.delay 0.001
                   done;
                 ignore (Chan.try_recv c);
                 incr reads)))
        chans;
      (* The loop counts an iteration under its lock and parks without
         letting go of it, so a counted iteration means it is parked. *)
      Alcotest.(check bool) "loop parked" true
        (eventually (fun () -> (Reactor.stats r).Reactor.loops >= 1));
      Alcotest.(check int) "no wakeup yet" 0 (Reactor.stats r).Reactor.wakeups;
      List.iter (fun c -> Chan.send c "x") chans;
      sent := true;
      Alcotest.(check bool) "burst dispatched" true (eventually (fun () -> !reads = 20));
      Alcotest.(check int) "one wakeup for the burst" 1 (Reactor.stats r).Reactor.wakeups)

(* --- buffer pool --------------------------------------------------------- *)

let test_bufpool_reuse () =
  let p = Bufpool.create ~buf_size:64 ~max_pooled:2 in
  let b1 = Bufpool.take p in
  Alcotest.(check int) "sized" 64 (Bytes.length b1);
  Bufpool.give p b1;
  let b2 = Bufpool.take p in
  Alcotest.(check bool) "pooled buffer reused" true (b1 == b2);
  let s = Bufpool.stats p in
  Alcotest.(check int) "one miss" 1 s.Bufpool.s_misses;
  Alcotest.(check int) "one hit" 1 s.Bufpool.s_hits;
  Alcotest.(check int) "one return" 1 s.Bufpool.s_returns

let test_bufpool_drops () =
  let p = Bufpool.create ~buf_size:64 ~max_pooled:1 in
  (* Grown buffers never re-pool... *)
  Bufpool.give p (Bytes.create 128);
  Alcotest.(check int) "wrong size dropped" 1 (Bufpool.stats p).Bufpool.s_drops;
  Alcotest.(check int) "nothing pooled" 0 (Bufpool.stats p).Bufpool.s_available;
  (* ...and the pool never holds more than max_pooled. *)
  let b1 = Bufpool.take p and b2 = Bufpool.take p in
  Bufpool.give p b1;
  Bufpool.give p b2;
  let s = Bufpool.stats p in
  Alcotest.(check int) "capped at one" 1 s.Bufpool.s_available;
  Alcotest.(check int) "overflow dropped" 2 s.Bufpool.s_drops

(* --- daemon front end ---------------------------------------------------- *)

let test_reactor_daemon_all_transports () =
  with_daemon ~config:quiet_config (fun name daemon ->
      Alcotest.(check int) "reactor loops" quiet_config.Daemon_config.reactor_threads
        (Array.length (Daemon.reactors daemon));
      Alcotest.(check bool) "has pool" true (Daemon.buffer_pool daemon <> None);
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
        [ "unix"; "tcp"; "tls" ];
      let dispatched =
        Array.fold_left
          (fun acc r -> acc + (Reactor.stats r).Reactor.dispatches)
          0 (Daemon.reactors daemon)
      in
      Alcotest.(check bool) "reactors did the reading" true (dispatched > 0))

(* The reactor is the only front end: a config file naming the removed
   thread-per-connection model is refused, and the error says which key. *)
let test_io_model_config () =
  (match Daemon_config.parse "io_model = \"threaded\"" with
   | Ok _ -> Alcotest.fail "io_model = \"threaded\" accepted"
   | Error msg ->
     Alcotest.(check bool) ("error names the key: " ^ msg) true
       (String.starts_with ~prefix:"io_model:" msg));
  let cfg = sok (Daemon_config.parse "io_model = \"reactor\"") in
  Alcotest.(check bool) "reactor parses" true
    (cfg.Daemon_config.io_model = Daemon_config.Io_reactor)

let echo_packet ~serial body =
  let header =
    Rpc_packet.call_header ~program:Rp.program ~version:Rp.version
      ~procedure:(Rp.proc_to_int Rp.Proc_echo) ~serial
  in
  Rpc_packet.encode header body

let expect_echo raw ~serial expected =
  match Transport.recv_opt raw ~timeout_s:2.0 with
  | Some wire ->
    let rh, body = Rpc_packet.decode wire in
    Alcotest.(check bool) "ok status" true (rh.Rpc_packet.status = Rpc_packet.Status_ok);
    Alcotest.(check int) "serial" serial rh.Rpc_packet.serial;
    Alcotest.(check string) "echo body" expected body
  | None -> Alcotest.fail "no echo reply"

let test_coalesced_packets () =
  (* Two whole packets in one chunk: the state machine must peel both. *)
  with_daemon ~config:quiet_config (fun name _ ->
      let raw = Netsim.connect (name ^ "-sock") Transport.Unix_sock in
      Transport.send raw (echo_packet ~serial:1 "alpha" ^ echo_packet ~serial:2 "beta");
      expect_echo raw ~serial:1 "alpha";
      expect_echo raw ~serial:2 "beta";
      Transport.close raw)

let test_split_packet_reassembly () =
  (* One packet split across two chunks: the first fragment is stashed
     in a pool buffer until the remainder arrives. *)
  with_daemon ~config:quiet_config (fun name _ ->
      let raw = Netsim.connect (name ^ "-sock") Transport.Unix_sock in
      let pkt = echo_packet ~serial:9 "reassemble-me" in
      let cut = 7 in
      Transport.send raw (String.sub pkt 0 cut);
      Thread.delay 0.02;
      Transport.send raw (String.sub pkt cut (String.length pkt - cut));
      expect_echo raw ~serial:9 "reassemble-me";
      Transport.close raw)

let test_malformed_drops_connection () =
  with_daemon ~config:quiet_config (fun name _ ->
      let raw = Netsim.connect (name ^ "-sock") Transport.Unix_sock in
      Transport.send raw "certainly not an rpc packet";
      let closed =
        eventually (fun () ->
            match Transport.recv_opt raw ~timeout_s:0.05 with
            | exception Transport.Closed -> true
            | Some _ | None -> false)
      in
      Alcotest.(check bool) "reactor dropped the connection" true closed)

let test_admin_requires_root () =
  with_daemon ~config:quiet_config (fun name _ ->
      let identity =
        Transport.{ uid = 1000; gid = 1000; pid = 5; username = "eve"; groupname = "eve" }
      in
      (match Admin.connect ~daemon:name ~identity () with
       | Error e ->
         Alcotest.(check bool) "refused" true
           (e.Verror.code = Verror.Auth_failed || e.Verror.code = Verror.Rpc_failure)
       | Ok _ -> Alcotest.fail "non-root admin connection accepted");
      (* Root still gets in over the same reactor path. *)
      let admin = vok (Admin.connect ~daemon:name ()) in
      Alcotest.(check (list string)) "both servers" [ "libvirtd"; "admin" ]
        (vok (Admin.list_servers admin));
      Admin.close admin)

let test_fault_parity_under_reactor () =
  (* Chaos reaches reactor connections: a listener fault plan kills a
     fresh connection mid-stream; the daemon survives, old connections
     are untouched, and clearing the plan restores normal accepts. *)
  with_daemon ~config:quiet_config (fun name _ ->
      let survivor = vok (Connect.open_uri (remote_uri ~daemon:name (fresh_name "s"))) in
      ignore (vok (Connect.list_domains survivor));
      Alcotest.(check bool) "plan attached" true
        (Netsim.set_listener_faults (name ^ "-sock")
           (Some (Faults.plan ~seed:7 [ Faults.Drop_after 4 ])));
      (match Connect.open_uri (remote_uri ~daemon:name (fresh_name "d")) with
       | Error _ -> () (* the handshake itself may eat the budget *)
       | Ok doomed ->
         let dead =
           eventually ~timeout_s:4.0 (fun () ->
               match Connect.list_domains doomed with
               | Error _ -> true
               | Ok _ -> false)
         in
         Alcotest.(check bool) "faulted connection dies" true dead);
      Alcotest.(check bool) "plan cleared" true
        (Netsim.set_listener_faults (name ^ "-sock") None);
      ignore (vok (Connect.list_domains survivor));
      let fresh = vok (Connect.open_uri (remote_uri ~daemon:name (fresh_name "f"))) in
      ignore (vok (Connect.list_domains fresh));
      Connect.close fresh;
      Connect.close survivor)

let test_idle_mass_with_hot_traffic () =
  (* A crowd of idle connections costs no threads and no buffers; calls
     still flow for the busy ones. *)
  let config =
    {
      quiet_config with
      Daemon_config.max_clients = 400;
      max_anonymous_clients = 400;
    }
  in
  with_daemon ~config (fun name daemon ->
      let idle =
        List.init 150 (fun _ -> Netsim.connect (name ^ "-sock") Transport.Unix_sock)
      in
      let raw = Netsim.connect (name ^ "-sock") Transport.Unix_sock in
      for i = 1 to 20 do
        Transport.send raw (echo_packet ~serial:i "ping");
        expect_echo raw ~serial:i "ping"
      done;
      let conn = vok (Connect.open_uri (remote_uri ~daemon:name (fresh_name "n"))) in
      Alcotest.(check bool) "api call amid idle mass" true
        (List.length (vok (Connect.list_domains conn)) = 1);
      (match Daemon.buffer_pool daemon with
       | None -> Alcotest.fail "reactor daemon has no pool"
       | Some pool ->
         let s = Bufpool.stats pool in
         Alcotest.(check bool) "idle connections borrow no buffers" true
           (s.Bufpool.s_hits + s.Bufpool.s_misses < 20));
      Connect.close conn;
      Transport.close raw;
      List.iter Transport.close idle)

(* A raising watch callback is reported on the daemon's own logger, so
   the daemon's configured outputs, and an admin change to them, decide
   where the warning goes. *)
let test_callback_warning_uses_daemon_logger () =
  let config =
    {
      quiet_config with
      Daemon_config.log_level = Vlog.Warn;
      log_outputs = [ { Vlog.min_priority = Vlog.Warn; sink = Vlog.Journald } ];
    }
  in
  with_daemon ~config (fun name daemon ->
      let logger = Daemon.logger daemon in
      let r = (Daemon.reactors daemon).(0) in
      let c = Chan.create () in
      let w =
        Reactor.watch_chan r c ~mode:Reactor.Edge (fun () ->
            ignore (Chan.try_recv c);
            failwith "watch-boom")
      in
      let mentions line =
        let sub = "watch-boom" in
        let n = String.length sub in
        let rec at i =
          i + n <= String.length line && (String.sub line i n = sub || at (i + 1))
        in
        at 0
      in
      let booms lines = List.length (List.filter mentions lines) in
      Fun.protect
        ~finally:(fun () -> Reactor.unwatch r w)
        (fun () ->
          Chan.send c "x";
          Alcotest.(check bool) "warning in the daemon's journal" true
            (eventually (fun () -> booms (Vlog.journal_contents logger) = 1));
          let admin = vok (Admin.connect ~daemon:name ()) in
          vok (Admin.set_logging_outputs admin "3:file:/var/log/reactor.log");
          Admin.close admin;
          Chan.send c "y";
          Alcotest.(check bool) "warning follows the new output" true
            (eventually (fun () ->
                 booms
                   (String.split_on_char '\n'
                      (Vlog.file_contents logger "/var/log/reactor.log"))
                 = 1));
          Alcotest.(check int) "journal got nothing more" 1
            (booms (Vlog.journal_contents logger))))

let () =
  Alcotest.run "reactor"
    [
      ( "core loop",
        [
          quick "readiness dispatch is fifo" test_readiness_ordering;
          quick "edge coalesces, level drains" test_edge_coalesces_level_drains;
          quick "readiness during dispatch is queued" test_wakeup_during_dispatch;
          quick "unwatch stops callbacks" test_unwatch_stops_callbacks;
          quick "stop from inside a callback" test_stop_from_callback;
          quick "stats" test_stats_counting;
          quick "a burst to a parked loop is one wakeup" test_burst_one_wakeup;
        ] );
      ( "buffer pool",
        [
          quick "take/give reuses buffers" test_bufpool_reuse;
          quick "wrong-size and overflow drop" test_bufpool_drops;
        ] );
      ( "daemon front end",
        [
          quick "all transports over reactor" test_reactor_daemon_all_transports;
          quick "io_model config is reactor only" test_io_model_config;
          quick "coalesced packets peeled" test_coalesced_packets;
          quick "split packet reassembled" test_split_packet_reassembly;
          quick "malformed packet drops connection" test_malformed_drops_connection;
          quick "admin socket refuses non-root" test_admin_requires_root;
          quick "callback warnings use the daemon's logger"
            test_callback_warning_uses_daemon_logger;
          quick "fault injection parity" test_fault_parity_under_reactor;
          quick "idle mass with hot traffic" test_idle_mass_with_hot_traffic;
        ] );
    ]
