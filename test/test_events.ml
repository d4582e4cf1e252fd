(* Resumable event streams (protocol v1.6): wire numbering stability and
   codec roundtrips, the replay ring's stamping/retention/gap semantics,
   end-to-end sequence monotonicity through the daemon, exactly-once
   delivery across dozens of forced disconnects, the cache flush a gap
   verdict forces (no stale reads), and the append-only compatibility
   contract — a v1.5-pinned daemon rejects the new procedures with the
   byte-identical unknown-procedure error and clients fall back to the
   plain registration. *)

open Testutil
module Verror = Ovirt.Verror
module Connect = Ovirt.Connect
module Domain = Ovirt.Domain
module Events = Ovirt.Events
module Daemon = Ovirt.Daemon
module Daemon_config = Ovirt.Daemon_config
module Server_obj = Ovirt.Server_obj
module Admin = Ovirt.Admin_client
module Transport = Ovnet.Transport
module Netsim = Ovnet.Netsim
module Faults = Ovnet.Faults
module Eventring = Ovdaemon.Eventring
module Rp = Protocol.Remote_protocol

let () = Ovirt.initialize ()

let quiet_config =
  {
    Daemon_config.default with
    Daemon_config.log_outputs = [ { Vlog.min_priority = Vlog.Debug; sink = Vlog.Null } ];
  }

let with_daemon ?(config = quiet_config) f =
  let name = fresh_name "evd" in
  let daemon = Daemon.start ~name ~config () in
  Fun.protect ~finally:(fun () -> Daemon.stop daemon) (fun () -> f name daemon)

(* Events compared as (seq, domain, lifecycle) triples. *)
let triple_of ev =
  (ev.Events.seq, ev.Events.domain_name, Events.lifecycle_name ev.Events.lifecycle)

let triples = Alcotest.(list (triple int string string))

(* --- wire stability -------------------------------------------------------- *)

let test_numbering_stable () =
  Alcotest.(check int) "Proc_event_resume wire number" 53
    (Rp.proc_to_int Rp.Proc_event_resume);
  Alcotest.(check int) "Proc_event_lifecycle_seq wire number" 54
    (Rp.proc_to_int Rp.Proc_event_lifecycle_seq);
  Alcotest.(check int) "resume gated on v1.6" 6
    (Rp.proc_min_minor Rp.Proc_event_resume);
  Alcotest.(check int) "seq push gated on v1.6" 6
    (Rp.proc_min_minor Rp.Proc_event_lifecycle_seq);
  Alcotest.(check bool) "this build speaks v1.6" true (Rp.minor >= 6);
  Alcotest.(check int) "Ev_resync wire code" 11
    (Events.lifecycle_to_int Events.Ev_resync);
  (match Rp.proc_of_int 53 with
   | Ok Rp.Proc_event_resume -> ()
   | _ -> Alcotest.fail "53 does not decode to Proc_event_resume");
  match Rp.proc_of_int 54 with
  | Ok Rp.Proc_event_lifecycle_seq -> ()
  | _ -> Alcotest.fail "54 does not decode to Proc_event_lifecycle_seq"

let test_codec_roundtrips () =
  List.iter
    (fun seq ->
      Alcotest.(check int) "event_resume roundtrip" seq
        (let c = Rp.event_resume.Rp.sg_args in
         Xdr.decode c (Xdr.encode c seq)))
    [ -1; 0; 1; 123456789 ];
  let ev = { Events.domain_name = "vm-7"; lifecycle = Events.Ev_suspended; seq = 42 } in
  Alcotest.(check triples) "seq_event roundtrip" [ triple_of ev ]
    [ triple_of (Xdr.decode Rp.seq_event (Xdr.encode Rp.seq_event ev)) ];
  let reply =
    {
      Rp.rr_gap = true;
      rr_head = 99;
      rr_oldest = 90;
      rr_events =
        [
          { Events.domain_name = "a"; lifecycle = Events.Ev_defined; seq = 98 };
          { Events.domain_name = "b"; lifecycle = Events.Ev_stopped; seq = 99 };
        ];
    }
  in
  let back = Xdr.decode Rp.resume_reply (Xdr.encode Rp.resume_reply reply) in
  Alcotest.(check bool) "gap flag" reply.Rp.rr_gap back.Rp.rr_gap;
  Alcotest.(check int) "head" reply.Rp.rr_head back.Rp.rr_head;
  Alcotest.(check int) "oldest" reply.Rp.rr_oldest back.Rp.rr_oldest;
  Alcotest.(check triples) "replayed events"
    (List.map triple_of reply.Rp.rr_events)
    (List.map triple_of back.Rp.rr_events)

(* --- the replay ring ------------------------------------------------------- *)

let emit_n bus n =
  for i = 1 to n do
    Events.emit bus ~domain_name:(string_of_int i) Events.Ev_started
  done

let test_ring_stamps_and_retains () =
  let bus = Events.create_bus () in
  let ring = Eventring.create ~capacity:4 ~bus in
  emit_n bus 6;
  let st = Eventring.stats ring in
  Alcotest.(check int) "head advanced" 6 st.Eventring.er_head;
  Alcotest.(check int) "oldest retained" 3 st.Eventring.er_oldest;
  Alcotest.(check int) "occupancy bounded" 4 st.Eventring.er_occupancy;
  Alcotest.(check int) "emitted counted" 6 st.Eventring.er_emitted;
  Alcotest.(check int) "capacity recorded" 4 st.Eventring.er_capacity

let test_ring_resume_replays_exactly () =
  let bus = Events.create_bus () in
  let ring = Eventring.create ~capacity:8 ~bus in
  emit_n bus 6;
  let got = ref [] in
  let _id, reply = Eventring.resume ring ~last_seq:3 (fun ev -> got := ev :: !got) in
  Alcotest.(check bool) "no gap" false reply.Rp.rr_gap;
  Alcotest.(check int) "head" 6 reply.Rp.rr_head;
  Alcotest.(check triples) "replay is exactly the missed suffix"
    [ (4, "4", "started"); (5, "5", "started"); (6, "6", "started") ]
    (List.map triple_of reply.Rp.rr_events);
  (* the same subscription carries on with live, stamped events *)
  Events.emit bus ~domain_name:"7" Events.Ev_stopped;
  Alcotest.(check triples) "live events stamped past the replay"
    [ (7, "7", "stopped") ]
    (List.map triple_of !got)

let test_ring_fresh_and_caught_up () =
  let bus = Events.create_bus () in
  let ring = Eventring.create ~capacity:8 ~bus in
  emit_n bus 3;
  let _id, fresh = Eventring.resume ring ~last_seq:(-1) (fun _ -> ()) in
  Alcotest.(check bool) "fresh: no gap" false fresh.Rp.rr_gap;
  Alcotest.(check triples) "fresh: no replay" [] (List.map triple_of fresh.Rp.rr_events);
  Alcotest.(check int) "fresh: told the head" 3 fresh.Rp.rr_head;
  let _id, caught = Eventring.resume ring ~last_seq:3 (fun _ -> ()) in
  Alcotest.(check bool) "caught up: no gap" false caught.Rp.rr_gap;
  Alcotest.(check triples) "caught up: empty replay" []
    (List.map triple_of caught.Rp.rr_events)

let test_ring_wrap_is_a_gap () =
  let bus = Events.create_bus () in
  let ring = Eventring.create ~capacity:2 ~bus in
  emit_n bus 5;
  (* retained: 4..5.  A client at 3 can still be made whole... *)
  let _id, edge = Eventring.resume ring ~last_seq:3 (fun _ -> ()) in
  Alcotest.(check bool) "oldest-1 is whole" false edge.Rp.rr_gap;
  Alcotest.(check triples) "full retained suffix replayed"
    [ (4, "4", "started"); (5, "5", "started") ]
    (List.map triple_of edge.Rp.rr_events);
  (* ...a client at 1 cannot, and neither can a position from a future
     (different daemon incarnation) stream. *)
  List.iter
    (fun last_seq ->
      let _id, reply = Eventring.resume ring ~last_seq (fun _ -> ()) in
      Alcotest.(check bool)
        (Printf.sprintf "last_seq %d is a gap" last_seq)
        true reply.Rp.rr_gap;
      Alcotest.(check triples) "gap replays nothing" []
        (List.map triple_of reply.Rp.rr_events);
      Alcotest.(check int) "gap still reports the head" 5 reply.Rp.rr_head;
      Alcotest.(check int) "and the oldest retained" 4 reply.Rp.rr_oldest)
    [ 1; 99 ];
  let st = Eventring.stats ring in
  Alcotest.(check int) "gaps counted" 2 st.Eventring.er_gaps;
  Alcotest.(check int) "resumes counted" 3 st.Eventring.er_resumes

let test_ring_unsubscribe () =
  let bus = Events.create_bus () in
  let ring = Eventring.create ~capacity:4 ~bus in
  let got = ref 0 in
  let id, _ = Eventring.resume ring ~last_seq:(-1) (fun _ -> incr got) in
  emit_n bus 2;
  Alcotest.(check int) "subscribed: delivered" 2 !got;
  Eventring.unsubscribe ring id;
  emit_n bus 2;
  Alcotest.(check int) "unsubscribed: no more deliveries" 2 !got;
  Alcotest.(check int) "subscriber count drops" 0
    (Eventring.stats ring).Eventring.er_subscribers

(* --- end-to-end through the daemon ----------------------------------------- *)

(* The producer opens the same test-driver node directly (no transport):
   the node registry is process-global, so its lifecycle traffic lands on
   the very bus the daemon's ring taps, while the fault plan on the
   daemon's listener only ever cuts the subscriber. *)
let producer_for host = vok (Connect.open_uri ("test://" ^ host ^ "/"))

let lifecycle_cycle producer ~host i =
  let dom =
    define_and_start producer ~virt_type:"test"
      ~name:(Printf.sprintf "%s-d%d" host i) ()
  in
  vok (Domain.destroy dom)

let test_seq_monotonic_through_daemon () =
  with_daemon (fun name _daemon ->
      let host = fresh_name "evmono" in
      let sub =
        vok
          (Connect.open_uri
             (Printf.sprintf "test+unix://%s/?daemon=%s" host name))
      in
      let producer = producer_for host in
      for i = 1 to 5 do
        lifecycle_cycle producer ~host i
      done;
      (* define + start + destroy = 3 events per cycle *)
      Alcotest.(check bool) "all pushes arrived" true
        (eventually (fun () ->
             List.length (vok (Connect.event_history sub)) >= 15));
      let seqs =
        List.map (fun ev -> ev.Events.seq) (vok (Connect.event_history sub))
      in
      Alcotest.(check (list int)) "contiguous stream positions from 1"
        (List.init (List.length seqs) (fun i -> i + 1))
        seqs;
      Connect.close sub;
      Connect.close producer)

let test_replay_exactly_once_across_disconnects () =
  with_daemon (fun name daemon ->
      Drv_remote.reset_stats ();
      let host = fresh_name "evchaos" in
      Alcotest.(check bool) "plan attached" true
        (Netsim.set_listener_faults (Daemon.mgmt_address daemon)
           (Some (Faults.plan ~seed:13 [ Faults.Drop_after 8 ])));
      let sub =
        vok
          (Connect.open_uri
             (Printf.sprintf
                "test+unix://%s/?daemon=%s&reconnect=8&reconnect_delay=0.005&reconnect_max_delay=0.05&reconnect_seed=7"
                host name))
      in
      let mu = Mutex.create () in
      let seen = ref [] in
      let count () =
        Mutex.lock mu;
        let n = List.length !seen in
        Mutex.unlock mu;
        n
      in
      ignore
        (vok
           (Connect.subscribe_events sub (fun ev ->
                if ev.Events.seq > 0 then begin
                  Mutex.lock mu;
                  seen := ev.Events.seq :: !seen;
                  Mutex.unlock mu
                end))
          : Events.subscription);
      let producer = producer_for host in
      (* churn lifecycle traffic through cut after cut: the subscriber's
         own reads burn daemon-side frames, marching every connection into
         the Drop_after knife; transparent retries absorb each cut. *)
      let cycles = ref 0 in
      while
        (Drv_remote.stats ()).Drv_remote.st_reconnects < 20 && !cycles < 400
      do
        incr cycles;
        lifecycle_cycle producer ~host !cycles;
        ignore (Connect.list_domains sub)
      done;
      let mid = Drv_remote.stats () in
      Alcotest.(check bool)
        (Printf.sprintf "past twenty disconnects (%d reconnects in %d cycles)"
           mid.Drv_remote.st_reconnects !cycles)
        true
        (mid.Drv_remote.st_reconnects >= 20);
      (* now one clean outage with traffic inside it: sever the subscriber
         daemon-side, emit while it is away, and let the next call's
         resume replay what was missed. *)
      Alcotest.(check bool) "plan detached" true
        (Netsim.set_listener_faults (Daemon.mgmt_address daemon) None);
      let admin = vok (Admin.connect ~daemon:name ()) in
      let srv = vok (Admin.lookup_server admin "libvirtd") in
      List.iter
        (fun c -> vok (Admin.client_disconnect srv c.Admin.cl_id))
        (vok (Admin.list_clients srv));
      let dsrv = Option.get (Daemon.find_server daemon "libvirtd") in
      Alcotest.(check bool) "severed" true
        (eventually (fun () -> fst (Server_obj.client_counts dsrv) = 0));
      lifecycle_cycle producer ~host (!cycles + 1);
      lifecycle_cycle producer ~host (!cycles + 2);
      ignore (vok (Connect.list_domains sub));
      (* the daemon's head is the ground truth for "nothing was lost" *)
      let est = vok (Admin.event_stats admin) in
      let head = est.Admin.es_head_seq in
      Alcotest.(check bool)
        (Printf.sprintf "every position delivered (%d of %d)" (count ()) head)
        true
        (eventually ~timeout_s:5.0 (fun () ->
             ignore (Connect.list_domains sub);
             count () >= head));
      Mutex.lock mu;
      let raw = !seen in
      Mutex.unlock mu;
      let seqs = List.sort_uniq compare raw in
      Alcotest.(check int) "no duplicates" (List.length raw) (List.length seqs);
      Alcotest.(check (list int)) "no silent losses: exactly 1..head"
        (List.init head (fun i -> i + 1))
        seqs;
      let stats = Drv_remote.stats () in
      Alcotest.(check bool)
        (Printf.sprintf "replay recovered the outage traffic (%d events)"
           stats.Drv_remote.st_events_replayed)
        true
        (stats.Drv_remote.st_events_replayed >= 6);
      Alcotest.(check int) "no gaps: the ring always retained our position" 0
        stats.Drv_remote.st_event_gaps;
      Alcotest.(check int) "no reconnect give-ups" 0 stats.Drv_remote.st_giveups;
      Alcotest.(check int) "one ring serves the node" 1 est.Admin.es_rings;
      Alcotest.(check int) "daemon counted no gaps either" 0 est.Admin.es_gapped;
      Admin.close admin;
      Connect.close sub;
      Connect.close producer)

(* An autostart flip on one connection reaches another connection's
   event-maintained cache (default URI: events on, no TTL): the driver
   emits the defined/updated event when the flag changes, and without it
   the other cache would serve the old flag for ever. *)
let test_autostart_reaches_other_caches () =
  with_daemon (fun name _daemon ->
      let host = fresh_name "evauto" in
      let direct = vok (Connect.open_uri ("qemu://" ^ host ^ "/system")) in
      let dom_name = host ^ "-vm" in
      ignore
        (vok
           (Domain.define_xml direct
              (Vmm.Domxml.to_xml ~virt_type:"kvm" (Vmm.Vm_config.make ~memory_kib:8192 dom_name))));
      let remote () =
        vok (Connect.open_uri (Printf.sprintf "qemu+unix://%s/system?daemon=%s" host name))
      in
      let a = remote () and b = remote () in
      let adom = vok (Domain.lookup_by_name a dom_name) in
      let bdom = vok (Domain.lookup_by_name b dom_name) in
      Alcotest.(check bool) "B caches the clear flag" false (vok (Domain.get_autostart bdom));
      Alcotest.(check bool) "B reads it again" false (vok (Domain.get_autostart bdom));
      vok (Domain.set_autostart adom true);
      Alcotest.(check bool) "A reads its own write" true (vok (Domain.get_autostart adom));
      Alcotest.(check bool) "B sees A's flag" true
        (eventually (fun () -> vok (Domain.get_autostart bdom)));
      vok (Domain.set_autostart adom false);
      Alcotest.(check bool) "B sees it cleared" true
        (eventually (fun () -> not (vok (Domain.get_autostart bdom))));
      List.iter Connect.close [ a; b; direct ])

let test_gap_flushes_caches_no_stale_reads () =
  let config = { quiet_config with Daemon_config.event_ring = 2 } in
  with_daemon ~config (fun name daemon ->
      Drv_remote.reset_stats ();
      let host = fresh_name "evgap" in
      let producer = producer_for host in
      let dom_name = host ^ "-vm" in
      let pdom = define_and_start producer ~virt_type:"test" ~name:dom_name () in
      let sub =
        vok
          (Connect.open_uri
             (Printf.sprintf
                "test+unix://%s/?daemon=%s&reconnect=8&reconnect_delay=0.005"
                host name))
      in
      let sdom = vok (Domain.lookup_by_name sub dom_name) in
      (* cache the running state; with events on, the entry has no TTL, so
         only an invalidation or a flush can ever refresh it *)
      Alcotest.(check bool) "running before the outage" true
        (vok (Domain.is_active sdom));
      (* sever the subscriber daemon-side *)
      let admin = vok (Admin.connect ~daemon:name ()) in
      let srv = vok (Admin.lookup_server admin "libvirtd") in
      List.iter
        (fun c -> vok (Admin.client_disconnect srv c.Admin.cl_id))
        (vok (Admin.list_clients srv));
      let dsrv = Option.get (Daemon.find_server daemon "libvirtd") in
      Alcotest.(check bool) "severed" true
        (eventually (fun () -> fst (Server_obj.client_counts dsrv) = 0));
      (* while the client is away: the cached domain stops and the tiny
         ring (capacity 2) wraps far past the client's position *)
      vok (Domain.destroy pdom);
      let other = define_and_start producer ~virt_type:"test" ~name:(host ^ "-other") () in
      vok (Domain.destroy other);
      (* force the reconnect with an uncached call: it fails on the severed
         wire, reconnects, and the resume comes back with a gap verdict that
         flushes the cache wholesale.  (The cached read alone would race the
         receiver thread noticing the close — until it does, the no-TTL
         entry is still served.)  After the flush the read below must hit
         the daemon — a stale cache would still say "running". *)
      ignore (vok (Connect.list_domains sub));
      Alcotest.(check bool) "no stale read after the gap" false
        (vok (Domain.is_active sdom));
      Alcotest.(check bool) "resync event reached subscribers" true
        (List.exists
           (fun ev -> ev.Events.lifecycle = Events.Ev_resync)
           (vok (Connect.event_history sub)));
      let stats = Drv_remote.stats () in
      Alcotest.(check bool)
        (Printf.sprintf "gap counted (%d)" stats.Drv_remote.st_event_gaps)
        true
        (stats.Drv_remote.st_event_gaps >= 1);
      Alcotest.(check bool) "reconnected" true (stats.Drv_remote.st_reconnects >= 1);
      let est = vok (Admin.event_stats admin) in
      Alcotest.(check bool) "daemon served the gap verdict" true
        (est.Admin.es_gapped >= 1);
      Alcotest.(check bool) "both resumes counted" true (est.Admin.es_resumes >= 2);
      Admin.close admin;
      Connect.close sub;
      Connect.close producer)

(* --- compatibility with a v1.5 daemon -------------------------------------- *)

let v15_config = { quiet_config with Daemon_config.proto_minor = 5 }

let test_v15_daemon_rejects_new_procs () =
  with_daemon ~config:v15_config (fun _name daemon ->
      let rpc =
        vok
          (Rpc_client.connect ~address:(Daemon.mgmt_address daemon)
             ~kind:Transport.Unix_sock ~program:Rp.program ~version:Rp.version ())
      in
      Fun.protect
        ~finally:(fun () -> Rpc_client.close rpc)
        (fun () ->
          let expect_unknown proc body =
            match
              Rpc_client.call rpc ~procedure:(Rp.proc_to_int proc) ~body ()
            with
            | Ok _ ->
              Alcotest.failf "v1.5 daemon accepted procedure %d"
                (Rp.proc_to_int proc)
            | Error e ->
              Alcotest.(check bool) "rpc failure" true
                (e.Verror.code = Verror.Rpc_failure);
              (* byte-identical to a build that has never heard of the
                 procedure: clients key version negotiation on this *)
              Alcotest.(check string) "unknown-procedure error"
                (Printf.sprintf "unknown remote procedure %d" (Rp.proc_to_int proc))
                e.Verror.message
          in
          expect_unknown Rp.Proc_event_resume
            (Xdr.encode Rp.event_resume.Rp.sg_args (-1));
          expect_unknown Rp.Proc_event_lifecycle_seq
            (Xdr.encode Rp.seq_event
               { Events.domain_name = "d"; lifecycle = Events.Ev_started; seq = 1 })))

let test_v15_daemon_client_falls_back_to_plain () =
  with_daemon ~config:v15_config (fun name _daemon ->
      Drv_remote.reset_stats ();
      let host = fresh_name "evplain" in
      (* resume=1 is the default: against the old daemon the client must
         silently fall back to the plain registration *)
      let sub =
        vok
          (Connect.open_uri
             (Printf.sprintf "test+unix://%s/?daemon=%s" host name))
      in
      let producer = producer_for host in
      lifecycle_cycle producer ~host 1;
      Alcotest.(check bool) "events still flow" true
        (eventually (fun () ->
             List.length (vok (Connect.event_history sub)) >= 3));
      List.iter
        (fun ev ->
          Alcotest.(check int) "legacy pushes are unsequenced" 0 ev.Events.seq)
        (vok (Connect.event_history sub));
      let stats = Drv_remote.stats () in
      Alcotest.(check int) "no replays against an old daemon" 0
        stats.Drv_remote.st_events_replayed;
      Alcotest.(check int) "no gaps against an old daemon" 0
        stats.Drv_remote.st_event_gaps;
      Connect.close sub;
      Connect.close producer)

let () =
  Alcotest.run "events"
    [
      ( "wire",
        [
          quick "numbering-stable" test_numbering_stable;
          quick "codec-roundtrips" test_codec_roundtrips;
        ] );
      ( "ring",
        [
          quick "stamps-and-retains" test_ring_stamps_and_retains;
          quick "resume-replays-exactly" test_ring_resume_replays_exactly;
          quick "fresh-and-caught-up" test_ring_fresh_and_caught_up;
          quick "wrap-is-a-gap" test_ring_wrap_is_a_gap;
          quick "unsubscribe" test_ring_unsubscribe;
        ] );
      ( "daemon",
        [
          quick "seq-monotonic" test_seq_monotonic_through_daemon;
          quick "replay-exactly-once" test_replay_exactly_once_across_disconnects;
          quick "gap-flushes-caches" test_gap_flushes_caches_no_stale_reads;
          quick "autostart-reaches-other-caches" test_autostart_reaches_other_caches;
        ] );
      ( "compat",
        [
          quick "v15-rejects-new-procs" test_v15_daemon_rejects_new_procs;
          quick "v15-falls-back-to-plain" test_v15_daemon_client_falls_back_to_plain;
        ] );
    ]
