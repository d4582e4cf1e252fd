(* Federated control plane: v1.7 wire numbering and codecs, consistent-
   hash placement, the member health state machine and the single shared
   prober, degraded scatter-gather under member death (chaos), shard
   thread reuse and a slow member that stalls nobody else, cross-
   shard batch refusal, journaled cross-daemon migration end-to-end and
   a crash-point sweep across every journaled boundary, the admin
   fleet-status procedure, and (gated by OVIRT_FLEET_SUITE=1) a
   full-surface pass over a 3-member in-process fleet. *)

open Testutil
module Verror = Ovirt.Verror
module Connect = Ovirt.Connect
module Domain = Ovirt.Domain
module Driver = Ovirt.Driver
module Events = Ovirt.Events
module Daemon = Ovirt.Daemon
module Daemon_config = Ovirt.Daemon_config
module Fleet = Ovirt.Fleet
module Admin = Ovirt.Admin_client
module Transport = Ovnet.Transport
module Netsim = Ovnet.Netsim
module Faults = Ovnet.Faults
module Rp = Protocol.Remote_protocol
module Ap = Protocol.Admin_protocol
module Vm_config = Vmm.Vm_config

let () = Ovirt.initialize ()

let quiet_config =
  {
    Daemon_config.default with
    Daemon_config.log_outputs =
      [ { Vlog.min_priority = Vlog.Debug; sink = Vlog.Null } ];
  }

let dom_xml ?uuid name =
  Vmm.Domxml.to_xml ~virt_type:"test"
    (Vm_config.make ?uuid ~memory_kib:(8 * 1024) name)

(* A fleet member: its own daemon in front of its own test-driver node. *)
type memberd = {
  md_member : string;  (** name inside the fleet *)
  md_daemon : string;  (** daemon (socket) name *)
  md_uri : string;
  mutable md_handle : Ovdaemon.Daemon.t option;
}

let start_member tag =
  let dname = fresh_name ("fld-" ^ tag) in
  let node = fresh_name ("fln-" ^ tag) in
  let handle = Daemon.start ~name:dname ~config:quiet_config () in
  {
    md_member = tag;
    md_daemon = dname;
    md_uri = Printf.sprintf "test+unix://%s/?daemon=%s" node dname;
    md_handle = Some handle;
  }

let kill_member m =
  match m.md_handle with
  | Some h ->
    Daemon.stop h;
    m.md_handle <- None
  | None -> ()

let with_members tags f =
  let members = List.map start_member tags in
  Fun.protect
    ~finally:(fun () -> List.iter kill_member members)
    (fun () -> f members)

let fleet_of ?(slice = 1.0) members =
  Fleet.create
    ~name:(fresh_name "fleet")
    ~members:(List.map (fun m -> (m.md_member, m.md_uri)) members)
    ~shard_slice_s:slice ~probe_interval_s:0.05 ~probe_timeout_s:0.2
    ~down_threshold:3 ()

(* Open a member's node directly (through its daemon): seeding and
   inspecting shard-local state without the fleet in the way. *)
let member_conn m = vok (Connect.open_uri m.md_uri)

let seed_domain conn ?uuid ?(running = true) name =
  let dom = vok (Domain.define_xml conn (dom_xml ?uuid name)) in
  if running then vok (Domain.create dom);
  dom

let member_health t mname =
  let fs = Fleet.status t in
  match
    List.find_opt (fun m -> m.Driver.ms_name = mname) fs.Driver.fs_members
  with
  | Some m -> m.Driver.ms_health
  | None -> Alcotest.failf "member %s not in status" mname

(* --- wire numbering --------------------------------------------------- *)

let test_wire_numbering () =
  Alcotest.(check int) "fleet_list_all is 55" 55
    (Rp.proc_to_int Rp.Proc_fleet_list_all);
  Alcotest.(check int) "fleet_status is 56" 56
    (Rp.proc_to_int Rp.Proc_fleet_status);
  Alcotest.(check int) "fleet_migrate is 57" 57
    (Rp.proc_to_int Rp.Proc_fleet_migrate);
  (* The v1.6 numbers must not have moved. *)
  Alcotest.(check int) "event_resume still 53" 53
    (Rp.proc_to_int Rp.Proc_event_resume);
  List.iter
    (fun p -> Alcotest.(check int) "needs minor 7" 7 (Rp.proc_min_minor p))
    [ Rp.Proc_fleet_list_all; Rp.Proc_fleet_status; Rp.Proc_fleet_migrate ];
  Alcotest.(check bool) "listing is idempotent" true
    (Rp.is_idempotent Rp.Proc_fleet_list_all);
  Alcotest.(check bool) "status is idempotent" true
    (Rp.is_idempotent Rp.Proc_fleet_status);
  Alcotest.(check bool) "migrate is NOT idempotent" false
    (Rp.is_idempotent Rp.Proc_fleet_migrate);
  Alcotest.(check bool) "status is high-priority" true
    (Rp.is_high_priority Rp.Proc_fleet_status);
  Alcotest.(check bool) "listing is not high-priority" false
    (Rp.is_high_priority Rp.Proc_fleet_list_all);
  Alcotest.(check int) "admin fleet_status wire number" 22
    (Ap.proc_to_int Ap.Proc_daemon_fleet_status)

(* --- codecs ----------------------------------------------------------- *)

let test_codec_roundtrips () =
  (* Real records from a live node keep the codec honest. *)
  let conn = fresh_test_conn () in
  let _ = seed_domain conn "codec-a" in
  let _ = seed_domain conn ~running:false "codec-b" in
  let records = vok (Connect.list_all_domains conn) in
  let listing =
    Driver.
      {
        fl_records = records;
        fl_shard_errors =
          [
            {
              se_member = "m2";
              se_error = Verror.make Verror.No_connect "member down";
            };
            {
              se_member = "m7";
              se_error =
                Verror.make Verror.Operation_failed "deadline exceeded";
            };
          ];
        fl_members = 8;
      }
  in
  Alcotest.(check bool) "fleet_listing roundtrips" true
    (Rp.dec_fleet_listing (Rp.enc_fleet_listing listing) = listing);
  let fs =
    Driver.
      {
        fs_fleet = "prod";
        fs_members =
          [
            {
              ms_name = "a";
              ms_health = Mh_up;
              ms_consec_failures = 0;
              ms_probes = 41;
              ms_failures = 2;
              ms_domains = 1000;
            };
            {
              ms_name = "b";
              ms_health = Mh_degraded;
              ms_consec_failures = 1;
              ms_probes = 40;
              ms_failures = 9;
              ms_domains = -1;
            };
            {
              ms_name = "c";
              ms_health = Mh_down;
              ms_consec_failures = 12;
              ms_probes = 52;
              ms_failures = 12;
              ms_domains = 0;
            };
          ];
        fs_migrations_active = 1;
        fs_migrations_recovered = 2;
        fs_migrations_rolled_back = 3;
      }
  in
  Alcotest.(check bool) "fleet_status roundtrips" true
    (Rp.dec_fleet_status (Rp.enc_fleet_status fs) = fs);
  Alcotest.(check bool) "fleet_migrate roundtrips" true
    (Rp.dec_fleet_migrate (Rp.enc_fleet_migrate ~domain:"web-3" ~dest:"b")
    = ("web-3", "b"))

(* --- placement -------------------------------------------------------- *)

let test_placement () =
  let members = [ "a"; "b"; "c"; "d" ] in
  let uuids = List.init 256 (fun _ -> Vmm.Uuid.generate ()) in
  let place u = Fleet.consistent_hash_place u members in
  (* Deterministic. *)
  List.iter
    (fun u ->
      Alcotest.(check string) "stable" (place u) (place u);
      Alcotest.(check bool) "lands on a member" true
        (List.mem (place u) members))
    uuids;
  (* Every member owns something at this scale. *)
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (Printf.sprintf "member %s owns keys" m)
        true
        (List.exists (fun u -> place u = m) uuids))
    members;
  (* Removing one member only moves the keys it owned: the consistent-
     hashing property that makes shard loss a local affair. *)
  let without = [ "a"; "b"; "d" ] in
  List.iter
    (fun u ->
      let before = place u in
      if before <> "c" then
        Alcotest.(check string) "unrelated keys stay put" before
          (Fleet.consistent_hash_place u without))
    uuids;
  (* Single member short-circuits; empty fleet is a caller bug. *)
  Alcotest.(check string) "singleton" "only"
    (Fleet.consistent_hash_place (List.hd uuids) [ "only" ]);
  match Fleet.consistent_hash_place (List.hd uuids) [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty member list accepted"

(* Placement hashes the UUID's text form, so a change in how UUIDs are
   rendered would silently move every placed domain.  These members were
   recorded from the Printf-based rendering. *)
let test_placement_pinned () =
  List.iter
    (fun (text, member) ->
      let u = sok (Vmm.Uuid.of_string text) in
      Alcotest.(check string) text member
        (Fleet.consistent_hash_place u [ "a"; "b"; "c"; "d" ]))
    [
      ("00000000-0000-0000-0000-000000000000", "b");
      ("ffffffff-ffff-ffff-ffff-ffffffffffff", "c");
      ("6f1c2a3b-4d5e-4f60-8172-93a4b5c6d7e8", "d");
    ]

(* --- wire compatibility ----------------------------------------------- *)

let raw_client daemon =
  match
    Rpc_client.connect ~address:(daemon ^ "-sock") ~kind:Transport.Unix_sock
      ~program:Rp.program ~version:Rp.version ()
  with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect: %s" (Verror.to_string e)

let raw_call client proc body =
  Rpc_client.call client ~procedure:(Rp.proc_to_int proc) ~body ()

let raw_open client uri =
  vok (Result.map Rp.dec_unit_body (raw_call client Rp.Proc_open (Rp.enc_string_body uri)))

let test_old_daemon_rejects_fleet_procs () =
  (* A minor-6 daemon must answer the fleet procedures exactly like a
     build that predates them. *)
  let config = { quiet_config with Daemon_config.proto_minor = 6 } in
  let dname = fresh_name "v16d" in
  let daemon = Daemon.start ~name:dname ~config () in
  Fun.protect
    ~finally:(fun () -> Daemon.stop daemon)
    (fun () ->
      let client = raw_client dname in
      raw_open client (Printf.sprintf "test://%s/" (fresh_name "v16n"));
      List.iter
        (fun proc ->
          match raw_call client proc Rp.enc_unit_body with
          | Ok _ -> Alcotest.fail "v1.6 daemon accepted a fleet procedure"
          | Error e ->
            Alcotest.(check string) "wording identical to unknown proc"
              (Printf.sprintf "unknown remote procedure %d" (Rp.proc_to_int proc))
              e.Verror.message)
        [ Rp.Proc_fleet_list_all; Rp.Proc_fleet_status ];
      Rpc_client.close client)

let test_plain_daemon_is_fleet_of_one () =
  let dname = fresh_name "f1d" in
  let node = fresh_name "f1n" in
  let daemon = Daemon.start ~name:dname ~config:quiet_config () in
  Fun.protect
    ~finally:(fun () -> Daemon.stop daemon)
    (fun () ->
      let conn =
        vok
          (Connect.open_uri
             (Printf.sprintf "test+unix://%s/?daemon=%s" node dname))
      in
      let _ = seed_domain conn "solo" in
      (* Raw wire view: annotated listing with one member, no errors. *)
      let client = raw_client dname in
      raw_open client (Printf.sprintf "test://%s/" node);
      let listing =
        Rp.dec_fleet_listing
          (vok (raw_call client Rp.Proc_fleet_list_all Rp.enc_unit_body))
      in
      Alcotest.(check int) "one member" 1 listing.Driver.fl_members;
      Alcotest.(check int) "no shard errors" 0
        (List.length listing.Driver.fl_shard_errors);
      Alcotest.(check bool) "carries the domain" true
        (List.exists
           (fun r -> r.Driver.rec_ref.Driver.dom_name = "solo")
           listing.Driver.fl_records);
      (* Status on a non-fleet connection is unsupported, not unknown. *)
      (match raw_call client Rp.Proc_fleet_status Rp.enc_unit_body with
       | Ok _ -> Alcotest.fail "plain daemon reported fleet status"
       | Error e ->
         Alcotest.(check bool) "unsupported" true
           (e.Verror.code = Verror.Operation_unsupported));
      Rpc_client.close client;
      (* The remote driver's v1.7 listing path rides the same proc. *)
      let records = vok (Connect.list_all_domains conn) in
      Alcotest.(check bool) "client bulk listing works" true
        (List.exists (fun r -> r.Driver.rec_ref.Driver.dom_name = "solo") records);
      Connect.close conn)

(* --- health state machine and the shared prober ------------------------ *)

let test_health_machine_and_single_prober () =
  (* The member's daemon is not running: every probe fails. *)
  let dname = fresh_name "hd" in
  let uri = Printf.sprintf "test+unix://%s/?daemon=%s" (fresh_name "hn") dname in
  let t =
    Fleet.create ~name:(fresh_name "hfleet") ~members:[ ("m1", uri) ]
      ~probe_interval_s:0.05 ~probe_timeout_s:0.2 ~down_threshold:3 ()
  in
  let resyncs = ref 0 in
  let (_ : Events.subscription) =
    Events.subscribe (Fleet.ops_of t).Driver.events (fun ev ->
        if ev.Events.lifecycle = Events.Ev_resync then incr resyncs)
  in
  Fleet.probe_now t;
  Alcotest.(check string) "one failure degrades" "degraded"
    (Driver.member_health_name (member_health t "m1"));
  Fleet.probe_now t;
  Fleet.probe_now t;
  Alcotest.(check string) "threshold opens the breaker" "down"
    (Driver.member_health_name (member_health t "m1"));
  Alcotest.(check bool) "down transition emitted a resync marker" true
    (eventually (fun () -> !resyncs = 1));
  Fleet.probe_now t;
  Alcotest.(check int) "staying down re-emits nothing" 1 !resyncs;
  (* Recovery passes through Degraded (hysteresis): one good probe must
     not flip a flapping member straight back to Up. *)
  let daemon = Daemon.start ~name:dname ~config:quiet_config () in
  Fun.protect
    ~finally:(fun () -> Daemon.stop daemon)
    (fun () ->
      Fleet.probe_now t;
      Alcotest.(check string) "first success only degrades" "degraded"
        (Driver.member_health_name (member_health t "m1"));
      Fleet.probe_now t;
      Alcotest.(check string) "second success restores" "up"
        (Driver.member_health_name (member_health t "m1"));
      let fs = Fleet.status t in
      let m = List.hd fs.Driver.fs_members in
      Alcotest.(check bool) "probes counted" true (m.Driver.ms_probes >= 6);
      Alcotest.(check bool) "failures counted" true (m.Driver.ms_failures >= 3);
      (* However many fleets exist, exactly one prober thread does. *)
      let t2 =
        Fleet.create ~name:(fresh_name "hfleet2") ~members:[]
          ~probe_interval_s:0.05 ()
      in
      ignore (Fleet.ops_of t2);
      Alcotest.(check int) "single shared prober thread" 1
        (Fleet.prober_thread_count ()))

let test_shard_failure_wakes_prober () =
  with_members [ "m1"; "m2" ] (fun members ->
      let interval = 0.2 in
      let t =
        Fleet.create ~name:(fresh_name "pfleet")
          ~members:(List.map (fun m -> (m.md_member, m.md_uri)) members)
          ~probe_interval_s:interval ~probe_timeout_s:0.2 ~down_threshold:3 ()
      in
      let fv = Option.get (Fleet.ops_of t).Driver.fleet in
      ignore (vok (fv.Driver.fleet_list_all ()));
      kill_member (List.nth members 1);
      let probes () =
        (List.find
           (fun m -> m.Driver.ms_name = "m2")
           (Fleet.status t).Driver.fs_members)
          .Driver.ms_probes
      in
      let l = vok (fv.Driver.fleet_list_all ()) in
      Alcotest.(check int) "shard failure reported" 1
        (List.length l.Driver.fl_shard_errors);
      let before = probes () in
      (* One probe interval, plus as much again for scheduling. *)
      Alcotest.(check bool) "probed within one interval" true
        (eventually ~timeout_s:(2. *. interval) (fun () -> probes () > before));
      Fleet.dissolve (Fleet.name t))

(* --- chaos: member death mid-query ------------------------------------ *)

let test_scatter_degraded_on_member_death () =
  with_members [ "m1"; "m2"; "m3" ] (fun members ->
      let conns = List.map member_conn members in
      List.iteri
        (fun i conn ->
          ignore (seed_domain conn (Printf.sprintf "ch-%d-a" i));
          ignore (seed_domain conn (Printf.sprintf "ch-%d-b" i)))
        conns;
      let t = fleet_of ~slice:0.5 members in
      let ops = Fleet.ops_of t in
      let fv = Option.get ops.Driver.fleet in
      (* Each test node also carries its default seeded domain; count
         only the rows this test created. *)
      let ours listing =
        List.filter
          (fun r ->
            let n = r.Driver.rec_ref.Driver.dom_name in
            String.length n > 3 && String.sub n 0 3 = "ch-")
          listing.Driver.fl_records
      in
      let l = vok (fv.Driver.fleet_list_all ()) in
      Alcotest.(check int) "all six domains" 6 (List.length (ours l));
      Alcotest.(check int) "three members" 3 l.Driver.fl_members;
      Alcotest.(check int) "no errors while healthy" 0
        (List.length l.Driver.fl_shard_errors);
      (* Kill one member, then query again: the listing must complete
         within the deadline, report the dead shard, and keep every
         surviving row exactly once. *)
      kill_member (List.nth members 1);
      let t0 = Unix.gettimeofday () in
      let l2 = vok (fv.Driver.fleet_list_all ()) in
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool)
        (Printf.sprintf "bounded by the shard slice (%.3fs)" elapsed)
        true (elapsed < 2.0);
      Alcotest.(check int) "dead shard reported" 1
        (List.length l2.Driver.fl_shard_errors);
      Alcotest.(check string) "the right shard" "m2"
        (List.hd l2.Driver.fl_shard_errors).Driver.se_member;
      let names =
        List.map (fun r -> r.Driver.rec_ref.Driver.dom_name) (ours l2)
      in
      Alcotest.(check int) "survivors only" 4 (List.length names);
      Alcotest.(check int) "zero double-counted domains"
        (List.length names)
        (List.length (List.sort_uniq compare names));
      Alcotest.(check bool) "m2 rows gone" true
        (not (List.exists (fun n -> String.length n > 3 && n.[3] = '1') names));
      (* The degradation feeds the CLI's partial-failure accounting. *)
      (match Fleet.conn_stats ops with
       | Some st -> Alcotest.(check bool) "sub_errors counted" true
           (st.Fleet.st_sub_errors >= 1)
       | None -> Alcotest.fail "fleet connection has no stats");
      (* Repeated failures open the breaker; a Down shard is then skipped
         instantly with a structured marker. *)
      let l3 = vok (fv.Driver.fleet_list_all ()) in
      let l4 = vok (fv.Driver.fleet_list_all ()) in
      ignore l3;
      let t1 = Unix.gettimeofday () in
      let l5 = vok (fv.Driver.fleet_list_all ()) in
      ignore l4;
      Alcotest.(check bool) "down shard skipped fast" true
        (Unix.gettimeofday () -. t1 < 0.5);
      Alcotest.(check int) "still reported as an error" 1
        (List.length l5.Driver.fl_shard_errors);
      Alcotest.(check string) "down marker names the member" "m2"
        (List.hd l5.Driver.fl_shard_errors).Driver.se_member;
      List.iter Connect.close conns)

(* Shard threads park between scatters: back-to-back listings of a
   healthy fleet create at most one thread per member. *)
let test_scatter_reuses_shard_threads () =
  with_members [ "m1"; "m2"; "m3" ] (fun members ->
      let t = fleet_of members in
      let fv = Option.get (Fleet.ops_of t).Driver.fleet in
      let before = Fleet.shard_thread_count () in
      for _ = 1 to 50 do
        let l = vok (fv.Driver.fleet_list_all ()) in
        Alcotest.(check int) "no shard errors" 0 (List.length l.Driver.fl_shard_errors)
      done;
      let grown = Fleet.shard_thread_count () - before in
      Alcotest.(check bool)
        (Printf.sprintf "shard threads grew by %d" grown)
        true (grown <= 3);
      Fleet.dissolve (Fleet.name t))

(* A member whose every frame lands after the slice keeps its shard
   threads busy; the next listing must not wait for them, and only that
   member is charged. *)
let test_slow_member_stalls_nobody () =
  with_members [ "m1"; "m2"; "m3" ] (fun members ->
      let conns = List.map member_conn members in
      List.iter2
        (fun m conn -> ignore (seed_domain conn ("slow-" ^ m.md_member)))
        members conns;
      List.iter Connect.close conns;
      let slice = 0.3 in
      let slow = List.nth members 2 in
      Alcotest.(check bool) "plan attached" true
        (Netsim.set_listener_faults (slow.md_daemon ^ "-sock")
           (Some (Faults.plan [ Faults.Delay (3. *. slice) ])));
      (* A long probe interval keeps the prober out of the accounting. *)
      let t =
        Fleet.create ~name:(fresh_name "sfleet")
          ~members:(List.map (fun m -> (m.md_member, m.md_uri)) members)
          ~shard_slice_s:slice ~probe_interval_s:60. ~probe_timeout_s:0.2
          ~down_threshold:5 ()
      in
      let fv = Option.get (Fleet.ops_of t).Driver.fleet in
      for i = 1 to 2 do
        let t0 = Unix.gettimeofday () in
        let l = vok (fv.Driver.fleet_list_all ()) in
        let elapsed = Unix.gettimeofday () -. t0 in
        Alcotest.(check bool)
          (Printf.sprintf "listing %d within the slice (%.3fs)" i elapsed)
          true
          (elapsed < slice +. 0.2);
        Alcotest.(check (list string))
          "only the slow member errs" [ "m3" ]
          (List.map (fun e -> e.Driver.se_member) l.Driver.fl_shard_errors);
        let names = List.map (fun r -> r.Driver.rec_ref.Driver.dom_name) l.Driver.fl_records in
        Alcotest.(check (list bool))
          "healthy rows listed" [ true; true; false ]
          (List.map (fun n -> List.mem n names) [ "slow-m1"; "slow-m2"; "slow-m3" ])
      done;
      let failures name =
        (List.find (fun m -> m.Driver.ms_name = name) (Fleet.status t).Driver.fs_members)
          .Driver.ms_failures
      in
      Alcotest.(check (list int))
        "failures charged" [ 0; 0; 2 ]
        (List.map failures [ "m1"; "m2"; "m3" ]);
      Fleet.dissolve (Fleet.name t))

let test_no_double_count_mid_migration () =
  (* A domain momentarily defined on two members (reserved on the
     destination, still live on the source) must appear once, as the
     running row. *)
  with_members [ "m1"; "m2" ] (fun members ->
      let cA = member_conn (List.nth members 0) in
      let cB = member_conn (List.nth members 1) in
      let uuid = Vmm.Uuid.generate () in
      ignore (seed_domain cA ~uuid "twin";);
      ignore (seed_domain cB ~uuid ~running:false "twin");
      let t = fleet_of members in
      let ops = Fleet.ops_of t in
      let fv = Option.get ops.Driver.fleet in
      let l = vok (fv.Driver.fleet_list_all ()) in
      let rows =
        List.filter
          (fun r -> r.Driver.rec_ref.Driver.dom_name = "twin")
          l.Driver.fl_records
      in
      Alcotest.(check int) "exactly one row" 1 (List.length rows);
      Alcotest.(check bool) "the running row wins" true
        ((List.hd rows).Driver.rec_info.Driver.di_state <> Vmm.Vm_state.Shutoff);
      Connect.close cA;
      Connect.close cB)

(* --- merge reuse --------------------------------------------------------- *)

(* A small UUID pool, so members often list twins of each other. *)
let merge_uuids = Array.init 6 (fun _ -> Vmm.Uuid.generate ())

let merge_row (u, running) =
  Driver.
    {
      rec_ref =
        { dom_name = Printf.sprintf "u%d" u; dom_uuid = merge_uuids.(u); dom_id = None };
      rec_info =
        {
          di_state = (if running then Vmm.Vm_state.Running else Vmm.Vm_state.Shutoff);
          di_max_mem_kib = 8192;
          di_memory_kib = 8192;
          di_vcpus = 1;
          di_cpu_time_ns = 0L;
        };
      rec_autostart = None;
    }

let prop_merge_reuse =
  let gen =
    let open QCheck.Gen in
    let rows = list_size (int_bound 5) (pair (int_bound 5) bool) in
    triple (list_size (int_range 1 4) rows) rows (int_bound 3)
  in
  let print (members, alt, k) =
    let show rows =
      String.concat " " (List.map (fun (u, r) -> Printf.sprintf "u%d%s" u (if r then "+" else "")) rows)
    in
    Printf.sprintf "members: [%s]; alt: [%s]; k=%d"
      (String.concat " | " (List.map show members)) (show alt) k
  in
  qcheck_case ~count:300 "merge reuse matches merge_records"
    (QCheck.make ~print gen) (fun (members, alt, k) ->
      let pm = List.mapi (fun i rows -> (Printf.sprintf "m%d" i, List.map merge_row rows)) members in
      let merged = Fleet.merge_records pm in
      (* The very same lists, even in freshly built pairs, repeat. *)
      if Fleet.repeat_of pm (List.map (fun (n, rs) -> (n, rs)) pm) <> Fleet.Same_lists then
        QCheck.Test.fail_report "unchanged lists not a repeat";
      (* Replacing one member's list, by a copy or by other rows, is a
         repeat only of its names; a listing reuses the last merge only
         when every list is the very same. *)
      let k = k mod List.length pm in
      let names rs = List.map (fun r -> r.Driver.rec_ref.Driver.dom_name) rs in
      List.iter
        (fun replace ->
          let pm' = List.mapi (fun i (n, rs) -> (n, if i = k then replace rs else rs)) pm in
          let rs = snd (List.nth pm k) and rs' = snd (List.nth pm' k) in
          let want =
            if rs' == rs then Fleet.Same_lists
            else if names rs' = names rs then Fleet.Same_names
            else Fleet.Changed
          in
          let got = Fleet.repeat_of pm pm' in
          if got <> want then QCheck.Test.fail_report "a replaced list misclassified";
          if got = Fleet.Same_lists && Fleet.merge_records pm' <> merged then
            QCheck.Test.fail_report "a reused merge differs from merge_records")
        [ List.map Fun.id; (fun _ -> List.map merge_row alt) ];
      (* Another member name, or one member fewer, is never a repeat. *)
      let renamed = List.mapi (fun i (n, rs) -> ((if i = k then n ^ "'" else n), rs)) pm in
      if Fleet.repeat_of pm renamed <> Fleet.Changed || Fleet.repeat_of pm (List.tl pm) <> Fleet.Changed
      then QCheck.Test.fail_report "other members counted as a repeat";
      true)

(* --- location learning ---------------------------------------------------- *)

(* A member the test drives by hand.  [fk_listed] is the very list every
   bulk listing hands back until a refresh rebuilds it from [fk_doms],
   the member's domains (name, UUID, running): so a member may go on
   listing a state it has left, as a cached listing can, and a state
   change gives a new list of the same names.  Writes change [fk_doms]
   alone. *)
type fake = {
  mutable fk_doms : (string * Vmm.Uuid.t * bool) list;
  mutable fk_listed : Driver.domain_record list;
  mutable fk_listings : int;  (** bulk listings answered *)
  mutable fk_refuse_define : bool;
  mutable fk_refused : int;  (** defines refused *)
}

let fakes : (string, fake) Hashtbl.t = Hashtbl.create 16
let fakes_mutex = Mutex.create ()

let fake_record (name, uuid, running) =
  Driver.
    {
      rec_ref = { dom_name = name; dom_uuid = uuid; dom_id = None };
      rec_info =
        {
          di_state = (if running then Vmm.Vm_state.Running else Vmm.Vm_state.Shutoff);
          di_max_mem_kib = 8192;
          di_memory_kib = 8192;
          di_vcpus = 1;
          di_cpu_time_ns = 0L;
        };
      rec_autostart = None;
    }

let refresh fk = fk.fk_listed <- List.map fake_record fk.fk_doms

let fake_ops fk =
  let find name = List.find_opt (fun (n, _, _) -> n = name) fk.fk_doms in
  let no_domain name = Verror.error Verror.No_domain "no domain %S" name in
  let set_running name running =
    match find name with
    | None -> no_domain name
    | Some (_, uuid, _) ->
      fk.fk_doms <-
        List.map (fun ((n, _, _) as d) -> if n = name then (n, uuid, running) else d) fk.fk_doms;
      Ok ()
  in
  Driver.make_ops ~drv_name:"fake"
    ~get_capabilities:(fun () ->
      Ovirt.Capabilities.
        {
          driver_name = "fake"; virt_kind = "mock"; stateful = true; guest_os_kinds = [];
          features = [];
          host = { host_name = "fake"; host_memory_kib = 0; host_cpus = 0; host_mhz = 0; host_arch = "x" };
        })
    ~get_hostname:(fun () -> "fake")
    ~dom_list_all:(fun () ->
      fk.fk_listings <- fk.fk_listings + 1;
      Ok fk.fk_listed)
    ~define_xml:(fun xml ->
      let cfg, _ = Result.get_ok (Vmm.Domxml.of_xml xml) in
      let name = cfg.Vm_config.name and uuid = cfg.Vm_config.uuid in
      if fk.fk_refuse_define then begin
        fk.fk_refused <- fk.fk_refused + 1;
        Verror.error Verror.Operation_failed "define refused"
      end
      else begin
        fk.fk_doms <- List.filter (fun (n, _, _) -> n <> name) fk.fk_doms @ [ (name, uuid, false) ];
        Ok Driver.{ dom_name = name; dom_uuid = uuid; dom_id = None }
      end)
    ~undefine:(fun name ->
      match find name with
      | None -> no_domain name
      | Some _ ->
        fk.fk_doms <- List.filter (fun (n, _, _) -> n <> name) fk.fk_doms;
        Ok ())
    ~dom_get_info:(fun name ->
      match find name with
      | None -> no_domain name
      | Some d -> Ok (fake_record d).Driver.rec_info)
    ~dom_get_xml:(fun name ->
      match find name with
      | None -> no_domain name
      | Some (_, uuid, _) -> Ok (dom_xml ~uuid name))
    ~dom_create:(fun name -> set_running name true)
    ~dom_destroy:(fun name -> set_running name false)
    ()

let () =
  Driver.register
    Driver.
      {
        reg_name = "fake";
        probe = (fun uri -> uri.Ovirt.Uri.scheme = "fake" && uri.Ovirt.Uri.transport = None);
        open_conn =
          (fun uri ->
            let name = uri.Ovirt.Uri.path in
            match Mutex.protect fakes_mutex (fun () -> Hashtbl.find_opt fakes name) with
            | Some fk -> Ok (fake_ops fk)
            | None -> Verror.error Verror.No_connect "no fake member %s" name);
      }

type learn_step =
  | L_list
  | L_refresh of int  (** member *)
  | L_define of int * int  (** domain, placement *)
  | L_undefine of int
  | L_start of int
  | L_stop of int
  | L_migrate of int * int * bool  (** domain, destination, refused there *)
  | L_remove of int
  | L_add of int

let learn_members = 3
let learn_domains = 5
let learn_uuids = Array.init learn_domains (fun _ -> Vmm.Uuid.generate ())
let member_tag i = Printf.sprintf "m%d" i
let dom_tag d = Printf.sprintf "d%d" d

let show_learn_step = function
  | L_list -> "list"
  | L_refresh i -> "refresh " ^ member_tag i
  | L_define (d, i) -> Printf.sprintf "define %s@%s" (dom_tag d) (member_tag i)
  | L_undefine d -> "undefine " ^ dom_tag d
  | L_start d -> "start " ^ dom_tag d
  | L_stop d -> "stop " ^ dom_tag d
  | L_migrate (d, i, refused) ->
    Printf.sprintf "migrate %s->%s%s" (dom_tag d) (member_tag i) (if refused then " (refused)" else "")
  | L_remove i -> "remove " ^ member_tag i
  | L_add i -> "add " ^ member_tag i

(* After every step, the fleet's owner of every domain name the model
   knows (of every name, after the last step) and every member's domain
   count equal those of a model that learns every listing in full,
   whatever the members hand back: the skipped learning of a repeated
   listing is never observable. *)
let prop_learning_matches_full =
  let gen =
    let open QCheck.Gen in
    let dom = int_bound (learn_domains - 1) and mem = int_bound (learn_members - 1) in
    list_size (int_range 1 40)
      (frequency
         [
           (4, return L_list);
           (3, map (fun i -> L_refresh i) mem);
           (2, map2 (fun d i -> L_define (d, i)) dom mem);
           (2, map (fun d -> L_undefine d) dom);
           (1, map (fun d -> L_start d) dom);
           (1, map (fun d -> L_stop d) dom);
           (2, map3 (fun d i r -> L_migrate (d, i, r)) dom mem bool);
           (1, map (fun i -> L_remove i) mem);
           (1, map (fun i -> L_add i) mem);
         ])
  in
  let print steps = String.concat "; " (List.map show_learn_step steps) in
  qcheck_case ~count:1000 "learning matches a full pass on every listing"
    (QCheck.make ~print gen) (fun steps ->
      let fname = fresh_name "learn" in
      let path i = Printf.sprintf "/%s-%s" fname (member_tag i) in
      let uri i = "fake://" ^ path i in
      let fk =
        Array.init learn_members (fun i ->
            let fk =
              {
                fk_doms = [ (dom_tag i, learn_uuids.(i), true) ];
                fk_listed = [];
                fk_listings = 0;
                fk_refuse_define = false;
                fk_refused = 0;
              }
            in
            refresh fk;
            Mutex.protect fakes_mutex (fun () -> Hashtbl.replace fakes (path i) fk);
            fk)
      in
      let place_next = ref "" in
      let t =
        Fleet.create ~name:fname
          ~members:(List.init learn_members (fun i -> (member_tag i, uri i)))
          ~place:(fun _ names -> if List.mem !place_next names then !place_next else List.hd names)
          ~shard_slice_s:30. ~probe_interval_s:3600. ~down_threshold:1_000_000 ()
      in
      let ops = Fleet.ops_of t in
      let fv = Option.get ops.Driver.fleet in
      (* The model: members in join order, name -> owner, member -> count. *)
      let order = ref (List.init learn_members member_tag) in
      let loc : (string, string) Hashtbl.t = Hashtbl.create 8 in
      let count : (string, int) Hashtbl.t = Hashtbl.create 4 in
      let fake_of m = fk.(int_of_string (String.sub m 1 (String.length m - 1))) in
      let learn () =
        List.iter
          (fun m ->
            let listed = (fake_of m).fk_listed in
            Hashtbl.replace count m (List.length listed);
            List.iter (fun r -> Hashtbl.replace loc r.Driver.rec_ref.Driver.dom_name m) listed)
          !order
      in
      (* Whether the fleet listed: every member answers every scatter, and
         no list changes within one step. *)
      let listings () = Array.fold_left (fun n f -> n + f.fk_listings) 0 fk in
      let learned_if_listed before = if listings () > before then learn () in
      let routed name op =
        let before = listings () in
        let (_ : (unit, Verror.t) result) = op name in
        learned_if_listed before;
        Hashtbl.find_opt loc name
      in
      let has m name = List.exists (fun (n, _, _) -> n = name) (fake_of m).fk_doms in
      (* Routed to a member that no longer has the domain, the location
         goes. *)
      let lifecycle name op =
        match routed name op with
        | Some m when not (has m name) -> Hashtbl.remove loc name
        | _ -> ()
      in
      let step = function
        | L_list ->
          let before = listings () in
          ignore (vok (fv.Driver.fleet_list_all ()));
          learned_if_listed before
        | L_refresh i -> refresh fk.(i)
        | L_define (d, i) -> (
          place_next := member_tag i;
          let name = dom_tag d in
          match ops.Driver.define_xml (dom_xml ~uuid:learn_uuids.(d) name) with
          | Ok _ ->
            Hashtbl.replace loc name
              (if List.mem !place_next !order then !place_next else List.hd !order)
          | Error _ -> ())
        | L_undefine d ->
          (* Undefined, or found gone: the location goes either way. *)
          let name = dom_tag d in
          if routed name ops.Driver.undefine <> None then Hashtbl.remove loc name
        | L_start d -> lifecycle (dom_tag d) ops.Driver.dom_create
        | L_stop d -> lifecycle (dom_tag d) ops.Driver.dom_destroy
        | L_migrate (d, i, refused) ->
          let name = dom_tag d and dest = member_tag i in
          fk.(i).fk_refuse_define <- refused;
          let refused_before = fk.(i).fk_refused in
          let result = ref (Ok ()) in
          let owner = routed name (fun name -> result := Fleet.fleet_migrate t ~domain:name ~dest; !result) in
          fk.(i).fk_refuse_define <- false;
          (match (!result, owner) with
           | Ok (), _ -> Hashtbl.replace loc name dest
           | Error _, Some src when fk.(i).fk_refused > refused_before ->
             (* Rolled back to the source. *)
             Hashtbl.replace loc name src
           | Error _, _ -> ())
        | L_remove i ->
          let m = member_tag i in
          Fleet.remove_member t m;
          order := List.filter (( <> ) m) !order;
          Hashtbl.filter_map_inplace (fun _ owner -> if owner = m then None else Some owner) loc;
          Hashtbl.remove count m
        | L_add i ->
          let m = member_tag i in
          if not (List.mem m !order) then begin
            vok (Fleet.add_member t ~name:m ~uri:(uri i));
            order := !order @ [ m ]
          end
      in
      (* Owners of the names the model knows, or of every name: asking
         for an unknown one makes the fleet list. *)
      let check ?(every = false) what =
        List.iter
          (fun ms ->
            let want = Option.value (Hashtbl.find_opt count ms.Driver.ms_name) ~default:(-1) in
            if ms.Driver.ms_domains <> want then
              QCheck.Test.fail_reportf "after %s: %s counts %d domains, a full pass %d" what
                ms.Driver.ms_name ms.Driver.ms_domains want)
          (Fleet.status t).Driver.fs_members;
        for d = 0 to learn_domains - 1 do
          let name = dom_tag d in
          if every || Hashtbl.mem loc name then
          let before = listings () in
          let got = fv.Driver.fleet_owner name in
          learned_if_listed before;
          let show = function Some m -> m | None -> "none" in
          let got = Result.to_option got and want = Hashtbl.find_opt loc name in
          if got <> want then
            QCheck.Test.fail_reportf "after %s: %s is owned by %s, after a full pass by %s" what
              name (show got) (show want)
        done
      in
      Fun.protect
        ~finally:(fun () ->
          Fleet.dissolve fname;
          Mutex.protect fakes_mutex (fun () ->
              for i = 0 to learn_members - 1 do
                Hashtbl.remove fakes (path i)
              done))
        (fun () ->
          List.iter
            (fun s ->
              step s;
              check (show_learn_step s))
            steps;
          check ~every:true "the last step";
          true))

(* --- member connections -------------------------------------------------- *)

let list_once t =
  let l = vok ((Option.get (Fleet.ops_of t).Driver.fleet).Driver.fleet_list_all ()) in
  Alcotest.(check int) "no shard errors" 0 (List.length l.Driver.fl_shard_errors)

let test_dissolve_closes_connections () =
  if proc_status_int "Threads" <> None then
    with_members [ "m1"; "m2" ] (fun members ->
        let cycle () =
          let t =
            Fleet.create ~name:(fresh_name "fleet")
              ~members:(List.map (fun m -> (m.md_member, m.md_uri)) members)
              ~probe_interval_s:3600. ()
          in
          list_once t;
          Fleet.dissolve (Fleet.name t)
        in
        (* The first cycle starts the threads every fleet shares: the
           prober and the shard threads. *)
        cycle ();
        let threads () = Option.get (proc_status_int "Threads") in
        let start = threads () in
        for _ = 1 to 3 do
          cycle ()
        done;
        let back = eventually (fun () -> threads () <= start) in
        Alcotest.(check bool)
          (Printf.sprintf "threads back to %d after 3 fleets (now %d)" start (threads ()))
          true back)

(* Connections a member's daemon has open on its management server. *)
let daemon_clients m =
  match m.md_handle with
  | None -> 0
  | Some h -> fst (Ovdaemon.Server_obj.client_counts (Option.get (Daemon.find_server h "libvirtd")))

(* Re-creating a fleet under a registered name (a controller restart)
   replaces the old instance: its member connections close with it, so
   after the restarts one [dissolve] leaves no member connection open. *)
let test_recreate_closes_replaced_connections () =
  with_members [ "m1"; "m2" ] (fun members ->
      let fname = fresh_name "fleet" in
      let create () =
        let t =
          Fleet.create ~name:fname
            ~members:(List.map (fun m -> (m.md_member, m.md_uri)) members)
            ~probe_interval_s:3600. ()
        in
        list_once t;
        Alcotest.(check bool) "one connection per member while listed" true
          (eventually (fun () -> List.for_all (fun m -> daemon_clients m = 1) members))
      in
      for _ = 1 to 3 do
        create ()
      done;
      Fleet.dissolve fname;
      Alcotest.(check bool)
        (Printf.sprintf "no member connection open (now %s)"
           (String.concat "," (List.map (fun m -> string_of_int (daemon_clients m)) members)))
        true
        (eventually (fun () -> List.for_all (fun m -> daemon_clients m = 0) members)))

let test_removed_member_events_stop () =
  with_members [ "m1"; "m2" ] (fun members ->
      let c1 = member_conn (List.nth members 0) in
      let c2 = member_conn (List.nth members 1) in
      let d1 = seed_domain c1 "ev-a" in
      let d2 = seed_domain c2 "ev-b" in
      let t = fleet_of members in
      list_once t;
      let seen = Hashtbl.create 4 in
      let bus = (Fleet.ops_of t).Driver.events in
      let sub =
        Events.subscribe bus (fun ev ->
            let n = ev.Events.domain_name in
            Hashtbl.replace seen n (1 + Option.value (Hashtbl.find_opt seen n) ~default:0))
      in
      let count name = Option.value (Hashtbl.find_opt seen name) ~default:0 in
      let bounce dom =
        vok (Domain.suspend dom);
        vok (Domain.resume dom)
      in
      (* While m2 is a member, its events reach the fleet bus. *)
      bounce d2;
      Alcotest.(check bool) "a member's events reach the fleet bus" true
        (eventually (fun () -> count "ev-b" = 2));
      Fleet.remove_member t "m2";
      bounce d2;
      (* m1's events, sent after m2's, arrive: m2's would have by now. *)
      bounce d1;
      Alcotest.(check bool) "m1's events arrive" true (eventually (fun () -> count "ev-a" = 2));
      Thread.delay 0.1;
      Alcotest.(check int) "no event of a removed member" 2 (count "ev-b");
      Events.unsubscribe bus sub;
      Connect.close c1;
      Connect.close c2)

(* --- conditional listings (v1.8) ---------------------------------------- *)

(* Under random interleavings of writes (event-less ones included), bare
   events, reply-cache evictions, daemon restarts under the same name and
   fresh connections, every conditional listing equals an unconditional
   listing of the node taken at the same point: an "unchanged" answer
   never hides a change, whichever client filled the entry and whichever
   daemon incarnation issued the token. *)

type cond_write =
  | W_autostart of int
  | W_memory of int
  | W_define
  | W_start of int
  | W_stop of int

type cond_step =
  | C_list of int * int  (** member, client *)
  | C_fleet_list
  | C_write of int * cond_write
  | C_emit of int  (** a bare event on the node bus *)
  | C_evict of int  (** point reads that push the listing out *)
  | C_restart of int
  | C_reopen of int * int  (** a fresh connection for that client *)

let show_cond_step = function
  | C_list (m, c) -> Printf.sprintf "list m%d c%d" m c
  | C_fleet_list -> "fleet list"
  | C_write (m, w) ->
    Printf.sprintf "m%d %s" m
      (match w with
       | W_autostart k -> Printf.sprintf "autostart %d" k
       | W_memory k -> Printf.sprintf "memory %d" k
       | W_define -> "define"
       | W_start k -> Printf.sprintf "start %d" k
       | W_stop k -> Printf.sprintf "stop %d" k)
  | C_emit m -> Printf.sprintf "emit m%d" m
  | C_evict m -> Printf.sprintf "evict m%d" m
  | C_restart m -> Printf.sprintf "restart m%d" m
  | C_reopen (m, c) -> Printf.sprintf "reopen m%d c%d" m c

let cond_seeded = 3

(* Every member keeps its reply cache on (whatever the environment says)
   and small enough for three point reads to evict the listing. *)
let cond_config =
  { quiet_config with Daemon_config.reply_cache = 1; reply_cache_entries = 2 }

type cond_member = {
  cm_daemon : string;
  cm_node : string;
  mutable cm_handle : Ovdaemon.Daemon.t;
  cm_direct : Connect.t;
  cm_clients : Connect.t array;
  cm_reader : Connect.t;
  mutable cm_defined : int;
}

let cond_uri ?(extra = "") cm =
  Printf.sprintf
    "test+unix://%s/?daemon=%s&reconnect=50&reconnect_delay=0.001&reconnect_max_delay=0.005%s"
    cm.cm_node cm.cm_daemon extra

let sorted_rows records =
  List.sort
    (fun a b ->
      compare a.Driver.rec_ref.Driver.dom_name b.Driver.rec_ref.Driver.dom_name)
    records

let cond_run n steps =
  let members =
    List.init n (fun i ->
        let dname = fresh_name "cld" and node = fresh_name "cln" in
        let handle = Daemon.start ~name:dname ~config:cond_config () in
        let direct = vok (Connect.open_uri (Printf.sprintf "test://%s/" node)) in
        for k = 0 to cond_seeded - 1 do
          ignore (seed_domain direct ~running:(k = 0) (Printf.sprintf "m%d-%d" i k))
        done;
        let cm0 =
          {
            cm_daemon = dname;
            cm_node = node;
            cm_handle = handle;
            cm_direct = direct;
            cm_clients = [||];
            cm_reader = direct;
            cm_defined = cond_seeded;
          }
        in
        {
          cm0 with
          cm_clients = Array.init 2 (fun _ -> vok (Connect.open_uri (cond_uri cm0)));
          cm_reader = vok (Connect.open_uri (cond_uri ~extra:"&cache=0" cm0));
        })
    |> Array.of_list
  in
  let fleet =
    Fleet.create ~name:(fresh_name "clfleet")
      ~members:
        (Array.to_list (Array.mapi (fun i cm -> (Printf.sprintf "m%d" i, cond_uri cm)) members))
      ~shard_slice_s:5.0 ~probe_interval_s:60.0 ~probe_timeout_s:1.0 ()
  in
  let direct_rows cm = vok (Connect.list_all_domains cm.cm_direct) in
  let agree what got want =
    if sorted_rows got <> sorted_rows want then
      QCheck.Test.fail_reportf "%s: the conditional listing differs from the node's" what
  in
  let dom cm name = vok (Domain.lookup_by_name cm.cm_direct name) in
  let name_of m cm k = Printf.sprintf "m%d-%d" m (k mod cm.cm_defined) in
  let step = function
    | C_list (m, c) ->
      let cm = members.(m) in
      agree (show_cond_step (C_list (m, c)))
        (vok (Connect.list_all_domains cm.cm_clients.(c)))
        (direct_rows cm)
    | C_fleet_list ->
      let l = vok ((Option.get (Fleet.ops_of fleet).Driver.fleet).Driver.fleet_list_all ()) in
      if l.Driver.fl_shard_errors <> [] then
        QCheck.Test.fail_report "fleet list: shard errors";
      agree "fleet list" l.Driver.fl_records
        (List.concat_map direct_rows (Array.to_list members))
    | C_write (m, w) -> (
      let cm = members.(m) in
      let by k = dom cm (name_of m cm k) in
      (* A refused write (starting a running domain) changes nothing. *)
      match w with
      | W_autostart k ->
        let d = by k in
        ignore (Domain.set_autostart d (not (vok (Domain.get_autostart d))))
      | W_memory k ->
        let d = by k in
        ignore (Domain.set_memory d (4096 + (1024 * (k mod 4))))
      | W_define ->
        ignore
          (seed_domain cm.cm_direct ~running:false
             (Printf.sprintf "m%d-%d" m cm.cm_defined));
        cm.cm_defined <- cm.cm_defined + 1
      | W_start k -> ignore (Domain.create (by k))
      | W_stop k -> ignore (Domain.destroy (by k)))
    | C_emit m ->
      Events.emit (vok (Connect.ops members.(m).cm_direct)).Driver.events
        ~domain_name:(Printf.sprintf "m%d-0" m) Events.Ev_adopted
    | C_evict m ->
      let cm = members.(m) in
      for k = 0 to cond_seeded - 1 do
        let d = vok (Domain.lookup_by_name cm.cm_reader (name_of m cm k)) in
        ignore (vok (Domain.get_info d))
      done
    | C_restart m ->
      let cm = members.(m) in
      Daemon.stop cm.cm_handle;
      cm.cm_handle <- Daemon.start ~name:cm.cm_daemon ~config:cond_config ()
    | C_reopen (m, c) ->
      let cm = members.(m) in
      Connect.close cm.cm_clients.(c);
      cm.cm_clients.(c) <- vok (Connect.open_uri (cond_uri cm))
  in
  Fun.protect
    ~finally:(fun () ->
      Fleet.dissolve (Fleet.name fleet);
      Array.iter
        (fun cm ->
          Array.iter Connect.close cm.cm_clients;
          Connect.close cm.cm_reader;
          Connect.close cm.cm_direct;
          Daemon.stop cm.cm_handle)
        members)
    (fun () -> List.iter step steps)

let prop_conditional_listing =
  let gen =
    let open QCheck.Gen in
    let* n = int_range 1 3 in
    let m = int_bound (n - 1) and k = int_bound 4 in
    let write =
      frequency
        [
          (2, map (fun k -> W_autostart k) k);
          (2, map (fun k -> W_memory k) k);
          (1, return W_define);
          (1, map (fun k -> W_start k) k);
          (1, map (fun k -> W_stop k) k);
        ]
    in
    let step =
      frequency
        [
          (6, map2 (fun m c -> C_list (m, c)) m (int_bound 1));
          (2, return C_fleet_list);
          (4, map2 (fun m w -> C_write (m, w)) m write);
          (1, map (fun m -> C_emit m) m);
          (1, map (fun m -> C_evict m) m);
          (3, map (fun m -> C_restart m) m);
          (1, map2 (fun m c -> C_reopen (m, c)) m (int_bound 1));
        ]
    in
    pair (return n) (list_size (int_range 4 24) step)
  in
  let print (n, steps) =
    Printf.sprintf "%d members: %s" n (String.concat "; " (List.map show_cond_step steps))
  in
  qcheck_case ~count:100 "conditional listing equals an unconditional one"
    (QCheck.make ~print gen) (fun (n, steps) ->
      cond_run n steps;
      true)

(* An unchanged member answers in 12 bytes with the very rows the client
   holds.  After a write and a restart, the new incarnation's first fill
   (made for another client) carries the fill number the first client
   still holds: only the nonce tells the two listings apart. *)
let test_conditional_listing_counts () =
  let dname = fresh_name "cld" and node = fresh_name "cln" in
  let daemon = ref (Daemon.start ~name:dname ~config:cond_config ()) in
  Fun.protect
    ~finally:(fun () -> Daemon.stop !daemon)
    (fun () ->
      let direct = vok (Connect.open_uri (Printf.sprintf "test://%s/" node)) in
      let dom = seed_domain direct ~running:false "cl-one" in
      let uri =
        Printf.sprintf "test+unix://%s/?daemon=%s&reconnect=50&reconnect_delay=0.001"
          node dname
      in
      let conn = vok (Connect.open_uri uri) and other = vok (Connect.open_uri uri) in
      let stats () = Option.get (Drv_remote.conn_stats (vok (Connect.ops conn))) in
      let unchanged () = (stats ()).Drv_remote.st_listings_unchanged in
      let first = vok (Connect.list_all_domains conn) in
      let s0 = stats () in
      let second = vok (Connect.list_all_domains conn) in
      let s1 = stats () in
      Alcotest.(check bool) "same physical rows" true (first == second);
      Alcotest.(check int) "one unchanged reply" 1
        (s1.Drv_remote.st_listings_unchanged - s0.Drv_remote.st_listings_unchanged);
      Alcotest.(check int) "in 12 bytes" 12
        (s1.Drv_remote.st_listing_bytes - s0.Drv_remote.st_listing_bytes);
      vok (Domain.set_autostart dom true);
      Daemon.stop !daemon;
      daemon := Daemon.start ~name:dname ~config:cond_config ();
      ignore (vok (Connect.list_all_domains other));
      let u = unchanged () in
      let third = vok (Connect.list_all_domains conn) in
      Alcotest.(check int) "a new incarnation answers in full" u (unchanged ());
      Alcotest.(check bool) "the write shows" true
        (sorted_rows third = sorted_rows (vok (Connect.list_all_domains direct)));
      List.iter Connect.close [ conn; other; direct ])

(* Without a reply cache a member answers every conditional listing in
   full under the zero token; repeated bytes still reuse the decoded
   rows, so the fleet's merge memo still holds. *)
let test_cache_off_member_reuses_bytes () =
  let dname = fresh_name "cod" and node = fresh_name "con" in
  let daemon = Daemon.start ~name:dname ~config:cond_config () in
  Fun.protect
    ~finally:(fun () -> Daemon.stop daemon)
    (fun () ->
      let conn =
        vok
          (Connect.open_uri
             (Printf.sprintf "test+unix://%s/?daemon=%s&replycache=0" node dname))
      in
      let first = vok (Connect.list_all_domains conn) in
      let second = vok (Connect.list_all_domains conn) in
      Alcotest.(check bool) "repeated bytes reuse the rows" true (first == second);
      let s = Option.get (Drv_remote.conn_stats (vok (Connect.ops conn))) in
      Alcotest.(check int) "two full replies" 2 s.Drv_remote.st_listings;
      Alcotest.(check int) "none unchanged" 0 s.Drv_remote.st_listings_unchanged;
      Connect.close conn)

(* A recording relay between a client and a daemon: every call frame's
   procedure number, in order. *)
let with_recording_relay ~upstream f =
  let name = fresh_name "relay" in
  let seen = ref [] and seen_mutex = Mutex.create () in
  let pump src dst record =
    ignore
      (Thread.create
         (fun () ->
           try
             while true do
               let frame = Transport.recv src in
               if record then begin
                 let header, _ = Ovrpc.Rpc_packet.decode frame in
                 if header.Ovrpc.Rpc_packet.msg_type = Ovrpc.Rpc_packet.Call then begin
                   Mutex.lock seen_mutex;
                   seen := header.Ovrpc.Rpc_packet.procedure :: !seen;
                   Mutex.unlock seen_mutex
                 end
               end;
               Transport.send dst frame
             done
           with _ ->
             Transport.close src;
             Transport.close dst)
         ())
  in
  let listener =
    listen_threaded (name ^ "-sock") (fun client ->
        let server = Netsim.connect (upstream ^ "-sock") Transport.Unix_sock in
        pump client server true;
        pump server client false)
  in
  Fun.protect
    ~finally:(fun () -> Netsim.close_listener listener)
    (fun () ->
      f name (fun () ->
          Mutex.lock seen_mutex;
          let l = List.rev !seen in
          Mutex.unlock seen_mutex;
          l))

(* A v1.8 client of a member pinned to minor 7 keeps the v1.7 wire path:
   no conditional call, and a repeated reply's bytes still reuse the
   rows decoded from them. *)
let test_minor7_member_keeps_v17_path () =
  let dname = fresh_name "m7d" and node = fresh_name "m7n" in
  let daemon =
    Daemon.start ~name:dname
      ~config:{ quiet_config with Daemon_config.proto_minor = 7; reply_cache = 1 }
      ()
  in
  Fun.protect
    ~finally:(fun () -> Daemon.stop daemon)
    (fun () ->
      with_recording_relay ~upstream:dname (fun relay seen ->
          let conn =
            vok (Connect.open_uri (Printf.sprintf "test+unix://%s/?daemon=%s" node relay))
          in
          let first = vok (Connect.list_all_domains conn) in
          let second = vok (Connect.list_all_domains conn) in
          Alcotest.(check bool) "repeated bytes reuse the rows" true (first == second);
          let procs = seen () in
          let count p = List.length (List.filter (( = ) (Rp.proc_to_int p)) procs) in
          Alcotest.(check int) "no conditional listing on the wire" 0
            (count Rp.Proc_fleet_list_since);
          Alcotest.(check int) "two v1.7 listings" 2 (count Rp.Proc_fleet_list_all);
          let s = Option.get (Drv_remote.conn_stats (vok (Connect.ops conn))) in
          Alcotest.(check int) "no unchanged replies" 0
            s.Drv_remote.st_listings_unchanged;
          Connect.close conn))

(* Client-cache rows a member connection's listings install.  With
   events on, a repeated unchanged listing installs none; an event for
   one domain, or a reconnect (which clears the cache), brings back one
   full install, after which point reads stay off the wire.  Without
   events every listing installs in full, refreshing the TTL stamps.
   [config] picks the member's wire path: v1.8 "unchanged" replies, or
   byte-equal reuse at minor 7. *)
let check_listing_installs config =
  let dname = fresh_name "lid" and node = fresh_name "lin" in
  let daemon = Daemon.start ~name:dname ~config () in
  Fun.protect
    ~finally:(fun () -> Daemon.stop daemon)
    (fun () ->
      let direct = vok (Connect.open_uri (Printf.sprintf "test://%s/" node)) in
      List.iteri
        (fun k name -> ignore (seed_domain direct ~running:(k = 0) name))
        [ "li-0"; "li-1"; "li-2" ];
      (* [resume=0]: a reconnect clears the cache instead of resuming. *)
      let open_client extra =
        vok
          (Connect.open_uri
             (Printf.sprintf
                "test+unix://%s/?daemon=%s&resume=0&reconnect=50&reconnect_delay=0.001%s"
                node dname extra))
      in
      let stats conn = Option.get (Drv_remote.conn_stats (vok (Connect.ops conn))) in
      let installs conn n =
        let before = (stats conn).Drv_remote.st_rows_installed in
        for _ = 1 to n do
          ignore (vok (Connect.list_all_domains conn))
        done;
        (stats conn).Drv_remote.st_rows_installed - before
      in
      let served_locally conn name =
        let before = (stats conn).Drv_remote.st_calls in
        let dom = vok (Domain.lookup_by_name conn name) in
        ignore (vok (Domain.get_info dom));
        ignore (vok (Domain.get_autostart dom));
        (stats conn).Drv_remote.st_calls = before
      in
      let conn = open_client "" in
      let full = installs conn 1 in
      Alcotest.(check bool) "the first listing installs" true (full > 0);
      Alcotest.(check int) "repeats install nothing" 0 (installs conn 2);
      Events.emit (vok (Connect.ops direct)).Driver.events ~domain_name:"li-1"
        Events.Ev_adopted;
      Alcotest.(check bool) "the event arrives" true
        (eventually (fun () ->
             List.exists
               (fun e -> e.Events.domain_name = "li-1")
               (vok (Connect.event_history conn))));
      Alcotest.(check int) "after an event, one full install" full (installs conn 1);
      Alcotest.(check bool) "then its point reads stay local" true
        (served_locally conn "li-1");
      let admin = vok (Admin.connect ~daemon:dname ()) in
      let srv = vok (Admin.lookup_server admin "libvirtd") in
      List.iter
        (fun c -> vok (Admin.client_disconnect srv c.Admin.cl_id))
        (vok (Admin.list_clients srv));
      Admin.close admin;
      Alcotest.(check bool) "reconnected" true
        (eventually (fun () ->
             ignore (Connect.hostname conn);
             (stats conn).Drv_remote.st_reconnects >= 1));
      Alcotest.(check int) "after a reconnect, one full install" full (installs conn 1);
      Alcotest.(check int) "then none again" 0 (installs conn 1);
      Connect.close conn;
      let ttl = 0.8 in
      let timed = open_client (Printf.sprintf "&events=0&cache_ttl=%g" ttl) in
      let first = Unix.gettimeofday () in
      Alcotest.(check int) "without events, a full install" full (installs timed 1);
      for _ = 1 to 2 do
        Thread.delay (ttl *. 0.6);
        Alcotest.(check int) "and again on a repeat" full (installs timed 1)
      done;
      Alcotest.(check bool) "over one ttl since the first listing" true
        (Unix.gettimeofday () -. first > ttl);
      Alcotest.(check bool) "the last listing's stamps serve a point read" true
        (served_locally timed "li-1");
      List.iter Connect.close [ timed; direct ])

let test_listing_installs_v18 () = check_listing_installs cond_config

let test_listing_installs_minor7 () =
  check_listing_installs { cond_config with Daemon_config.proto_minor = 7 }

(* --- cross-shard batch refusal ----------------------------------------- *)

let test_cross_shard_batch_refused () =
  with_members [ "m1"; "m2" ] (fun members ->
      let cA = member_conn (List.nth members 0) in
      let cB = member_conn (List.nth members 1) in
      ignore (seed_domain cA ~running:false "batch-a1");
      ignore (seed_domain cA ~running:false "batch-a2");
      ignore (seed_domain cB ~running:false "batch-b1");
      let t = fleet_of members in
      (* The controller is a daemon whose driver federates: open the
         fleet through it and speak raw batches. *)
      let ctl = fresh_name "ctld" in
      let daemon = Daemon.start ~name:ctl ~config:quiet_config () in
      Fun.protect
        ~finally:(fun () -> Daemon.stop daemon)
        (fun () ->
          let client = raw_client ctl in
          raw_open client ("fleet:///" ^ Fleet.name t);
          let create_sub name =
            (Rp.proc_to_int Rp.Proc_dom_create, Rp.enc_string_body name)
          in
          (* Mutations spanning members: refused whole, before any side
             effect. *)
          (match
             raw_call client Rp.Proc_call_batch
               (Rp.enc_batch_call [ create_sub "batch-a1"; create_sub "batch-b1" ])
           with
           | Ok _ -> Alcotest.fail "cross-shard batch accepted"
           | Error e ->
             Alcotest.(check bool) "operation_invalid" true
               (e.Verror.code = Verror.Operation_invalid);
             Alcotest.(check bool) "refusal names the rule" true
               (String.length e.Verror.message >= 25
               && String.sub e.Verror.message 0 25 = "cross-shard batch refused"));
          Alcotest.(check bool) "no sub-call executed" true
            (vok (Domain.get_state (vok (Domain.lookup_by_name cA "batch-a1")))
             = Vmm.Vm_state.Shutoff);
          (* Same-member mutations batch fine. *)
          let replies =
            Rp.dec_batch_reply
              (vok
                 (raw_call client Rp.Proc_call_batch
                    (Rp.enc_batch_call
                       [ create_sub "batch-a1"; create_sub "batch-a2" ])))
          in
          Alcotest.(check (list bool)) "both applied" [ true; true ]
            (List.map fst replies);
          (* Read-only batches may span shards freely. *)
          let info_sub name =
            (Rp.proc_to_int Rp.Proc_dom_get_info, Rp.enc_string_body name)
          in
          let replies =
            Rp.dec_batch_reply
              (vok
                 (raw_call client Rp.Proc_call_batch
                    (Rp.enc_batch_call [ info_sub "batch-a1"; info_sub "batch-b1" ])))
          in
          Alcotest.(check (list bool)) "reads span shards" [ true; true ]
            (List.map fst replies);
          Rpc_client.close client);
      Connect.close cA;
      Connect.close cB)

(* --- migration --------------------------------------------------------- *)

let test_migration_end_to_end () =
  with_members [ "m1"; "m2" ] (fun members ->
      let cA = member_conn (List.nth members 0) in
      let cB = member_conn (List.nth members 1) in
      ignore (seed_domain cA "mig-run");
      ignore (seed_domain cA ~running:false "mig-cold");
      let t = fleet_of members in
      let ops = Fleet.ops_of t in
      let fv = Option.get ops.Driver.fleet in
      let migrated = ref [] in
      let (_ : Events.subscription) =
        Events.subscribe ops.Driver.events (fun ev ->
            if ev.Events.lifecycle = Events.Ev_migrated then
              migrated := ev.Events.domain_name :: !migrated)
      in
      vok (Fleet.fleet_migrate t ~domain:"mig-run" ~dest:"m2");
      (* Source released, destination authoritative and running. *)
      expect_verr Verror.No_domain (Domain.lookup_by_name cA "mig-run");
      Alcotest.(check bool) "runs on the destination" true
        (vok (Domain.get_state (vok (Domain.lookup_by_name cB "mig-run")))
        <> Vmm.Vm_state.Shutoff);
      Alcotest.(check string) "ownership moved" "m2"
        (vok (fv.Driver.fleet_owner "mig-run"));
      Alcotest.(check bool) "migration event emitted" true
        (eventually (fun () -> !migrated = [ "mig-run" ]));
      (* A stopped domain migrates as a cold copy. *)
      vok (Fleet.fleet_migrate t ~domain:"mig-cold" ~dest:"m2");
      Alcotest.(check bool) "cold copy stays stopped" true
        (vok (Domain.get_state (vok (Domain.lookup_by_name cB "mig-cold")))
        = Vmm.Vm_state.Shutoff);
      (* Migrating onto the owner is refused. *)
      expect_verr Verror.Operation_invalid
        (Fleet.fleet_migrate t ~domain:"mig-run" ~dest:"m2");
      let fs = Fleet.status t in
      Alcotest.(check int) "no migrations left active" 0
        fs.Driver.fs_migrations_active;
      Connect.close cA;
      Connect.close cB)

let crash_phases = [ "begin"; "reserved"; "switchover"; "finished"; "released"; "end" ]

let test_migration_crash_sweep () =
  (* Kill the controller at every journaled boundary; recovery (a new
     controller incarnation replaying the same journal) must converge on
     exactly one copy of the domain — running, never split-brained. *)
  List.iter
    (fun phase ->
      with_members [ "m1"; "m2" ] (fun members ->
          let cA = member_conn (List.nth members 0) in
          let cB = member_conn (List.nth members 1) in
          ignore (seed_domain cA "sweep");
          let fname = fresh_name "sweepfleet" in
          let mk () =
            Fleet.create ~name:fname
              ~members:(List.map (fun m -> (m.md_member, m.md_uri)) members)
              ~shard_slice_s:1.0 ~probe_interval_s:0.05 ~probe_timeout_s:0.2 ()
          in
          let t = mk () in
          Fleet.crash_hook :=
            (fun p -> if p = phase then failwith ("controller killed @" ^ p));
          (match Fleet.fleet_migrate t ~domain:"sweep" ~dest:"m2" with
           | exception Failure _ -> ()
           | Ok () -> Alcotest.failf "%s: hook did not fire" phase
           | Error e -> Alcotest.failf "%s: %s" phase (Verror.to_string e));
          Fleet.crash_hook := (fun _ -> ());
          (* Controller restart: same name, same journal, recovery runs. *)
          Fleet.dissolve fname;
          let t2 = mk () in
          let on_a = Result.is_ok (Domain.lookup_by_name cA "sweep") in
          let on_b = Result.is_ok (Domain.lookup_by_name cB "sweep") in
          Alcotest.(check bool)
            (Printf.sprintf "%s: exactly one copy" phase)
            true
            ((on_a || on_b) && not (on_a && on_b));
          let expect_dest =
            List.mem phase [ "switchover"; "finished"; "released"; "end" ]
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s: authoritative side" phase)
            expect_dest on_b;
          let home = if expect_dest then cB else cA in
          Alcotest.(check bool)
            (Printf.sprintf "%s: still running" phase)
            true
            (vok (Domain.get_state (vok (Domain.lookup_by_name home "sweep")))
            <> Vmm.Vm_state.Shutoff);
          let fs = Fleet.status t2 in
          (match phase with
           | "begin" | "reserved" ->
             Alcotest.(check int)
               (Printf.sprintf "%s: rolled back" phase)
               1 fs.Driver.fs_migrations_rolled_back
           | "switchover" | "finished" | "released" ->
             Alcotest.(check int)
               (Printf.sprintf "%s: rolled forward" phase)
               1 fs.Driver.fs_migrations_recovered
           | _ ->
             (* The journal closed cleanly: nothing to recover. *)
             Alcotest.(check int) "end: nothing recovered" 0
               (fs.Driver.fs_migrations_recovered
               + fs.Driver.fs_migrations_rolled_back));
          (* Recovering a recovery is a no-op (idempotence). *)
          Fleet.dissolve fname;
          let t3 = mk () in
          let fs3 = Fleet.status t3 in
          Alcotest.(check int)
            (Printf.sprintf "%s: second recovery finds nothing" phase)
            0
            (fs3.Driver.fs_migrations_recovered
            + fs3.Driver.fs_migrations_rolled_back);
          Fleet.dissolve fname;
          Connect.close cA;
          Connect.close cB))
    crash_phases

(* --- admin surface ------------------------------------------------------ *)

let test_admin_fleet_status () =
  with_members [ "m1" ] (fun members ->
      let t = fleet_of members in
      let ctl = fresh_name "admfd" in
      let daemon = Daemon.start ~name:ctl ~config:quiet_config () in
      Fun.protect
        ~finally:(fun () -> Daemon.stop daemon)
        (fun () ->
          let admin = vok (Admin.connect ~daemon:ctl ()) in
          Fun.protect
            ~finally:(fun () -> Admin.close admin)
            (fun () ->
              let statuses = vok (Admin.fleet_status admin) in
              match
                List.find_opt
                  (fun fs -> fs.Driver.fs_fleet = Fleet.name t)
                  statuses
              with
              | None -> Alcotest.fail "fleet missing from admin status"
              | Some fs ->
                Alcotest.(check int) "one member" 1
                  (List.length fs.Driver.fs_members);
                Alcotest.(check string) "member name" "m1"
                  (List.hd fs.Driver.fs_members).Driver.ms_name)))

(* --- the full-suite fleet pass (CI-gated) ------------------------------- *)

(* OVIRT_FLEET_SUITE=1 runs the whole ordinary driver surface against a
   3-member fleet: every operation the shell uses, dispatched through
   placement routing and scatter-gather instead of a single node. *)
let test_fleet_suite () =
  with_members [ "m1"; "m2"; "m3" ] (fun members ->
      let t = fleet_of members in
      let conn = vok (Connect.open_uri ("fleet:///" ^ Fleet.name t)) in
      Alcotest.(check string) "driver name" "fleet" (Connect.driver_name conn);
      Alcotest.(check string) "hostname is the fleet" (Fleet.name t)
        (vok (Connect.hostname conn));
      let caps = vok (Connect.capabilities conn) in
      Alcotest.(check string) "federated capabilities" "federated"
        caps.Ovirt.Capabilities.virt_kind;
      (* Define a spread of domains through placement. *)
      let names = List.init 12 (fun i -> Printf.sprintf "suite-%d" i) in
      let doms =
        List.map (fun n -> vok (Domain.define_xml conn (dom_xml n))) names
      in
      List.iter (fun d -> vok (Domain.create d)) doms;
      let records = vok (Connect.list_all_domains conn) in
      Alcotest.(check int) "all rows visible fleet-wide" 12
        (List.length
           (List.filter
              (fun r ->
                List.mem r.Driver.rec_ref.Driver.dom_name names)
              records));
      (* Placement actually spread the load. *)
      let fs = Fleet.status t in
      let loaded =
        List.filter (fun m -> m.Driver.ms_domains > 0) fs.Driver.fs_members
      in
      Alcotest.(check bool) "more than one member loaded" true
        (List.length loaded > 1);
      (* Point reads and writes route transparently. *)
      let d0 = vok (Domain.lookup_by_name conn "suite-0") in
      Alcotest.(check bool) "running" true (vok (Domain.is_active d0));
      vok (Domain.suspend d0);
      Alcotest.(check bool) "suspended" true
        (vok (Domain.get_state d0) = Vmm.Vm_state.Paused);
      vok (Domain.resume d0);
      vok (Domain.set_memory d0 (4 * 1024));
      expect_verr Verror.Invalid_arg (Domain.set_memory d0 (64 * 1024));
      Alcotest.(check int) "info routed to the owner" (8 * 1024)
        (vok (Domain.get_info d0)).Driver.di_max_mem_kib;
      let d1 = vok (Domain.lookup_by_name conn "suite-1") in
      vok (Domain.set_autostart d1 true);
      Alcotest.(check bool) "autostart round-trips" true
        (vok (Domain.get_autostart d1));
      let by_uuid = vok (Domain.lookup_by_uuid conn (Domain.uuid d0)) in
      Alcotest.(check string) "uuid lookup" "suite-0" (Domain.name by_uuid);
      (* XML fetch routes to the owner. *)
      Alcotest.(check bool) "xml routed" true
        (String.length (vok (Domain.xml_desc d0)) > 0);
      (* Migrate one domain away from wherever placement put it. *)
      let fv = Option.get (vok (Connect.ops conn)).Driver.fleet in
      let owner = vok (fv.Driver.fleet_owner "suite-2") in
      let dest =
        List.find (fun m -> m.md_member <> owner) members
      in
      vok (fv.Driver.fleet_migrate ~domain:"suite-2" ~dest:dest.md_member);
      Alcotest.(check string) "moved" dest.md_member
        (vok (fv.Driver.fleet_owner "suite-2"));
      (* Events from any member surface on the fleet bus. *)
      let seen = ref [] in
      let sub =
        vok
          (Connect.subscribe_events conn (fun ev ->
               seen := ev.Events.domain_name :: !seen))
      in
      let d3 = vok (Domain.lookup_by_name conn "suite-3") in
      vok (Domain.destroy d3);
      Alcotest.(check bool) "member event reached the fleet bus" true
        (eventually (fun () -> List.mem "suite-3" !seen));
      Connect.unsubscribe_events conn sub;
      (* Teardown through the fleet. *)
      List.iter
        (fun d ->
          (match Domain.get_state d with
           | Ok s when s <> Vmm.Vm_state.Shutoff -> vok (Domain.destroy d)
           | _ -> ());
          vok (Domain.undefine d))
        doms;
      let left =
        List.filter
          (fun r -> List.mem r.Driver.rec_ref.Driver.dom_name names)
          (vok (Connect.list_all_domains conn))
      in
      Alcotest.(check int) "all undefined" 0 (List.length left);
      Connect.close conn)

let suite_gated =
  if Sys.getenv_opt "OVIRT_FLEET_SUITE" = Some "1" then
    [ quick "full driver surface over a 3-member fleet" test_fleet_suite ]
  else []

let () =
  Alcotest.run "fleet"
    [
      ( "wire",
        [
          quick "v1.7 numbering, gating and retry classes" test_wire_numbering;
          quick "codec roundtrips" test_codec_roundtrips;
          quick "minor-6 daemons reject fleet procs verbatim"
            test_old_daemon_rejects_fleet_procs;
          quick "plain daemon answers as a fleet of one"
            test_plain_daemon_is_fleet_of_one;
        ] );
      ( "placement",
        [
          quick "consistent-hash ring" test_placement;
          quick "pinned for fixed UUIDs" test_placement_pinned;
        ] );
      ( "health",
        [
          quick "state machine, hysteresis, one prober thread"
            test_health_machine_and_single_prober;
          quick "a shard failure is probed promptly"
            test_shard_failure_wakes_prober;
        ] );
      ( "chaos",
        [
          quick "member death degrades, never hangs"
            test_scatter_degraded_on_member_death;
          quick "mid-migration twin rows dedupe" test_no_double_count_mid_migration;
          quick "shard threads are reused" test_scatter_reuses_shard_threads;
          quick "a slow member stalls nobody else" test_slow_member_stalls_nobody;
        ] );
      ("merge", [ prop_merge_reuse ]);
      ("learning", [ prop_learning_matches_full ]);
      ( "members",
        [
          quick "dissolve closes member connections" test_dissolve_closes_connections;
          quick "re-creation closes the replaced connections"
            test_recreate_closes_replaced_connections;
          quick "a removed member's events stop" test_removed_member_events_stop;
        ] );
      ( "listing",
        [
          prop_conditional_listing;
          quick "unchanged is 12 bytes, a restart answers in full"
            test_conditional_listing_counts;
          quick "a minor-7 member keeps the v1.7 path"
            test_minor7_member_keeps_v17_path;
          quick "a cache-off member still reuses repeated bytes"
            test_cache_off_member_reuses_bytes;
          quick "repeated listings install no rows" test_listing_installs_v18;
          quick "a minor-7 member installs no repeated rows"
            test_listing_installs_minor7;
        ] );
      ( "batch",
        [ quick "cross-shard mutation batches refused" test_cross_shard_batch_refused ]
      );
      ( "migration",
        [
          quick "journaled two-phase handshake end-to-end"
            test_migration_end_to_end;
          quick "crash-point sweep: no lost domain, no split-brain"
            test_migration_crash_sweep;
        ] );
      ("admin", [ quick "fleet-status procedure" test_admin_fleet_status ]);
      ("suite", suite_gated);
    ]
