(* Server reply cache (zero-work read path): bound/stamp semantics of
   the cache itself, byte-for-byte equality of cached and uncached
   replies for the cached listings and the point reads (only the serial
   word may differ), freshness under write churn with fault-injected
   disconnects across several reconnect seeds, wire-invisibility on
   minor-pinned daemons, the opt-out knobs (daemon config and
   per-connection URI parameter), and the admin stats procedure. *)

open Testutil
module Verror = Ovirt.Verror
module Connect = Ovirt.Connect
module Domain = Ovirt.Domain
module Storage = Ovirt.Storage
module Daemon = Ovirt.Daemon
module Daemon_config = Ovirt.Daemon_config
module Admin = Ovirt.Admin_client
module Transport = Ovnet.Transport
module Netsim = Ovnet.Netsim
module Faults = Ovnet.Faults
module Reply_cache = Ovdaemon.Reply_cache
module Rpc_packet = Ovrpc.Rpc_packet
module Rp = Protocol.Remote_protocol
module Ap = Protocol.Admin_protocol

let () = Ovirt.initialize ()

let quiet_config =
  {
    Daemon_config.default with
    Daemon_config.log_outputs = [ { Vlog.min_priority = Vlog.Debug; sink = Vlog.Null } ];
  }

let with_daemon ?(config = quiet_config) f =
  let name = fresh_name "rcd" in
  let daemon = Daemon.start ~name ~config () in
  Fun.protect ~finally:(fun () -> Daemon.stop daemon) (fun () -> f name daemon)

(* --- wire numbering -------------------------------------------------------- *)

let test_admin_numbering_stable () =
  Alcotest.(check int) "Proc_daemon_reply_cache_stats wire number" 21
    (Ap.proc_to_int Ap.Proc_daemon_reply_cache_stats);
  match Ap.proc_of_int 21 with
  | Ok Ap.Proc_daemon_reply_cache_stats -> ()
  | _ -> Alcotest.fail "21 does not decode to Proc_daemon_reply_cache_stats"

(* --- cache unit semantics --------------------------------------------------- *)

(* A plain read: it holds no fill, so a live entry answers with its body. *)
let find c ~proc ~args ~gen =
  match Reply_cache.find_since c ~proc ~args ~gen ~fill:0 with
  | Reply_cache.Changed { frame; _ } -> Some frame
  | Reply_cache.Unchanged | Reply_cache.Absent -> None

let insert c ~proc ~args ~gen body =
  ignore (Reply_cache.insert c ~proc ~args ~gen body : int)

let test_cache_semantics () =
  let c = Reply_cache.create ~max_entries:2 in
  Alcotest.(check (option string)) "empty cache misses" None
    (find c ~proc:1 ~args:"a" ~gen:0);
  insert c ~proc:1 ~args:"a" ~gen:0 "frame-a";
  Alcotest.(check (option string)) "hit at matching gen" (Some "frame-a")
    (find c ~proc:1 ~args:"a" ~gen:0);
  (* Same args under a different procedure is a distinct key. *)
  Alcotest.(check (option string)) "proc is part of the key" None
    (find c ~proc:2 ~args:"a" ~gen:0);
  (* A stale stamp invalidates on lookup. *)
  Alcotest.(check (option string)) "stale stamp drops the entry" None
    (find c ~proc:1 ~args:"a" ~gen:1);
  Alcotest.(check (option string)) "dropped entry stays gone" None
    (find c ~proc:1 ~args:"a" ~gen:0);
  (* Bound: a full cache drops its least recently filled entry, [a] here
     when [d] arrives; a hit does not refresh an entry. *)
  insert c ~proc:1 ~args:"a" ~gen:1 "frame-a1";
  insert c ~proc:1 ~args:"b" ~gen:1 "frame-b";
  Alcotest.(check (option string)) "hit before the bound" (Some "frame-a1")
    (find c ~proc:1 ~args:"a" ~gen:1);
  insert c ~proc:1 ~args:"d" ~gen:1 "frame-d";
  Alcotest.(check (option string)) "newer fill survives" (Some "frame-b")
    (find c ~proc:1 ~args:"b" ~gen:1);
  Alcotest.(check (option string)) "least recently filled evicted" None
    (find c ~proc:1 ~args:"a" ~gen:1);
  (* Re-insert replaces in place. *)
  insert c ~proc:1 ~args:"b" ~gen:2 "frame-b2";
  Alcotest.(check (option string)) "re-insert replaces" (Some "frame-b2")
    (find c ~proc:1 ~args:"b" ~gen:2);
  let s = Reply_cache.stats c in
  Alcotest.(check int) "entries bounded" 2 s.Reply_cache.entries;
  Alcotest.(check int) "bytes track frames"
    (String.length "frame-b2" + String.length "frame-d")
    s.Reply_cache.bytes;
  Alcotest.(check int) "one eviction" 1 s.Reply_cache.evictions;
  Alcotest.(check bool) "hits counted" true (s.Reply_cache.hits >= 3);
  Alcotest.(check bool) "stale lookups count as invalidations" true
    (s.Reply_cache.invalidations >= 1);
  Reply_cache.invalidate_all c;
  Alcotest.(check int) "flushed" 0 (Reply_cache.stats c).Reply_cache.entries;
  Alcotest.(check (option string)) "nothing survives a flush" None
    (find c ~proc:1 ~args:"b" ~gen:2)

(* Fill numbers: every insert takes the next one, so a refill after a
   flush, a stale stamp or an eviction never reuses the number a holder
   of the old frame was given. *)
let test_fill_numbers () =
  let c = Reply_cache.create ~max_entries:2 in
  let since ~gen ~fill = Reply_cache.find_since c ~proc:1 ~args:"" ~gen ~fill in
  let is_unchanged = function Reply_cache.Unchanged -> true | _ -> false in
  let is_absent = function Reply_cache.Absent -> true | _ -> false in
  Alcotest.(check bool) "nothing to answer from" true (is_absent (since ~gen:0 ~fill:0));
  let f1 = Reply_cache.insert c ~proc:1 ~args:"" ~gen:0 "l1" in
  Alcotest.(check bool) "its holder is current" true (is_unchanged (since ~gen:0 ~fill:f1));
  (match since ~gen:0 ~fill:0 with
   | Reply_cache.Changed { frame; fill } ->
     Alcotest.(check string) "others get the frame" "l1" frame;
     Alcotest.(check int) "and its number" f1 fill
   | _ -> Alcotest.fail "a holder of nothing was not sent the frame");
  Reply_cache.invalidate_all c;
  Alcotest.(check bool) "a flush forgets it" true (is_absent (since ~gen:0 ~fill:f1));
  let f2 = Reply_cache.insert c ~proc:1 ~args:"" ~gen:0 "l2" in
  Alcotest.(check bool) "a refill is renumbered" true (f2 <> f1);
  Alcotest.(check bool) "the old holder is not current" false
    (is_unchanged (since ~gen:0 ~fill:f1));
  Alcotest.(check bool) "a stale stamp forgets it" true (is_absent (since ~gen:1 ~fill:f2));
  let f3 = Reply_cache.insert c ~proc:1 ~args:"" ~gen:1 "l3" in
  insert c ~proc:2 ~args:"x" ~gen:1 "x";
  insert c ~proc:2 ~args:"y" ~gen:1 "y";
  Alcotest.(check bool) "an eviction forgets it" true (is_absent (since ~gen:1 ~fill:f3));
  let f4 = Reply_cache.insert c ~proc:1 ~args:"" ~gen:1 "l4" in
  Alcotest.(check bool) "numbers only grow" true (f1 < f2 && f2 < f3 && f3 < f4);
  Alcotest.(check int) "one unchanged answer counted" 1
    (Reply_cache.stats c).Reply_cache.unchanged

(* --- raw-frame harness ------------------------------------------------------ *)

(* A raw RPC connection whose reply frames are recorded exactly as they
   came off the wire: the receiver thread appends each frame before the
   caller is woken, so after [call] returns the newest recorded frame is
   that call's reply. *)
let connect_raw daemon =
  let mu = Mutex.create () in
  let frames = ref [] in
  let client =
    match
      Rpc_client.connect
        ~address:(Daemon.mgmt_address daemon)
        ~kind:Transport.Unix_sock ~program:Rp.program ~version:Rp.version ()
    with
    | Ok c -> c
    | Error e -> Alcotest.failf "connect: %s" (Verror.to_string e)
  in
  Rpc_client.set_raw_reply_hook client
    (Some
       (fun wire ->
         Mutex.lock mu;
         frames := wire :: !frames;
         Mutex.unlock mu));
  let last () =
    Mutex.lock mu;
    let f = match !frames with [] -> Alcotest.fail "no frame recorded" | f :: _ -> f in
    Mutex.unlock mu;
    f
  in
  (client, last)

let rpc_open client uri =
  match
    Rpc_client.call client
      ~procedure:(Rp.proc_to_int Rp.Proc_open)
      ~body:(Rp.enc_string_body uri) ()
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "Proc_open: %s" (Verror.to_string e)

let call_frame client last proc body =
  let r = Rpc_client.call client ~procedure:(Rp.proc_to_int proc) ~body () in
  (r, last ())

let zero_serial frame = Rpc_packet.with_serial frame 0

(* The two cached listings. *)
let cached_calls =
  [ ("dom_list_all", Rp.Proc_dom_list_all, ""); ("fleet_list_all", Rp.Proc_fleet_list_all, "") ]

(* The point reads, which skip the cache, with canonical argument bytes
   against the default node population (one running domain "test"). *)
let point_calls ~uuid ~vol_path =
  [
    ("capabilities", Rp.Proc_get_capabilities, "");
    ("dom_get_info", Rp.Proc_dom_get_info, Rp.enc_string_body "test");
    ("dom_get_xml", Rp.Proc_dom_get_xml, Rp.enc_string_body "test");
    ("lookup_by_name", Rp.Proc_lookup_by_name, Rp.enc_string_body "test");
    ("lookup_by_uuid", Rp.Proc_lookup_by_uuid, Rp.enc_string_body uuid);
    ("vol_lookup", Rp.Proc_vol_lookup, Rp.enc_string_body vol_path);
  ]

let test_byte_equality_all_procs () =
  with_daemon (fun name daemon ->
      let host = fresh_name "rceq" in
      (* Seed extra node state through a direct (in-process) connection
         to the same driver node the daemon serves. *)
      let producer = vok (Connect.open_uri (Printf.sprintf "test://%s/" host)) in
      let pool =
        vok
          (Storage.define_pool producer ~name:"rcpool" ~target_path:"/rc"
             ~capacity_b:(1 lsl 30))
      in
      vok (Storage.start_pool pool);
      let vol =
        vok (Storage.create_volume pool ~name:"v0" ~capacity_b:4096 ~format:"raw")
      in
      let vol_path = vol.Ovirt.Storage_backend.vol_key in
      let uuid =
        Vmm.Uuid.to_string
          (Domain.uuid (vok (Domain.lookup_by_name producer "test")))
      in
      let on_client, on_last = connect_raw daemon in
      let off_client, off_last = connect_raw daemon in
      rpc_open on_client (Printf.sprintf "test://%s/" host);
      rpc_open off_client (Printf.sprintf "test://%s/?replycache=0" host);
      List.iter
        (fun (label, proc, body) ->
          let r1, f1 = call_frame on_client on_last proc body in
          let r2, f2 = call_frame on_client on_last proc body in
          let r3, f3 = call_frame off_client off_last proc body in
          let b1 = vok r1 and b2 = vok r2 and b3 = vok r3 in
          Alcotest.(check string) (label ^ ": cached body stable") b1 b2;
          Alcotest.(check string) (label ^ ": body equals uncached") b1 b3;
          Alcotest.(check string)
            (label ^ ": miss and hit frames differ only in serial")
            (zero_serial f1) (zero_serial f2);
          Alcotest.(check string)
            (label ^ ": cached frame equals uncached frame")
            (zero_serial f1) (zero_serial f3))
        (cached_calls @ point_calls ~uuid ~vol_path);
      (* A write through a direct connection must be visible to the next
         cached read: a qemu balloon emits no lifecycle event, so this
         exercises the generation-stamp backstop specifically (the event
         bus never fires).  The listing row carries the ballooned size. *)
      let qhost = fresh_name "rcq" in
      let quri = Printf.sprintf "qemu://%s/system" qhost in
      let qdirect = vok (Connect.open_uri quri) in
      let qdom = define_and_start qdirect ~virt_type:"kvm" ~name:"bal" () in
      let q_client, _ = connect_raw daemon in
      rpc_open q_client quri;
      let memory_of body =
        match
          List.find_opt
            (fun r -> r.Ovirt.Driver.rec_ref.Ovirt.Driver.dom_name = "bal")
            (Rp.dec_domain_record_list body)
        with
        | Some r -> r.Ovirt.Driver.rec_info.Ovirt.Driver.di_memory_kib
        | None -> Alcotest.fail "domain missing from bulk listing"
      in
      let list_all () =
        memory_of
          (vok
             (Rpc_client.call q_client
                ~procedure:(Rp.proc_to_int Rp.Proc_dom_list_all)
                ~body:"" ()))
      in
      Alcotest.(check int) "memory starts at its maximum" 8192 (list_all ());
      vok (Domain.set_memory qdom 4096);
      Alcotest.(check int) "event-less write invalidates" 4096 (list_all ());
      (* The listings really were served from the cache, and only they
         were looked up: two calls each in the loop, two listings after. *)
      let admin = vok (Admin.connect ~daemon:name ()) in
      let rc = vok (Admin.reply_cache_stats admin) in
      let listings = List.length cached_calls in
      Alcotest.(check bool) "cache enabled" true rc.Admin.rc_enabled;
      Alcotest.(check bool) "hits recorded" true (rc.Admin.rc_hits >= listings);
      Alcotest.(check bool) "patched-serial sends recorded" true
        (rc.Admin.rc_patched_sends >= listings);
      Alcotest.(check bool) "insertions recorded" true (rc.Admin.rc_insertions >= listings);
      Alcotest.(check int) "point reads never looked up" ((2 * listings) + 2)
        (rc.Admin.rc_hits + rc.Admin.rc_misses);
      Admin.close admin;
      Rpc_client.close on_client;
      Rpc_client.close off_client;
      Rpc_client.close q_client;
      Connect.close qdirect;
      Connect.close producer)

(* --- the annotated listing ------------------------------------------------- *)

let names_of records =
  List.sort compare
    (List.map (fun r -> r.Ovirt.Driver.rec_ref.Ovirt.Driver.dom_name) records)

(* At minor 7 a client's bulk listing is the annotated [fleet_list_all].
   On a plain daemon its reply depends on node state alone, so the
   reply cache serves it exactly as it serves [dom_list_all]. *)
let test_annotated_listing_cached () =
  with_daemon (fun name daemon ->
      let host = fresh_name "rcfl" in
      let remote =
        vok
          (Connect.open_uri
             (Printf.sprintf "test+unix://%s/?daemon=%s" host name))
      in
      let admin = vok (Admin.connect ~daemon:name ()) in
      let hits () = (vok (Admin.reply_cache_stats admin)).Admin.rc_hits in
      let first = vok (Connect.list_all_domains remote) in
      let h0 = hits () in
      let second = vok (Connect.list_all_domains remote) in
      Alcotest.(check int) "second listing is a reply-cache hit" (h0 + 1)
        (hits ());
      Alcotest.(check (list string)) "same rows" (names_of first)
        (names_of second);
      (* The remote driver forwards [test://HOST/], so a raw connection
         opening that URI shares the cache entry the listing just hit:
         its frame is the one the client received, serial aside. *)
      let on_client, on_last = connect_raw daemon in
      let off_client, off_last = connect_raw daemon in
      rpc_open on_client (Printf.sprintf "test://%s/" host);
      rpc_open off_client (Printf.sprintf "test://%s/?replycache=0" host);
      let r1, f1 = call_frame on_client on_last Rp.Proc_fleet_list_all "" in
      Alcotest.(check int) "raw call hits the same entry" (h0 + 2) (hits ());
      let r2, f2 = call_frame off_client off_last Rp.Proc_fleet_list_all "" in
      Alcotest.(check string) "body equals uncached" (vok r2) (vok r1);
      Alcotest.(check string) "cached frame equals uncached frame"
        (zero_serial f2) (zero_serial f1);
      (* A define between two listings shows in the second. *)
      let _ =
        vok
          (Domain.define_xml remote
             (Vmm.Domxml.to_xml ~virt_type:"test" (Vmm.Vm_config.make "rcfl-new")))
      in
      Alcotest.(check bool) "define visible in the next listing" true
        (List.mem "rcfl-new" (names_of (vok (Connect.list_all_domains remote))));
      Admin.close admin;
      Rpc_client.close on_client;
      Rpc_client.close off_client;
      Connect.close remote)

(* A fleet controller's ops carry no generation stamp, so its connections
   never reach the reply cache: a degraded listing taken while a member
   is dead is never replayed once the member is back. *)
let test_controller_listing_never_cached () =
  let start_member () =
    let dname = fresh_name "rcmd" in
    let node = fresh_name "rcmn" in
    let handle = ref (Some (Daemon.start ~name:dname ~config:quiet_config ())) in
    (dname, node, handle)
  in
  let stop_member (_, _, handle) =
    Option.iter Daemon.stop !handle;
    handle := None
  in
  let members = [ start_member (); start_member () ] in
  let ctl = fresh_name "rcctl" in
  let ctl_daemon = Daemon.start ~name:ctl ~config:quiet_config () in
  Fun.protect
    ~finally:(fun () ->
      Daemon.stop ctl_daemon;
      List.iter stop_member members)
    (fun () ->
      let fleet =
        Ovirt.Fleet.create ~name:(fresh_name "rcfleet")
          ~members:
            (List.mapi
               (fun i (dname, node, _) ->
                 ( Printf.sprintf "m%d" i,
                   Printf.sprintf
                     "test+unix://%s/?daemon=%s&reconnect=50&reconnect_delay=0.01&reconnect_max_delay=0.05"
                     node dname ))
               members)
          ~shard_slice_s:0.5 ~probe_interval_s:0.05 ~probe_timeout_s:0.2 ()
      in
      (* Each member node carries one domain of its own name. *)
      let _, victim_node, _ = List.nth members 1 in
      List.iter
        (fun (dname, node, _) ->
          let conn =
            vok
              (Connect.open_uri
                 (Printf.sprintf "test+unix://%s/?daemon=%s" node dname))
          in
          ignore
            (vok
               (Domain.define_xml conn
                  (Vmm.Domxml.to_xml ~virt_type:"test" (Vmm.Vm_config.make node))));
          Connect.close conn)
        members;
      let conn =
        vok
          (Connect.open_uri
             (Printf.sprintf "fleet+unix:///%s?daemon=%s"
                (Ovirt.Fleet.name fleet) ctl))
      in
      let lists_victim () =
        match Connect.list_all_domains conn with
        | Ok records -> List.mem victim_node (names_of records)
        | Error _ -> false
      in
      Alcotest.(check bool) "healthy listing has every member" true
        (lists_victim ());
      Alcotest.(check bool) "a repeat is still complete" true (lists_victim ());
      stop_member (List.nth members 1);
      Alcotest.(check bool) "listing degrades after a member kill" false
        (lists_victim ());
      let dname, _, handle = List.nth members 1 in
      handle := Some (Daemon.start ~name:dname ~config:quiet_config ());
      Alcotest.(check bool) "degraded listing not replayed once it is back"
        true
        (eventually ~timeout_s:5.0 lists_victim);
      let admin = vok (Admin.connect ~daemon:ctl ()) in
      let rc = vok (Admin.reply_cache_stats admin) in
      Alcotest.(check int) "controller created no cache" 0 rc.Admin.rc_caches;
      Alcotest.(check int) "controller never probed a cache" 0
        (rc.Admin.rc_hits + rc.Admin.rc_misses);
      Admin.close admin;
      Connect.close conn;
      Ovirt.Fleet.dissolve (Ovirt.Fleet.name fleet))

(* --- freshness under churn -------------------------------------------------- *)

(* Writers mutate through the direct path while reader threads hammer the
   cached read path through the daemon — across a listener fault plan
   that keeps cutting the readers' connections (drv_remote re-issues
   idempotent reads after reconnecting).  After every write completes,
   the very next cached read must observe it: zero stale reads, over
   several reconnect seeds. *)
let test_stale_read_chaos () =
  List.iter
    (fun seed ->
      with_daemon (fun name daemon ->
          let host = fresh_name "rchaos" in
          let producer =
            vok (Connect.open_uri (Printf.sprintf "test://%s/" host))
          in
          let ddom = vok (Domain.lookup_by_name producer "test") in
          let remote =
            vok
              (Connect.open_uri
                 (Printf.sprintf
                    "test+unix://%s/?daemon=%s&reconnect=16&reconnect_delay=0.002&reconnect_max_delay=0.02&reconnect_seed=%d"
                    host name seed))
          in
          let rdom = vok (Domain.lookup_by_name remote "test") in
          Alcotest.(check bool) "plan attached" true
            (Netsim.set_listener_faults (Daemon.mgmt_address daemon)
               (Some (Faults.plan ~seed [ Faults.Drop_after 40 ])));
          let stop = Atomic.make false in
          let hammer_errors = Atomic.make 0 in
          let hammers =
            List.init 3 (fun _ ->
                Thread.create
                  (fun () ->
                    while not (Atomic.get stop) do
                      (match Domain.get_info rdom with
                       | Ok _ -> ()
                       | Error _ -> Atomic.incr hammer_errors);
                      match Connect.list_all_domains remote with
                      | Ok _ -> ()
                      | Error _ -> Atomic.incr hammer_errors
                    done)
                  ())
          in
          (* Toggle a write and immediately read it back
             through the cached bulk listing: any cached frame surviving
             the write would surface as a stale flag. *)
          let stale = ref 0 in
          for i = 1 to 60 do
            let flag = i mod 2 = 0 in
            vok (Domain.set_autostart ddom flag);
            let recs = vok (Connect.list_all_domains remote) in
            match
              List.find_opt
                (fun r -> r.Ovirt.Driver.rec_ref.Ovirt.Driver.dom_name = "test")
                recs
            with
            | Some r when r.Ovirt.Driver.rec_autostart = Some flag -> ()
            | Some _ | None -> incr stale
          done;
          Atomic.set stop true;
          List.iter Thread.join hammers;
          ignore (Netsim.set_listener_faults (Daemon.mgmt_address daemon) None);
          Alcotest.(check int)
            (Printf.sprintf "seed %d: no stale reads" seed)
            0 !stale;
          Alcotest.(check int)
            (Printf.sprintf "seed %d: hammers survived the chaos" seed)
            0 (Atomic.get hammer_errors);
          Connect.close remote;
          Connect.close producer))
    [ 7; 23; 4242 ]

(* --- wire invisibility on old daemons --------------------------------------- *)

let test_minor_pinned_wire_invisible () =
  let config = { quiet_config with Daemon_config.proto_minor = 2 } in
  with_daemon ~config (fun _name daemon ->
      let host = fresh_name "rcold" in
      let on_client, on_last = connect_raw daemon in
      let off_client, off_last = connect_raw daemon in
      rpc_open on_client (Printf.sprintf "test://%s/" host);
      rpc_open off_client (Printf.sprintf "test://%s/?replycache=0" host);
      (* v1.3+ procedures must be rejected identically whether or not the
         cache exists — the fast path honours the minor gate. *)
      List.iter
        (fun proc ->
          let r1, f1 = call_frame on_client on_last proc "" in
          let r2, f2 = call_frame off_client off_last proc "" in
          (match (r1, r2) with
           | Error e1, Error e2 ->
             Alcotest.(check string) "identical rejection"
               (Verror.to_string e1) (Verror.to_string e2)
           | _ -> Alcotest.fail "gated procedure accepted");
          Alcotest.(check string) "rejection frames byte-identical"
            (zero_serial f1) (zero_serial f2))
        [ Rp.Proc_dom_list_all; Rp.Proc_vol_lookup ];
      (* v1.0 reads still flow. *)
      let body = Rp.enc_string_body "test" in
      let r1, f1 = call_frame on_client on_last Rp.Proc_dom_get_info body in
      let r2, f2 = call_frame on_client on_last Rp.Proc_dom_get_info body in
      Alcotest.(check string) "pinned daemon still serves v1.0 reads"
        (vok r1) (vok r2);
      Alcotest.(check string) "frames differ only in serial" (zero_serial f1)
        (zero_serial f2);
      Rpc_client.close on_client;
      Rpc_client.close off_client)

(* --- knobs ------------------------------------------------------------------ *)

let test_daemon_knob_disables () =
  let config = { quiet_config with Daemon_config.reply_cache = 0 } in
  with_daemon ~config (fun name _daemon ->
      let host = fresh_name "rcoff" in
      let remote =
        vok
          (Connect.open_uri
             (Printf.sprintf "test+unix://%s/?daemon=%s" host name))
      in
      for _ = 1 to 5 do
        ignore (vok (Connect.list_all_domains remote))
      done;
      let admin = vok (Admin.connect ~daemon:name ()) in
      let rc = vok (Admin.reply_cache_stats admin) in
      Alcotest.(check bool) "disabled" false rc.Admin.rc_enabled;
      Alcotest.(check int) "no caches created" 0 rc.Admin.rc_caches;
      Alcotest.(check int) "no hits" 0 rc.Admin.rc_hits;
      Admin.close admin;
      Connect.close remote)

let test_uri_param_opts_out () =
  with_daemon (fun name _daemon ->
      let host = fresh_name "rcopt" in
      let remote =
        vok
          (Connect.open_uri
             (Printf.sprintf "test+unix://%s/?daemon=%s&replycache=0" host name))
      in
      for _ = 1 to 5 do
        ignore (vok (Connect.list_all_domains remote))
      done;
      let admin = vok (Admin.connect ~daemon:name ()) in
      let rc = vok (Admin.reply_cache_stats admin) in
      Alcotest.(check bool) "daemon knob still on" true rc.Admin.rc_enabled;
      Alcotest.(check int) "opted-out connection never hits" 0 rc.Admin.rc_hits;
      Admin.close admin;
      Connect.close remote)

let test_entries_knob_bounds_cache () =
  let config = { quiet_config with Daemon_config.reply_cache_entries = 1 } in
  with_daemon ~config (fun name daemon ->
      let client, last = connect_raw daemon in
      rpc_open client (Printf.sprintf "test://%s/" (fresh_name "rcbound"));
      (* The two listings alternating through a one-entry cache: every
         lookup misses and every insert evicts. *)
      for _ = 1 to 4 do
        ignore (vok (fst (call_frame client last Rp.Proc_dom_list_all "")));
        ignore (vok (fst (call_frame client last Rp.Proc_fleet_list_all "")))
      done;
      let admin = vok (Admin.connect ~daemon:name ()) in
      let rc = vok (Admin.reply_cache_stats admin) in
      Alcotest.(check bool) "evictions under the bound" true
        (rc.Admin.rc_evictions > 0);
      Alcotest.(check int) "never above the bound" 1 rc.Admin.rc_entries;
      Admin.close admin;
      Rpc_client.close client)

let test_config_roundtrip () =
  let cfg =
    {
      quiet_config with
      Daemon_config.reply_cache = 0;
      Daemon_config.reply_cache_entries = 9;
    }
  in
  match Daemon_config.parse (Daemon_config.to_file cfg) with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok parsed ->
    Alcotest.(check int) "reply_cache survives" 0 parsed.Daemon_config.reply_cache;
    Alcotest.(check int) "reply_cache_entries survives" 9
      parsed.Daemon_config.reply_cache_entries;
    (match Daemon_config.parse "reply_cache_entries = 0" with
     | Error _ -> ()
     | Ok _ -> Alcotest.fail "zero-entry cache accepted")

(* --- one lookup per call ------------------------------------------------------ *)

(* A top-level listing is looked up once, on the receiving thread; on a
   miss the pool only fills.  So every cached call counts exactly one hit
   or one miss, each first call one miss, and each miss one insertion. *)
let test_one_lookup_per_call () =
  with_daemon (fun name daemon ->
      let client, _ = connect_raw daemon in
      rpc_open client (Printf.sprintf "test://%s/" (fresh_name "rcone"));
      let call proc body =
        vok (Rpc_client.call client ~procedure:(Rp.proc_to_int proc) ~body ())
      in
      ignore (call Rp.Proc_dom_list_all "");
      ignore (call Rp.Proc_dom_list_all "");
      let since token =
        Xdr.decode Rp.fleet_list_since.Rp.sg_ret
          (call Rp.Proc_fleet_list_since
             (Xdr.encode Rp.fleet_list_since.Rp.sg_args token))
      in
      (match since Rp.no_token with
       | Rp.Since_full (token, _) -> (
         match since token with
         | Rp.Since_unchanged _ -> ()
         | Rp.Since_full _ -> Alcotest.fail "a repeated listing was sent in full")
       | Rp.Since_unchanged _ -> Alcotest.fail "a first listing was \"unchanged\"");
      let calls = 4 and first_calls = 2 in
      let admin = vok (Admin.connect ~daemon:name ()) in
      let rc = vok (Admin.reply_cache_stats admin) in
      Admin.close admin;
      Rpc_client.close client;
      Alcotest.(check int) "one lookup per call" calls (rc.Admin.rc_hits + rc.Admin.rc_misses);
      Alcotest.(check int) "one miss per first call" first_calls rc.Admin.rc_misses;
      Alcotest.(check int) "one insertion per miss" rc.Admin.rc_misses rc.Admin.rc_insertions)

(* --- cached equals uncached under random interleavings --------------------- *)

(* One step of a schedule.  Reads go to both connections back to back,
   with no write in between, and their replies are compared; a write goes
   to one of them, and its reply is not compared. *)
type step =
  | Read of string * int * string  (** label, procedure, argument body *)
  | Since  (** a v1.8 conditional listing *)
  | Batch of (string * int * string) list  (** read sub-calls *)
  | Deadline of string * int * string  (** a read in a deadline envelope *)
  | Write of bool * string * int * string  (** on the cache-on connection? *)

let show_step = function
  | Read (label, _, _) -> "read " ^ label
  | Since -> "since"
  | Batch subs -> "batch [" ^ String.concat "; " (List.map (fun (l, _, _) -> l) subs) ^ "]"
  | Deadline (label, _, _) -> "deadline " ^ label
  | Write (on, label, _, _) -> Printf.sprintf "write %s (cache %s)" label (if on then "on" else "off")

let call_of label (s : (_, _) Rp.signature) args =
  (label, Rp.proc_to_int s.Rp.sg_proc, Xdr.encode s.Rp.sg_args args)

let gen_schedule =
  let open QCheck.Gen in
  let name = oneofl [ "test"; "qa"; "qb" ] in
  let read =
    oneof
      [
        map (fun n -> call_of ("get_info " ^ n) Rp.dom_get_info n) name;
        map (fun n -> call_of ("get_xml " ^ n) Rp.dom_get_xml n) name;
        map (fun n -> call_of ("lookup " ^ n) Rp.lookup_by_name n) name;
        return (call_of "dom_list_all" Rp.dom_list_all ());
        return (call_of "fleet_list_all" Rp.fleet_list_all ());
        return (call_of "capabilities" Rp.get_capabilities ());
      ]
  in
  let write =
    oneof
      [
        map2
          (fun n kib -> call_of (Printf.sprintf "set_memory %s %d" n kib) Rp.dom_set_memory (n, kib))
          name (oneofl [ 16384; 65536 ]);
        map2
          (fun n flag ->
            call_of (Printf.sprintf "set_autostart %s %b" n flag) Rp.dom_set_autostart (n, flag))
          name bool;
        map2
          (fun n kib ->
            let cfg = Vmm.Vm_config.make ~uuid:(Vmm.Uuid.derive n) ~memory_kib:kib n in
            call_of (Printf.sprintf "define %s %d" n kib) Rp.define_xml
              (Vmm.Domxml.to_xml ~virt_type:"test" cfg))
          (oneofl [ "qa"; "qb" ]) (oneofl [ 32768; 65536 ]);
        map2
          (fun (label, s) n -> call_of (label ^ " " ^ n) s n)
          (oneofl
             [
               ("create", Rp.dom_create); ("destroy", Rp.dom_destroy);
               ("suspend", Rp.dom_suspend); ("resume", Rp.dom_resume);
             ])
          name;
      ]
  in
  let step =
    frequency
      [
        (6, map (fun (l, p, b) -> Read (l, p, b)) read);
        (2, return Since);
        (1, map (fun subs -> Batch subs) (list_size (int_range 1 4) read));
        (1, map (fun (l, p, b) -> Deadline (l, p, b)) read);
        (4, map2 (fun on (l, p, b) -> Write (on, l, p, b)) bool write);
      ]
  in
  list_size (int_range 1 40) step

let show_reply = function
  | Ok body -> Printf.sprintf "ok %S" body
  | Error e -> "error " ^ e

(* Runs one schedule against a fresh node of [daemon]; the first step
   whose cached and uncached replies differ. *)
let schedule_diverges daemon steps =
  let host = fresh_name "rcprop" in
  let on_client, _ = connect_raw daemon in
  let off_client, _ = connect_raw daemon in
  rpc_open on_client (Printf.sprintf "test://%s/" host);
  rpc_open off_client (Printf.sprintf "test://%s/?replycache=0" host);
  let call client procedure body =
    Result.map_error Verror.to_string (Rpc_client.call client ~procedure ~body ())
  in
  let both procedure body =
    (call on_client procedure body, call off_client procedure body)
  in
  let since_args token = Xdr.encode Rp.fleet_list_since.Rp.sg_args token in
  let since_proc = Rp.proc_to_int Rp.Proc_fleet_list_since in
  (* The listing the cache-on connection holds, as its encoded rows. *)
  let held = ref None in
  let listing_bytes = function
    | Error _ as e -> e
    | Ok body -> (
      match Xdr.decode Rp.fleet_list_since.Rp.sg_ret body with
      | Rp.Since_full (token, listing) ->
        let bytes = Xdr.encode Rp.fleet_listing listing in
        Ok (token, bytes)
      | Rp.Since_unchanged token -> (
        match !held with
        | Some (t, bytes) when t = token -> Ok (token, bytes)
        | Some _ | None -> Error "unchanged for a listing not held"))
  in
  let replies = function
    | Read (_, proc, body) -> both proc body
    | Deadline (_, proc, body) ->
      both (Rp.proc_to_int Rp.Proc_call_deadline)
        (Xdr.encode Rp.call_deadline.Rp.sg_args (5000, proc, body))
    | Batch subs ->
      both (Rp.proc_to_int Rp.Proc_call_batch)
        (Xdr.encode Rp.batch_call (List.map (fun (_, p, b) -> (p, b)) subs))
    | Since ->
      let token = match !held with Some (t, _) -> t | None -> Rp.no_token in
      let on = listing_bytes (call on_client since_proc (since_args token)) in
      let off = listing_bytes (call off_client since_proc (since_args Rp.no_token)) in
      (match on with Ok h -> held := Some h | Error _ -> held := None);
      (Result.map snd on, Result.map snd off)
    | Write (on, _, proc, body) ->
      ignore (call (if on then on_client else off_client) proc body);
      (Ok "", Ok "")
  in
  let rec go i = function
    | [] -> None
    | step :: rest ->
      let on, off = replies step in
      if on = off then go (i + 1) rest
      else
        Some
          (Printf.sprintf "step %d (%s): cached %s, uncached %s" i (show_step step)
             (show_reply on) (show_reply off))
  in
  let verdict = go 0 steps in
  Rpc_client.close on_client;
  Rpc_client.close off_client;
  verdict

let prop_cached_equals_uncached =
  let print steps = String.concat "\n" (List.map show_step steps) in
  qcheck_case ~count:60 "cached replies equal uncached ones"
    (QCheck.make ~print gen_schedule) (fun steps ->
      match with_daemon (fun _ daemon -> schedule_diverges daemon steps) with
      | None -> true
      | Some where -> QCheck.Test.fail_reportf "%s" where)

let () =
  Alcotest.run "replycache"
    [
      ( "wire",
        [
          quick "admin numbering stable" test_admin_numbering_stable;
          quick "minor-pinned daemon indistinguishable"
            test_minor_pinned_wire_invisible;
        ] );
      ( "semantics",
        [
          quick "bound, stamps, flush" test_cache_semantics;
          quick "fill numbers" test_fill_numbers;
        ] );
      ( "byte equality",
        [
          quick "all cached procedures" test_byte_equality_all_procs;
          prop_cached_equals_uncached;
        ] );
      ("counters", [ quick "one lookup per call" test_one_lookup_per_call ]);
      ( "fleet listing",
        [
          quick "plain daemon serves it from the cache"
            test_annotated_listing_cached;
          quick "controller listing never cached"
            test_controller_listing_never_cached;
        ] );
      ("freshness", [ quick "write churn with disconnects" test_stale_read_chaos ]);
      ( "knobs",
        [
          quick "daemon knob disables" test_daemon_knob_disables;
          quick "URI param opts a connection out" test_uri_param_opts_out;
          quick "entry bound enforced" test_entries_knob_bounds_cache;
          quick "config roundtrip" test_config_roundtrip;
        ] );
    ]
