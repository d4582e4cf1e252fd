(* RPC layer: packet framing, typed parameters, protocol tables, and the
   shared body codecs. *)

open Testutil
module Rpc_packet = Ovrpc.Rpc_packet
module Tp = Ovrpc.Typed_params
module Rp = Protocol.Remote_protocol
module Ap = Protocol.Admin_protocol
module Verror = Ovirt_core.Verror
module Driver = Ovirt_core.Driver

(* --- Rpc_packet --------------------------------------------------------- *)

let sample_header =
  Rpc_packet.call_header ~program:Rp.program ~version:1 ~procedure:5 ~serial:42

let test_packet_roundtrip () =
  let wire = Rpc_packet.encode sample_header "payload" in
  let header, body = Rpc_packet.decode wire in
  Alcotest.(check bool) "header preserved" true (header = sample_header);
  Alcotest.(check string) "body preserved" "payload" body

let test_packet_empty_body () =
  let wire = Rpc_packet.encode sample_header "" in
  let _, body = Rpc_packet.decode wire in
  Alcotest.(check string) "empty body" "" body;
  Alcotest.(check int) "4 len + 24 header" 28 (String.length wire)

let test_packet_reply_builders () =
  let ok = Rpc_packet.reply_ok sample_header in
  Alcotest.(check bool) "reply type" true (ok.Rpc_packet.msg_type = Rpc_packet.Reply);
  Alcotest.(check int) "serial echoed" 42 ok.Rpc_packet.serial;
  let err = Rpc_packet.reply_error sample_header in
  Alcotest.(check bool) "error status" true (err.Rpc_packet.status = Rpc_packet.Status_error);
  let ev = Rpc_packet.event_header ~program:1 ~version:1 ~procedure:2 in
  Alcotest.(check int) "event serial 0" 0 ev.Rpc_packet.serial

let test_packet_malformations () =
  let wire = Rpc_packet.encode sample_header "data" in
  let reject label s =
    match Rpc_packet.decode s with
    | exception Rpc_packet.Bad_packet _ -> ()
    | _ -> Alcotest.failf "accepted %s" label
  in
  reject "empty" "";
  reject "truncated header" (String.sub wire 0 10);
  reject "truncated body" (String.sub wire 0 (String.length wire - 2));
  reject "extended" (wire ^ "x");
  (* Corrupt the message type to 9 *)
  let bytes = Bytes.of_string wire in
  Bytes.set bytes 19 '\009';
  reject "bad type" (Bytes.to_string bytes)

let test_packet_size_cap () =
  match Rpc_packet.encode sample_header (String.make (Rpc_packet.max_packet_size + 1) 'x') with
  | exception Rpc_packet.Bad_packet _ -> ()
  | _ -> Alcotest.fail "oversized packet encoded"

let prop_packet_roundtrip =
  let gen =
    QCheck.Gen.(
      let* procedure = int_range 1 100 in
      let* serial = int_range 0 100000 in
      let* body = small_string ~gen:printable in
      return (procedure, serial, body))
  in
  qcheck_case "packet roundtrip" (QCheck.make gen) (fun (procedure, serial, body) ->
      let header =
        Rpc_packet.call_header ~program:Rp.program ~version:1 ~procedure ~serial
      in
      Rpc_packet.decode (Rpc_packet.encode header body) = (header, body))

(* --- Typed_params ------------------------------------------------------- *)

let sample_params =
  [
    Tp.uint "maxWorkers" 20;
    Tp.int "delta" (-3);
    Tp.bool "readonly" false;
    Tp.string "sock_addr" "10.0.0.1:99";
    ("big", Tp.P_ullong 0x1234_5678_9abc_def0L);
    ("ratio", Tp.P_double 0.25);
  ]

let tp = Xdr.codec Tp.encode Tp.decode
let roundtrip params = round_trip tp params

let test_params_roundtrip () =
  Alcotest.(check bool) "all scalar types survive" true
    (roundtrip sample_params = sample_params)

let test_params_validation () =
  let dup = [ Tp.uint "x" 1; Tp.uint "x" 2 ] in
  (match Xdr.encode tp dup with
   | exception Tp.Invalid _ -> ()
   | _ -> Alcotest.fail "duplicate fields accepted");
  let long = [ Tp.uint (String.make 81 'a') 1 ] in
  (match Xdr.encode tp long with
   | exception Tp.Invalid _ -> ()
   | _ -> Alcotest.fail "over-long field accepted");
  match Xdr.encode tp [ Tp.uint "" 1 ] with
  | exception Tp.Invalid _ -> ()
  | _ -> Alcotest.fail "empty field accepted"

let test_params_typed_accessors () =
  Alcotest.(check (option int)) "uint found" (Some 20)
    (Tp.find_uint sample_params "maxWorkers");
  Alcotest.(check (option int)) "missing is None" None
    (Tp.find_uint sample_params "nothing");
  (match Tp.find_uint sample_params "sock_addr" with
   | exception Tp.Invalid _ -> ()
   | _ -> Alcotest.fail "string read as uint");
  Alcotest.(check (option string)) "string found" (Some "10.0.0.1:99")
    (Tp.find_string sample_params "sock_addr");
  match Tp.uint "neg" (-1) with
  | exception Tp.Invalid _ -> ()
  | _ -> Alcotest.fail "negative uint built"

let gen_params =
  QCheck.Gen.(
    let* n = int_bound 6 in
    let value =
      oneof
        [
          map (fun v -> Tp.P_int v) small_signed_int;
          map (fun v -> Tp.P_uint (abs v)) small_signed_int;
          map (fun v -> Tp.P_llong v) int64;
          map (fun v -> Tp.P_bool v) bool;
          map (fun v -> Tp.P_string v) (small_string ~gen:printable);
        ]
    in
    let* values = list_size (return n) value in
    return (List.mapi (fun i v -> (Printf.sprintf "field%d" i, v)) values))

let prop_params_roundtrip =
  qcheck_case "typed params roundtrip" (QCheck.make gen_params) (fun params ->
      roundtrip params = params)

(* --- Protocol tables ---------------------------------------------------- *)

let test_remote_proc_numbers_stable () =
  Alcotest.(check int) "open is 1" 1 (Rp.proc_to_int Rp.Proc_open);
  Alcotest.(check int) "echo stays put" 38 (Rp.proc_to_int Rp.Proc_echo);
  Alcotest.(check bool) "roundtrip all" true
    (List.for_all
       (fun n ->
         match Rp.proc_of_int n with
         | Ok p -> Rp.proc_to_int p = n
         | Error _ -> false)
       (List.init 58 (fun i -> i + 1)));
  (match Rp.proc_of_int 0 with Error _ -> () | Ok _ -> Alcotest.fail "0 valid");
  (match Rp.proc_of_int 59 with Error _ -> () | Ok _ -> Alcotest.fail "59 valid");
  match Rp.proc_of_int 1000 with Error _ -> () | Ok _ -> Alcotest.fail "1000 valid"

(* The reference for the procedure table: the per-procedure classifiers
   as they stood before the table replaced them, copied verbatim.
   [is_high_priority] and [is_idempotent] are exhaustive matches, so a new
   constructor fails to compile here until it gets an arm. *)
module Reference = struct
  open Rp

  let proc_min_minor = function
    | Proc_dom_save | Proc_dom_restore | Proc_dom_has_managed_save -> 1
    | Proc_dom_set_autostart | Proc_dom_get_autostart -> 2
    | Proc_proto_minor | Proc_dom_list_all | Proc_call_batch | Proc_vol_lookup -> 3
    | Proc_call_deadline -> 4
    | Proc_dom_set_policy | Proc_dom_get_policy | Proc_daemon_reconcile_status -> 5
    | Proc_event_resume | Proc_event_lifecycle_seq -> 6
    | Proc_fleet_list_all | Proc_fleet_status | Proc_fleet_migrate -> 7
    | Proc_fleet_list_since -> 8
    | _ -> 0

  let is_high_priority = function
    | Proc_open | Proc_close | Proc_get_capabilities | Proc_get_hostname
    | Proc_list_domains | Proc_list_defined | Proc_lookup_by_name
    | Proc_lookup_by_uuid | Proc_dom_get_info | Proc_dom_get_xml | Proc_echo
    | Proc_ping | Proc_event_register | Proc_event_deregister
    | Proc_dom_has_managed_save | Proc_dom_get_autostart | Proc_proto_minor
    | Proc_dom_list_all | Proc_dom_get_policy | Proc_daemon_reconcile_status
    (* part of the reconnect handshake, like event_register *)
    | Proc_event_resume
    (* answered from controller-local health state, never touches a member *)
    | Proc_fleet_status ->
      true
    | Proc_define_xml | Proc_undefine | Proc_dom_create | Proc_dom_suspend
    | Proc_dom_resume | Proc_dom_shutdown | Proc_dom_destroy | Proc_dom_set_memory
    | Proc_net_list | Proc_net_define | Proc_net_start | Proc_net_stop
    | Proc_net_undefine | Proc_net_set_autostart | Proc_net_lookup | Proc_pool_list
    | Proc_pool_define | Proc_pool_start | Proc_pool_stop | Proc_pool_undefine
    | Proc_pool_lookup | Proc_vol_create | Proc_vol_delete | Proc_vol_list
    | Proc_event_lifecycle | Proc_event_lifecycle_seq | Proc_dom_save
    | Proc_dom_restore | Proc_dom_set_autostart | Proc_dom_set_policy
    (* batch sub-calls may be arbitrary, vol_lookup walks pools; a
       deadline envelope's priority follows its inner call, resolved by
       the dispatcher after peeking into the body *)
    | Proc_call_batch | Proc_vol_lookup | Proc_call_deadline
    (* a fleet listing scatters to member daemons, a fleet migration
       drives two of them through a multi-step handshake *)
    | Proc_fleet_list_all | Proc_fleet_migrate
    (* a conditional listing scatters exactly as the plain one does *)
    | Proc_fleet_list_since ->
      false

  (* Idempotent = safe to re-issue after a connection death when the client
     cannot know whether the daemon processed the lost call.  Strictly the
     read-only procedures plus echo/ping; registration calls re-run as part
     of the reconnect handshake instead.  Everything mutating stays out: a
     lost Proc_dom_create may well have started the domain. *)
  let is_idempotent = function
    | Proc_get_capabilities | Proc_get_hostname | Proc_list_domains
    | Proc_list_defined | Proc_lookup_by_name | Proc_lookup_by_uuid
    | Proc_dom_get_info | Proc_dom_get_xml | Proc_dom_has_managed_save
    | Proc_dom_get_autostart | Proc_net_list | Proc_net_lookup | Proc_pool_list
    | Proc_pool_lookup | Proc_vol_list | Proc_echo | Proc_ping | Proc_proto_minor
    | Proc_dom_list_all | Proc_vol_lookup | Proc_dom_get_policy
    | Proc_daemon_reconcile_status | Proc_fleet_list_all | Proc_fleet_status
    (* a read: the token only says which answer the caller holds *)
    | Proc_fleet_list_since ->
      true
    | Proc_open | Proc_close | Proc_define_xml | Proc_undefine | Proc_dom_create
    | Proc_dom_suspend | Proc_dom_resume | Proc_dom_shutdown | Proc_dom_destroy
    | Proc_dom_set_memory | Proc_net_define | Proc_net_start | Proc_net_stop
    | Proc_net_undefine | Proc_net_set_autostart | Proc_pool_define
    | Proc_pool_start | Proc_pool_stop | Proc_pool_undefine | Proc_vol_create
    | Proc_vol_delete | Proc_event_register | Proc_event_deregister
    | Proc_event_lifecycle | Proc_event_resume | Proc_event_lifecycle_seq
    | Proc_dom_save | Proc_dom_restore
    (* set_policy is a journaled last-writer-wins upsert — replaying it
       is harmless — but it stays out so retry behaviour matches
       set_autostart, its v1.2 sibling *)
    | Proc_dom_set_autostart | Proc_dom_set_policy
    (* a batch is as idempotent as its least idempotent sub-call, a
       deadline envelope exactly as idempotent as its inner call; the
       client computes both per call and overrides retry eligibility *)
    | Proc_call_batch | Proc_call_deadline
    (* a lost fleet_migrate may have passed its commit point *)
    | Proc_fleet_migrate ->
      false

  let serve_path = function
    (* a plain daemon's annotated listing depends on node state alone;
       the conditional listing is answered from its entry *)
    | Rp.Proc_dom_list_all | Rp.Proc_fleet_list_all | Rp.Proc_fleet_list_since ->
      Rp.Cached_listing
    | Rp.Proc_get_capabilities | Rp.Proc_dom_get_info | Rp.Proc_dom_get_xml
    | Rp.Proc_lookup_by_name | Rp.Proc_lookup_by_uuid | Rp.Proc_vol_lookup
    | Rp.Proc_dom_get_autostart | Rp.Proc_dom_has_managed_save
    (* every wait of a domain write comes before its first effect *)
    | Rp.Proc_define_xml | Rp.Proc_undefine | Rp.Proc_dom_create
    | Rp.Proc_dom_suspend | Rp.Proc_dom_resume | Rp.Proc_dom_shutdown
    | Rp.Proc_dom_destroy | Rp.Proc_dom_set_memory | Rp.Proc_dom_set_autostart ->
      Rp.Inline
    | _ -> Rp.Pooled
end

let test_table_matches_reference () =
  Alcotest.(check int) "build minor" 8 Rp.minor;
  for n = 1 to 58 do
    match Rp.descriptor_of_int ~minor:Rp.minor n with
    | Error err -> Alcotest.fail err.Verror.message
    | Ok d ->
      let p = d.Rp.proc in
      let what fact = Printf.sprintf "procedure %d %s" n fact in
      Alcotest.(check int) (what "number") n d.Rp.number;
      Alcotest.(check int) (what "round trip") n (Rp.proc_to_int p);
      Alcotest.(check int) (what "since") (Reference.proc_min_minor p)
        (Rp.proc_min_minor p);
      Alcotest.(check bool) (what "priority") (Reference.is_high_priority p)
        (Rp.is_high_priority p);
      Alcotest.(check bool) (what "idempotent") (Reference.is_idempotent p)
        (Rp.is_idempotent p);
      Alcotest.(check bool) (what "serve path") true
        (Reference.serve_path p = Rp.serve_path p);
      if d.Rp.since > 0 then
        match Rp.descriptor_of_int ~minor:(d.Rp.since - 1) n with
        | Ok _ -> Alcotest.fail (what "served below its minor")
        | Error err ->
          Alcotest.(check string) (what "gated")
            (Printf.sprintf "unknown remote procedure %d" n) err.Verror.message
  done;
  match Rp.descriptor_of_int ~minor:Rp.minor 59 with
  | Ok _ -> Alcotest.fail "a 59th row"
  | Error err ->
    Alcotest.(check string) "unknown" "unknown remote procedure 59"
      err.Verror.message

let test_priority_classification () =
  (* Reads are high priority (safe for priority workers); state changes
     are not. *)
  Alcotest.(check bool) "list is high" true (Rp.is_high_priority Rp.Proc_list_domains);
  Alcotest.(check bool) "getinfo is high" true (Rp.is_high_priority Rp.Proc_dom_get_info);
  Alcotest.(check bool) "create is low" false (Rp.is_high_priority Rp.Proc_dom_create);
  Alcotest.(check bool) "destroy is low" false (Rp.is_high_priority Rp.Proc_dom_destroy);
  Alcotest.(check bool) "save is low" false (Rp.is_high_priority Rp.Proc_dom_save);
  Alcotest.(check bool) "save probe is high" true
    (Rp.is_high_priority Rp.Proc_dom_has_managed_save);
  Alcotest.(check bool) "admin always high" true
    (Ap.is_high_priority Ap.Proc_set_threadpool)

let test_admin_proc_numbers_stable () =
  Alcotest.(check int) "list_servers is 1" 1 (Ap.proc_to_int Ap.Proc_list_servers);
  Alcotest.(check bool) "roundtrip all" true
    (List.for_all
       (fun n ->
         match Ap.proc_of_int n with
         | Ok p -> Ap.proc_to_int p = n
         | Error _ -> false)
       (List.init 22 (fun i -> i + 1)));
  match Ap.proc_of_int 23 with Error _ -> () | Ok _ -> Alcotest.fail "23 valid"

(* --- Shared body codecs -------------------------------------------------- *)

let test_error_body_roundtrip () =
  let err = Verror.make Verror.No_domain "missing" in
  Alcotest.(check bool) "roundtrip" true (round_trip Rp.error err = err)

let test_domain_ref_roundtrip () =
  let r =
    Driver.
      { dom_name = "vm1"; dom_uuid = Vmm.Uuid.generate (); dom_id = Some 7 }
  in
  Alcotest.(check bool) "single" true (round_trip Rp.domain_ref r = r);
  let r2 = { r with Driver.dom_id = None; dom_name = "vm2" } in
  Alcotest.(check bool) "list" true
    (round_trip Rp.list_domains.Rp.sg_ret [ r; r2 ] = [ r; r2 ])

let test_domain_info_roundtrip () =
  List.iter
    (fun state ->
      let info =
        Driver.
          {
            di_state = state;
            di_max_mem_kib = 1024;
            di_memory_kib = 512;
            di_vcpus = 2;
            di_cpu_time_ns = 123456789L;
          }
      in
      Alcotest.(check bool)
        (Vmm.Vm_state.state_name state ^ " roundtrips")
        true
        (round_trip Rp.domain_info info = info))
    Vmm.Vm_state.[ Running; Blocked; Paused; Shutdown; Shutoff; Crashed ]

let test_lifecycle_event_roundtrip () =
  let ev =
    Ovirt_core.Events.
      { domain_name = "vm"; lifecycle = Ovirt_core.Events.Ev_migrated; seq = 0 }
  in
  Alcotest.(check bool) "roundtrip" true
    (round_trip Rp.lifecycle_event ev = ev)

let test_admin_body_roundtrips () =
  Alcotest.(check string) "server name" "libvirtd"
    (round_trip Ap.lookup_server.Ap.sg_args "libvirtd");
  let server, params =
    round_trip Ap.set_threadpool.Ap.sg_args ("admin", [ Tp.uint "maxWorkers" 5 ])
  in
  Alcotest.(check string) "server" "admin" server;
  Alcotest.(check (option int)) "param" (Some 5) (Tp.find_uint params "maxWorkers");
  let server2, id = round_trip Ap.client_close.Ap.sg_args ("libvirtd", 9L) in
  Alcotest.(check string) "ref server" "libvirtd" server2;
  Alcotest.(check int64) "ref id" 9L id;
  let entries =
    [
      Ap.{ client_id = 1L; client_transport = 0; connected_since = 1000L };
      Ap.{ client_id = 2L; client_transport = 2; connected_since = 2000L };
    ]
  in
  Alcotest.(check bool) "client list" true
    (round_trip Ap.list_clients.Ap.sg_ret entries = entries)

let test_net_and_pool_bodies () =
  let ninfo =
    Ovirt_core.Net_backend.
      {
        net_name = "default";
        net_uuid = Vmm.Uuid.generate ();
        bridge = "virbr0";
        ip_range = "192.168.122.0/24";
        active = true;
        autostart = false;
        connected_ifaces = 3;
      }
  in
  Alcotest.(check bool) "net info" true (round_trip Rp.net_info ninfo = ninfo);
  let pinfo =
    Ovirt_core.Storage_backend.
      {
        pool_name = "default";
        pool_uuid = Vmm.Uuid.generate ();
        target_path = "/v";
        capacity_b = 1 lsl 40;
        allocation_b = 12345;
        pool_active = true;
        volume_count = 2;
      }
  in
  Alcotest.(check bool) "pool info" true
    (round_trip Rp.pool_info pinfo = pinfo);
  let vinfo =
    Ovirt_core.Storage_backend.
      { vol_name = "a"; vol_key = "/v/a"; vol_capacity_b = 77; vol_format = "raw" }
  in
  Alcotest.(check bool) "vol info list" true
    (round_trip Rp.vol_list.Rp.sg_ret [ vinfo ] = [ vinfo ])

let test_garbage_bodies_rejected () =
  List.iter
    (fun (label, f) ->
      match f "garbage-bytes-here" with
      | exception Xdr.Error _ -> ()
      | _ -> Alcotest.failf "%s accepted garbage" label)
    [
      ("error", fun s -> ignore (Xdr.decode Rp.error s));
      ("domain_ref", fun s -> ignore (Xdr.decode Rp.domain_ref s));
      ("domain_info", fun s -> ignore (Xdr.decode Rp.domain_info s));
      ("net_info", fun s -> ignore (Xdr.decode Rp.net_info s));
      ("client_list", fun s -> ignore (Xdr.decode Ap.list_clients.Ap.sg_ret s));
    ]

(* --- fuzz: decoders never escape their error type --------------------- *)

let prop_packet_decode_total =
  qcheck_case ~count:500 "packet decode is total" QCheck.string (fun s ->
      match Rpc_packet.decode s with
      | _ -> true
      | exception Rpc_packet.Bad_packet _ -> true
      | exception _ -> false)

let prop_packet_decode_mutation =
  (* Bit-flip a valid packet: decode either succeeds (flip hit the body)
     or raises Bad_packet — never anything else, never a crash. *)
  let gen = QCheck.Gen.(pair (int_bound 30) (int_bound 7)) in
  qcheck_case ~count:300 "mutated packets classified" (QCheck.make gen)
    (fun (pos, bit) ->
      let wire = Bytes.of_string (Rpc_packet.encode sample_header "abcdef") in
      let pos = pos mod Bytes.length wire in
      Bytes.set wire pos (Char.chr (Char.code (Bytes.get wire pos) lxor (1 lsl bit)));
      match Rpc_packet.decode (Bytes.to_string wire) with
      | _ -> true
      | exception Rpc_packet.Bad_packet _ -> true
      | exception _ -> false)

let prop_typed_params_decode_total =
  qcheck_case ~count:500 "typed-params decode is total" QCheck.string (fun s ->
      match Xdr.decode tp s with
      | _ -> true
      | exception Xdr.Error _ -> true
      | exception Tp.Invalid _ -> true
      | exception _ -> false)

let prop_error_body_decode_total =
  qcheck_case ~count:500 "error-body decode is total" QCheck.string (fun s ->
      match Xdr.decode Rp.error s with
      | _ -> true
      | exception Xdr.Error _ -> true
      | exception _ -> false)

(* --- every exported codec: a value round-trips, and every strict prefix
   of its encoding is rejected with Xdr.Error and nothing else ---------- *)

module G = QCheck.Gen

type case = Case : string * 'a Xdr.codec * 'a G.t -> case

let small_list g = G.list_size (G.int_bound 3) g
let str = G.string_size ~gen:G.printable (G.int_bound 10)
let bytes = G.string_size (G.int_bound 10)
let i32 = G.int_range (-0x8000_0000) 0x7fff_ffff
let u32 = G.int_bound 0xffff_ffff
let i64 = G.map Int64.of_int G.int
let unit = G.return ()

(* Every constructor [of_int] accepts below [n]. *)
let valid of_int n = G.oneofl (List.filter_map (fun i -> Result.to_option (of_int i)) (List.init n Fun.id))

let uuid = G.map Vmm.Uuid.derive str
let state = G.oneofl Vmm.Vm_state.[ Running; Blocked; Paused; Shutdown; Shutoff; Crashed ]
let lifecycle = valid Ovirt_core.Events.lifecycle_of_int 32
let policy = valid (fun i -> Ovirt_core.Dompolicy.of_ints (i / 9, i / 3 mod 3, i mod 3)) 27
let error = G.map2 (fun c m -> Verror.make (Verror.code_of_int c) m) (G.int_bound 40) str

let domain_ref =
  G.map3 (fun dom_name dom_uuid dom_id -> Driver.{ dom_name; dom_uuid; dom_id }) str uuid
    (G.opt i32)

let domain_info =
  G.map3
    (fun di_state (di_max_mem_kib, di_memory_kib, di_vcpus) di_cpu_time_ns ->
      Driver.{ di_state; di_max_mem_kib; di_memory_kib; di_vcpus; di_cpu_time_ns })
    state (G.triple u32 u32 u32) i64

let domain_record =
  G.map3 (fun rec_ref rec_info rec_autostart -> Driver.{ rec_ref; rec_info; rec_autostart })
    domain_ref domain_info (G.opt G.bool)

let net_info =
  G.map3
    (fun (net_name, net_uuid) (bridge, ip_range) (active, autostart, connected_ifaces) ->
      Ovirt_core.Net_backend.
        { net_name; net_uuid; bridge; ip_range; active; autostart; connected_ifaces })
    (G.pair str uuid) (G.pair str str) (G.triple G.bool G.bool u32)

let pool_info =
  G.map3
    (fun (pool_name, pool_uuid, target_path) (capacity_b, allocation_b)
         (pool_active, volume_count) ->
      Ovirt_core.Storage_backend.
        { pool_name; pool_uuid; target_path; capacity_b; allocation_b; pool_active;
          volume_count })
    (G.triple str uuid str) (G.pair G.int G.int) (G.pair G.bool u32)

let vol_info =
  G.map2
    (fun (vol_name, vol_key) (vol_capacity_b, vol_format) ->
      Ovirt_core.Storage_backend.{ vol_name; vol_key; vol_capacity_b; vol_format })
    (G.pair str str) (G.pair G.int str)

let event ~seq =
  G.map3 (fun domain_name lifecycle seq -> Ovirt_core.Events.{ domain_name; lifecycle; seq })
    str lifecycle seq

let reconcile_status =
  let summary =
    G.map3
      (fun (sum_specs, sum_converged, sum_pending) (sum_diverged, sum_plans, sum_ops_applied)
           (sum_ops_skipped, sum_ops_failed, sum_resumed) ->
        Reconcile.
          { sum_specs; sum_converged; sum_pending; sum_diverged; sum_plans; sum_ops_applied;
            sum_ops_skipped; sum_ops_failed; sum_resumed })
      (G.triple u32 u32 u32) (G.triple u32 u32 u32) (G.triple u32 u32 G.bool)
  in
  let row =
    G.map3
      (fun (ds_uri, ds_name, ds_policy) (ds_status, ds_attempts) (ms, ds_last_error) ->
        Reconcile.
          { ds_uri; ds_name; ds_policy; ds_status; ds_attempts;
            ds_retry_in_s = float_of_int ms /. 1000.; ds_last_error })
      (G.triple str str policy)
      (G.pair (G.oneofl Reconcile.[ St_converged; St_pending; St_diverged ]) u32)
      (G.pair u32 str)
  in
  G.pair summary (small_list row)

let resume_reply =
  G.map3 (fun rr_gap (rr_head, rr_oldest) rr_events -> { Rp.rr_gap; rr_head; rr_oldest; rr_events })
    G.bool (G.pair G.int G.int) (small_list (event ~seq:G.int))

let fleet_listing =
  G.map3 (fun fl_records fl_shard_errors fl_members -> Driver.{ fl_records; fl_shard_errors; fl_members })
    (small_list domain_record)
    (small_list (G.map2 (fun se_member se_error -> Driver.{ se_member; se_error }) str error))
    u32

let fleet_status =
  let member =
    G.map3
      (fun (ms_name, ms_health) (ms_consec_failures, ms_probes, ms_failures) ms_domains ->
        Driver.{ ms_name; ms_health; ms_consec_failures; ms_probes; ms_failures; ms_domains })
      (G.pair str (G.oneofl Driver.[ Mh_up; Mh_degraded; Mh_down ]))
      (G.triple u32 u32 u32) i32
  in
  G.map3
    (fun fs_fleet fs_members (fs_migrations_active, fs_migrations_recovered, fs_migrations_rolled_back) ->
      Driver.
        { fs_fleet; fs_members; fs_migrations_active; fs_migrations_recovered;
          fs_migrations_rolled_back })
    str (small_list member) (G.triple u32 u32 u32)

let token = G.map2 (fun ft_nonce ft_fill -> { Rp.ft_nonce; ft_fill }) u32 u32

let since_reply =
  G.oneof
    [ G.map (fun t -> Rp.Since_unchanged t) token;
      G.map2 (fun t l -> Rp.Since_full (t, l)) token fleet_listing ]

let params =
  let value =
    G.oneof
      [ G.map (fun n -> Tp.P_int n) i32; G.map (fun n -> Tp.P_uint n) u32;
        G.map (fun n -> Tp.P_llong n) i64; G.map (fun n -> Tp.P_ullong n) i64;
        G.map (fun n -> Tp.P_double (float_of_int n)) G.int;
        G.map (fun b -> Tp.P_bool b) G.bool; G.map (fun s -> Tp.P_string s) str ]
  in
  G.map (List.mapi (fun i v -> (Printf.sprintf "field%d" i, v))) (small_list value)

let client_entry =
  G.map3 (fun client_id client_transport connected_since -> Ap.{ client_id; client_transport; connected_since })
    i64 i32 i64

let rp name (sg : (_, _) Rp.signature) args ret =
  [ Case (name ^ " args", sg.Rp.sg_args, args); Case (name ^ " reply", sg.Rp.sg_ret, ret) ]

let ap name (sg : (_, _) Ap.signature) args ret =
  [ Case ("admin " ^ name ^ " args", sg.Ap.sg_args, args);
    Case ("admin " ^ name ^ " reply", sg.Ap.sg_ret, ret) ]

let name_call name sg = rp name sg str unit

let cases =
  List.concat
    [
      [ Case ("error", Rp.error, error); Case ("domain_ref", Rp.domain_ref, domain_ref);
        Case ("domain_info", Rp.domain_info, domain_info);
        Case ("domain_record", Rp.domain_record, domain_record);
        Case ("batch_call", Rp.batch_call, small_list (G.pair u32 bytes));
        Case ("batch_reply", Rp.batch_reply, small_list (G.pair G.bool bytes));
        Case ("deadline_call", Rp.deadline_call, G.triple u32 u32 bytes);
        Case ("net_info", Rp.net_info, net_info); Case ("pool_info", Rp.pool_info, pool_info);
        Case ("vol_info", Rp.vol_info, vol_info);
        Case ("lifecycle_event", Rp.lifecycle_event, event ~seq:(G.return 0));
        Case ("policy", Reconcile.policy, policy);
        Case ("reconcile_status", Rp.reconcile_status, reconcile_status);
        Case ("resume_reply", Rp.resume_reply, resume_reply);
        Case ("seq_event", Rp.seq_event, event ~seq:G.int);
        Case ("fleet_listing", Rp.fleet_listing, fleet_listing);
        Case ("fleet_health", Rp.fleet_health, fleet_status);
        Case ("fleet_token", Rp.fleet_token, token);
        Case ("since_reply", Rp.since_reply, since_reply) ];
      rp "open" Rp.open_ str unit; rp "close" Rp.close unit unit;
      rp "get_capabilities" Rp.get_capabilities unit str;
      rp "get_hostname" Rp.get_hostname unit str;
      rp "list_domains" Rp.list_domains unit (small_list domain_ref);
      rp "list_defined" Rp.list_defined unit (small_list str);
      rp "lookup_by_name" Rp.lookup_by_name str domain_ref;
      rp "lookup_by_uuid" Rp.lookup_by_uuid str domain_ref;
      rp "define_xml" Rp.define_xml str domain_ref;
      name_call "undefine" Rp.undefine; name_call "dom_create" Rp.dom_create;
      name_call "dom_suspend" Rp.dom_suspend; name_call "dom_resume" Rp.dom_resume;
      name_call "dom_shutdown" Rp.dom_shutdown; name_call "dom_destroy" Rp.dom_destroy;
      rp "dom_get_info" Rp.dom_get_info str domain_info;
      rp "dom_get_xml" Rp.dom_get_xml str str;
      rp "dom_set_memory" Rp.dom_set_memory (G.pair str u32) unit;
      rp "net_list" Rp.net_list unit (small_list net_info);
      rp "net_define" Rp.net_define (G.triple str str str) net_info;
      name_call "net_start" Rp.net_start; name_call "net_stop" Rp.net_stop;
      name_call "net_undefine" Rp.net_undefine;
      rp "net_set_autostart" Rp.net_set_autostart (G.pair str G.bool) unit;
      rp "net_lookup" Rp.net_lookup str net_info;
      rp "pool_list" Rp.pool_list unit (small_list pool_info);
      rp "pool_define" Rp.pool_define (G.triple str str G.int) pool_info;
      name_call "pool_start" Rp.pool_start; name_call "pool_stop" Rp.pool_stop;
      name_call "pool_undefine" Rp.pool_undefine;
      rp "pool_lookup" Rp.pool_lookup str pool_info;
      rp "vol_create" Rp.vol_create
        (G.map2 (fun (p, n) (c, f) -> (p, n, c, f)) (G.pair str str) (G.pair G.int str))
        vol_info;
      rp "vol_delete" Rp.vol_delete (G.pair str str) unit;
      rp "vol_list" Rp.vol_list str (small_list vol_info);
      rp "event_register" Rp.event_register unit unit;
      rp "event_deregister" Rp.event_deregister unit unit;
      rp "event_lifecycle" Rp.event_lifecycle (event ~seq:(G.return 0)) unit;
      rp "ping" Rp.ping unit unit;
      name_call "dom_save" Rp.dom_save; name_call "dom_restore" Rp.dom_restore;
      rp "dom_has_managed_save" Rp.dom_has_managed_save str G.bool;
      rp "dom_set_autostart" Rp.dom_set_autostart (G.pair str G.bool) unit;
      rp "dom_get_autostart" Rp.dom_get_autostart str G.bool;
      rp "proto_minor" Rp.proto_minor unit i32;
      rp "dom_list_all" Rp.dom_list_all unit (small_list domain_record);
      rp "call_batch" Rp.call_batch (small_list (G.pair u32 bytes))
        (small_list (G.pair G.bool bytes));
      rp "vol_lookup" Rp.vol_lookup str vol_info;
      [ Case ("call_deadline args", Rp.call_deadline.Rp.sg_args, G.triple u32 u32 bytes) ];
      rp "dom_set_policy" Rp.dom_set_policy (G.pair str policy) unit;
      rp "dom_get_policy" Rp.dom_get_policy str policy;
      rp "daemon_reconcile_status" Rp.daemon_reconcile_status unit reconcile_status;
      rp "event_resume" Rp.event_resume G.int resume_reply;
      rp "event_lifecycle_seq" Rp.event_lifecycle_seq (event ~seq:G.int) unit;
      rp "fleet_list_all" Rp.fleet_list_all unit fleet_listing;
      rp "fleet_status" Rp.fleet_status unit fleet_status;
      rp "fleet_migrate" Rp.fleet_migrate (G.pair str str) unit;
      rp "fleet_list_since" Rp.fleet_list_since token since_reply;
      ap "list_servers" Ap.list_servers unit (small_list str);
      ap "lookup_server" Ap.lookup_server str unit;
      ap "get_threadpool" Ap.get_threadpool str params;
      ap "set_threadpool" Ap.set_threadpool (G.pair str params) unit;
      ap "get_client_limits" Ap.get_client_limits str params;
      ap "set_client_limits" Ap.set_client_limits (G.pair str params) unit;
      ap "list_clients" Ap.list_clients str (small_list client_entry);
      ap "get_client_info" Ap.get_client_info (G.pair str i64) params;
      ap "client_close" Ap.client_close (G.pair str i64) unit;
      ap "get_log_level" Ap.get_log_level unit u32;
      ap "set_log_level" Ap.set_log_level u32 unit;
      ap "get_log_filters" Ap.get_log_filters unit str;
      ap "set_log_filters" Ap.set_log_filters str unit;
      ap "get_log_outputs" Ap.get_log_outputs unit str;
      ap "set_log_outputs" Ap.set_log_outputs str unit;
      ap "daemon_uptime" Ap.daemon_uptime unit i64;
      ap "daemon_drain" Ap.daemon_drain unit unit;
      ap "daemon_pool_stats" Ap.daemon_pool_stats str params;
      ap "daemon_reconcile_status" Ap.daemon_reconcile_status unit reconcile_status;
      ap "daemon_event_stats" Ap.daemon_event_stats unit params;
      ap "daemon_reply_cache_stats" Ap.daemon_reply_cache_stats unit params;
      ap "daemon_fleet_status" Ap.daemon_fleet_status unit (small_list fleet_status);
    ]

(* [echo] and the deadline reply are the raw rest of a body, for which a
   prefix is a valid body too: only their round trip is checked. *)
let raw_cases =
  rp "echo" Rp.echo bytes bytes
  @ [ Case ("call_deadline reply", Rp.call_deadline.Rp.sg_ret, bytes) ]

type sample = Sample : string * 'a Xdr.codec * 'a -> sample

let sample_of cases =
  let open G in
  oneofl cases >>= fun (Case (name, codec, gen)) -> map (fun v -> Sample (name, codec, v)) gen

let print_sample (Sample (name, codec, v)) =
  let wire = Xdr.encode codec v in
  Printf.sprintf "%s: %s" name
    (String.concat "" (List.init (String.length wire) (fun i -> Printf.sprintf "%02x" (Char.code wire.[i]))))

let prop_codecs_round_trip =
  qcheck_case ~count:4000 "every codec round-trips"
    (QCheck.make ~print:print_sample (sample_of (cases @ raw_cases)))
    (fun (Sample (_, codec, v)) -> round_trip codec v = v)

let prop_codec_prefixes_rejected =
  qcheck_case ~count:4000 "every strict prefix raises Xdr.Error"
    (QCheck.make ~print:print_sample (sample_of cases))
    (fun (Sample (_, codec, v)) ->
      let wire = Xdr.encode codec v in
      List.for_all
        (fun n ->
          match Xdr.decode codec (String.sub wire 0 n) with
          | _ -> false
          | exception Xdr.Error _ -> true)
        (List.init (String.length wire) Fun.id))

(* Two cases per table row, so a new procedure cannot skip the
   properties. *)
let test_every_signature_is_covered () =
  let rows proc_of_int =
    let rec go n = match proc_of_int n with Ok _ -> go (n + 1) | Error _ -> n - 1 in
    go 1
  in
  let calls admin =
    List.length
      (List.filter
         (fun (Case (name, _, _)) ->
           let ends s = String.ends_with ~suffix:s name in
           (ends " args" || ends " reply") && String.starts_with ~prefix:"admin " name = admin)
         (cases @ raw_cases))
  in
  Alcotest.(check int) "remote rows" (2 * rows Rp.proc_of_int) (calls false);
  Alcotest.(check int) "admin rows" (2 * rows Ap.proc_of_int) (calls true)

(* --- Rpc_client: the caller reads its own reply --------------------------- *)

module Transport = Ovnet.Transport
module Netsim = Ovnet.Netsim

(* A raw-frame test server.  A call's body is "id:delay_ms:events": after
   [delay_ms] (on a thread of its own) the server pushes [events] event
   frames, echoes the body as the reply, and pushes [events] more.
   Events carry a number taken under the lock that orders the sends, so
   the numbers rise in wire order.  A body of "hang" is never answered,
   nor is a ping. *)
type echo_server = { es_addr : string; es_sent : int Atomic.t; es_busy : int Atomic.t }

let with_echo_server f =
  let srv =
    { es_addr = fresh_name "leader"; es_sent = Atomic.make 0; es_busy = Atomic.make 0 }
  in
  let listener =
    listen_threaded srv.es_addr (fun conn ->
        let order = Mutex.create () in
        let send wire = try Transport.send conn wire with Transport.Closed -> () in
        let answer header body () =
          let delay_ms, events = Scanf.sscanf body "%d:%d:%d" (fun _ d e -> (d, e)) in
          if delay_ms > 0 then Thread.delay (float_of_int delay_ms /. 1000.);
          let push () =
            for _ = 1 to events do
              let seq = Atomic.fetch_and_add srv.es_sent 1 + 1 in
              send
                (Rpc_packet.encode
                   (Rpc_packet.event_header ~program:Rp.program ~version:1 ~procedure:1)
                   (string_of_int seq))
            done
          in
          Mutex.protect order (fun () ->
              push ();
              send (Rpc_packet.encode (Rpc_packet.reply_ok header) body);
              push ());
          Atomic.decr srv.es_busy
        in
        let rec serve () =
          match Transport.recv conn with
          | exception Transport.Closed -> ()
          | wire ->
            let header, body = Rpc_packet.decode wire in
            if header.Rpc_packet.program = Rp.program && body <> "hang" then begin
              Atomic.incr srv.es_busy;
              ignore (Thread.create (answer header body) ())
            end;
            serve ()
        in
        serve ())
  in
  Fun.protect ~finally:(fun () -> Netsim.close_listener listener) (fun () -> f srv)

let connect_to ?keepalive ?on_event srv =
  vok
    (Rpc_client.connect ~address:srv.es_addr ~kind:Transport.Unix_sock ~program:Rp.program
       ~version:1 ?keepalive ?on_event ())

(* [f ()] on a thread of its own; [None] if it has not returned after
   [secs].  An exception [f] raises is raised here. *)
let within secs f =
  let result = Atomic.make None in
  ignore
    (Thread.create
       (fun () -> Atomic.set result (Some (try Ok (f ()) with exn -> Error exn)))
       ());
  ignore (eventually ~timeout_s:secs (fun () -> Option.is_some (Atomic.get result)));
  Option.map (function Ok v -> v | Error exn -> raise exn) (Atomic.get result)

let test_lone_call_read_by_caller () =
  with_echo_server (fun srv ->
      let rpc = connect_to srv in
      let readers = ref [] and readers_mutex = Mutex.create () in
      Rpc_client.set_raw_reply_hook rpc
        (Some
           (fun _ ->
             Mutex.protect readers_mutex (fun () ->
                 readers := Thread.id (Thread.self ()) :: !readers)));
      let calls () =
        for i = 1 to 20 do
          let body = Printf.sprintf "%d:0:0" i in
          Alcotest.(check string) "own reply" body (vok (Rpc_client.call rpc ~procedure:7 ~body ()))
        done;
        Thread.id (Thread.self ())
      in
      let caller = within 5.0 calls in
      Rpc_client.close rpc;
      match caller with
      | None -> Alcotest.fail "a call hung"
      | Some caller ->
        Alcotest.(check (list int))
          "every reply read on the calling thread" (List.init 20 (fun _ -> caller))
          (Mutex.protect readers_mutex (fun () -> !readers)))

(* Threads mix blocking calls, timed calls (20 ms) and pipelined calls
   awaited out of order, against replies that come late or out of order
   and event frames pushed between them.  A pipeline is sent in one
   [fan_out], on one connection or spread over two: a fan that reads
   just the awaited call's connection sleeps in its read, one that
   reads both sleeps on the call's slot. *)
type op =
  | Call of int * int (* delay_ms, events *)
  | Timed of int * int
  | Pipeline of (int * int) list * int list (* calls, await order *)
  | Spread of (int * int) list * int list (* calls alternating over two connections *)

let show_op = function
  | Call (d, e) -> Printf.sprintf "call %d/%d" d e
  | Timed (d, e) -> Printf.sprintf "timed %d/%d" d e
  | Pipeline (calls, order) | Spread (calls, order) as op ->
    Printf.sprintf "%s [%s] awaited [%s]"
      (match op with Spread _ -> "spread" | _ -> "pipeline")
      (String.concat "; " (List.map (fun (d, e) -> Printf.sprintf "%d/%d" d e) calls))
      (String.concat "; " (List.map string_of_int order))

let gen_schedule =
  let open QCheck.Gen in
  let reply = pair (oneofl [ 0; 0; 1; 3 ]) (int_range 0 2) in
  let pipeline make =
    list_size (int_range 2 4) reply >>= fun calls ->
    map (fun order -> make calls order) (shuffle_l (List.init (List.length calls) Fun.id))
  in
  let op =
    frequency
      [
        (3, map (fun (d, e) -> Call (d, e)) reply);
        (2, map2 (fun d e -> Timed (d, e)) (oneofl [ 0; 1; 50 ]) (int_range 0 2));
        (2, pipeline (fun calls order -> Pipeline (calls, order)));
        (2, pipeline (fun calls order -> Spread (calls, order)));
      ]
  in
  list_size (int_range 2 4) (list_size (int_range 1 4) op)

let prop_leader_schedules =
  qcheck_case ~count:25 "mixed calls each get their own reply"
    (QCheck.make
       ~print:(fun threads ->
         String.concat " || " (List.map (fun ops -> String.concat ", " (List.map show_op ops)) threads))
       gen_schedule)
    (fun threads ->
      with_echo_server (fun srv ->
          (* Events as each connection handled them, latest first. *)
          let got = [| []; [] |] and got_mutex = Mutex.create () in
          let on_event i ~procedure:_ body =
            Mutex.protect got_mutex (fun () -> got.(i) <- int_of_string body :: got.(i))
          in
          let rpc = connect_to ~on_event:(on_event 0) srv in
          let rpc2 = connect_to ~on_event:(on_event 1) srv in
          let ids = Atomic.make 0 and wrong = ref [] and wrong_mutex = Mutex.create () in
          let complain fmt =
            Printf.ksprintf (fun m -> Mutex.protect wrong_mutex (fun () -> wrong := m :: !wrong)) fmt
          in
          let body (d, e) = Printf.sprintf "%d:%d:%d" (Atomic.fetch_and_add ids 1) d e in
          let expect ~timed body = function
            | Ok reply when reply = body -> ()
            | Error e when timed && contains e.Verror.message "timed out" -> ()
            | Ok reply -> complain "%s got %s" body reply
            | Error e -> complain "%s failed: %s" body (Verror.to_string e)
          in
          let run_op = function
            | Call (d, e) ->
              let b = body (d, e) in
              expect ~timed:false b (Rpc_client.call rpc ~procedure:7 ~body:b ())
            | Timed (d, e) ->
              let b = body (d, e) in
              let t0 = Unix.gettimeofday () in
              let outcome = Rpc_client.call rpc ~procedure:7 ~body:b ~timeout_s:0.02 () in
              if Unix.gettimeofday () -. t0 > 1.0 then complain "%s outlived its deadline" b;
              if d >= 50 && Result.is_ok outcome then complain "%s beat its deadline" b;
              expect ~timed:true b outcome
            | Pipeline (calls, order) | Spread (calls, order) as op ->
              let on i = match op with Spread _ when i mod 2 = 1 -> rpc2 | _ -> rpc in
              Rpc_client.fan_out (fun () ->
                  let futs =
                    Array.of_list
                      (List.mapi
                         (fun i c ->
                           let b = body c in
                           (b, vok (Rpc_client.send (on i) ~procedure:7 ~body:b ())))
                         calls)
                  in
                  List.iter
                    (fun i ->
                      let b, fut = futs.(i) in
                      expect ~timed:false b (Rpc_client.await fut))
                    order)
          in
          let finished =
            within 10.0 (fun () ->
                List.iter Thread.join
                  (List.map (fun ops -> Thread.create (List.iter run_op) ops) threads))
          in
          (* Late replies and their events still arrive; wait for them. *)
          let handled () = List.length got.(0) + List.length got.(1) in
          let settled =
            eventually ~timeout_s:5.0 (fun () ->
                Atomic.get srv.es_busy = 0
                && Mutex.protect got_mutex handled >= Atomic.get srv.es_sent)
          in
          let events = Mutex.protect got_mutex (fun () -> Array.map List.rev got) in
          let pending = Rpc_client.pending_calls rpc + Rpc_client.pending_calls rpc2 in
          Rpc_client.close rpc;
          Rpc_client.close rpc2;
          if finished = None then QCheck.Test.fail_report "a call hung";
          if !wrong <> [] then QCheck.Test.fail_reportf "%s" (String.concat "; " !wrong);
          if not settled then QCheck.Test.fail_report "events or replies never arrived";
          (* Each connection's events in wire order, and every event once. *)
          if
            Array.exists (fun evs -> evs <> List.sort compare evs) events
            || List.sort compare (events.(0) @ events.(1))
               <> List.init (Atomic.get srv.es_sent) (fun i -> i + 1)
          then
            QCheck.Test.fail_reportf "events out of wire order or not once: %s | %s"
              (String.concat "," (List.map string_of_int events.(0)))
              (String.concat "," (List.map string_of_int events.(1)));
          pending = 0))

let test_timed_out_leader_hands_back () =
  with_echo_server (fun srv ->
      let rpc = connect_to srv in
      (match Rpc_client.call rpc ~procedure:7 ~body:"hang" ~timeout_s:0.05 () with
       | Ok _ -> Alcotest.fail "unanswered call returned"
       | Error e ->
         Alcotest.(check bool) ("timed out: " ^ e.Verror.message) true
           (contains e.Verror.message "timed out"));
      (* Another thread's call reads only if the read side came back:
         nobody else would read its reply. *)
      (match within 3.0 (fun () -> Rpc_client.call rpc ~procedure:7 ~body:"1:0:2" ~timeout_s:2.0 ()) with
       | None -> Alcotest.fail "the next call hung"
       | Some outcome -> Alcotest.(check string) "next call served" "1:0:2" (vok outcome));
      Alcotest.(check int) "no pending leak" 0 (Rpc_client.pending_calls rpc);
      Alcotest.(check bool) "connection survives" false (Rpc_client.is_closed rpc);
      Rpc_client.close rpc)

let test_leader_declares_silent_peer_dead () =
  with_echo_server (fun srv ->
      let rpc =
        connect_to ~keepalive:{ Rpc_client.ka_interval = 0.05; ka_count = 2 } srv
      in
      let t0 = Unix.gettimeofday () in
      (match within 3.0 (fun () -> Rpc_client.call rpc ~procedure:7 ~body:"hang" ()) with
       | None -> Alcotest.fail "the call outlived keepalive"
       | Some (Ok _) -> Alcotest.fail "unanswered call returned"
       | Some (Error e) ->
         Alcotest.(check bool)
           ("keepalive blamed: " ^ e.Verror.message)
           true
           (String.starts_with ~prefix:"keepalive: peer silent for " e.Verror.message
           && String.ends_with ~suffix:"s (interval 0.05s x 2)" e.Verror.message));
      Alcotest.(check bool) "prompt death" true (Unix.gettimeofday () -. t0 < 2.0);
      Alcotest.(check bool) "closed" true (Rpc_client.is_closed rpc))

(* A packet too large to frame is refused before anything is sent; the
   caller that took the read side for it hands it back. *)
let test_oversized_call_hands_back () =
  with_echo_server (fun srv ->
      let rpc = connect_to srv in
      let body = String.make (Rpc_packet.max_packet_size + 1) 'x' in
      (match within 3.0 (fun () -> Rpc_client.call rpc ~procedure:7 ~body ()) with
       | None -> Alcotest.fail "the oversized call hung"
       | Some (Ok _) -> Alcotest.fail "an oversized call was answered"
       | Some (Error e) ->
         Alcotest.(check bool) ("not sent: " ^ e.Verror.message) true
           (contains e.Verror.message "not sent"));
      (match within 3.0 (fun () -> Rpc_client.call rpc ~procedure:7 ~body:"1:0:0" ()) with
       | None -> Alcotest.fail "the next call hung"
       | Some outcome -> Alcotest.(check string) "next call served" "1:0:0" (vok outcome));
      Alcotest.(check int) "no pending leak" 0 (Rpc_client.pending_calls rpc);
      Alcotest.(check bool) "connection survives" false (Rpc_client.is_closed rpc);
      Rpc_client.close rpc)

(* A leader that meets a malformed frame fails the connection; the event
   frame queued behind it must not reach [on_event].  The server answers
   a call with a stray reply, a frame of unknown type and an event; the
   raw-reply hook holds the leader on the stray reply until all three are
   queued. *)
let test_failed_leader_stops_frames () =
  let addr = fresh_name "poison" and queued = Atomic.make false in
  let listener =
    listen_threaded addr (fun conn ->
        let send wire = try Transport.send conn wire with Transport.Closed -> () in
        let event_frame =
          Rpc_packet.encode (Rpc_packet.event_header ~program:Rp.program ~version:1 ~procedure:1) "1"
        in
        let bad = Bytes.of_string event_frame in
        Bytes.set_int32_be bad 16 7l (* message type word *);
        let rec serve () =
          match Transport.recv conn with
          | exception Transport.Closed -> ()
          | wire ->
            let header, _ = Rpc_packet.decode wire in
            if header.Rpc_packet.program = Rp.program then begin
              send (Rpc_packet.encode (Rpc_packet.reply_ok { header with Rpc_packet.serial = 999 }) "");
              send (Bytes.to_string bad);
              send event_frame;
              Atomic.set queued true
            end;
            serve ()
        in
        serve ())
  in
  Fun.protect ~finally:(fun () -> Netsim.close_listener listener) (fun () ->
      let events = Atomic.make 0 in
      let rpc =
        vok
          (Rpc_client.connect ~address:addr ~kind:Transport.Unix_sock ~program:Rp.program
             ~version:1 ~on_event:(fun ~procedure:_ _ -> Atomic.incr events) ())
      in
      Rpc_client.set_raw_reply_hook rpc
        (Some (fun _ -> ignore (eventually (fun () -> Atomic.get queued))));
      (match within 3.0 (fun () -> Rpc_client.call rpc ~procedure:7 ()) with
       | None -> Alcotest.fail "the call hung"
       | Some (Ok _) -> Alcotest.fail "a poisoned call returned"
       | Some (Error e) ->
         Alcotest.(check bool) ("bad packet: " ^ e.Verror.message) true
           (contains e.Verror.message "bad packet"));
      Alcotest.(check bool) "queued" true (Atomic.get queued);
      Alcotest.(check bool) "closed" true (Rpc_client.is_closed rpc);
      Alcotest.(check bool) "no event after the bad frame" false
        (eventually ~timeout_s:0.3 (fun () -> Atomic.get events > 0)))

(* An event subscriber that calls through the connection the event came
   on: the thread that read the event reads the nested call's reply, so
   the call completes and the connection stays usable. *)
let test_callback_calls_own_connection () =
  Ovirt.initialize ();
  let daemon = fresh_name "nestd" in
  let config =
    {
      Ovirt.Daemon_config.default with
      Ovirt.Daemon_config.log_outputs = [ { Vlog.min_priority = Vlog.Debug; sink = Vlog.Null } ];
    }
  in
  let d = Ovirt.Daemon.start ~name:daemon ~config () in
  Fun.protect ~finally:(fun () -> Ovirt.Daemon.stop d) (fun () ->
      let node = fresh_name "nestnode" in
      let direct = vok (Ovirt.Connect.open_uri (Printf.sprintf "test://%s/" node)) in
      let cfg = Vmm.Vm_config.make "nested" in
      let ddom =
        vok (Ovirt.Domain.define_xml direct (Vmm.Domxml.to_xml ~virt_type:"test" cfg))
      in
      let remote =
        vok
          (Ovirt.Connect.open_uri
             (Printf.sprintf "test+unix://%s/?daemon=%s&cache=0" node daemon))
      in
      let rdom = vok (Ovirt.Domain.lookup_by_name remote "nested") in
      let nested = Atomic.make None in
      ignore
        (vok
           (Ovirt.Connect.subscribe_events remote (fun ev ->
                if ev.Ovirt.Events.domain_name = "nested" && Atomic.get nested = None then
                  Atomic.set nested (Some (Ovirt.Domain.get_info rdom))))
          : Ovirt.Events.subscription);
      vok (Ovirt.Domain.create ddom);
      Alcotest.(check bool) "the nested call completes within 1 s" true
        (eventually ~timeout_s:1.0 (fun () -> Atomic.get nested <> None));
      (match Atomic.get nested with
       | Some (Ok info) ->
         Alcotest.(check bool) "it sees the started domain" true
           (info.Driver.di_state = Vmm.Vm_state.Running)
       | Some (Error e) -> Alcotest.failf "nested call: %s" (Verror.to_string e)
       | None -> ());
      (match within 1.0 (fun () -> Ovirt.Domain.get_info rdom) with
       | Some (Ok _) -> ()
       | Some (Error e) -> Alcotest.failf "later call: %s" (Verror.to_string e)
       | None -> Alcotest.fail "a later call on the connection hung");
      Ovirt.Connect.close remote;
      Ovirt.Connect.close direct)

(* Two subscribers, each run by its own connection's receiver, call
   through the other's connection at once.  Were a subscriber run while
   its thread held its connection's read side, each nested call would
   wait for a thread that waits for it.  Neither thread holds one, so
   each call takes the other connection's free read side or follows the
   reader that has it.  Returns both connections, still open, and each
   nested call's outcome with the bytes it put on the wire. *)
let meet_across_connections srv =
  let entered = Atomic.make 0 in
  let results = Atomic.make [] in
  let rec record r =
    let seen = Atomic.get results in
    if not (Atomic.compare_and_set results seen (r :: seen)) then record r
  in
  let a_ref = ref None and b_ref = ref None in
  let on_event self peer =
    let fired = Atomic.make false in
    fun ~procedure:_ _ ->
      if not (Atomic.exchange fired true) then
        Rpc_client.defer (Option.get !self) (fun () ->
            Atomic.incr entered;
            ignore (eventually ~timeout_s:1.0 (fun () -> Atomic.get entered = 2));
            let rpc = Option.get !peer in
            let before = Rpc_client.bytes_tx rpc in
            let outcome = Rpc_client.call rpc ~procedure:7 ~body:"9:0:0" () in
            record (outcome, Rpc_client.bytes_tx rpc - before))
  in
  let a = connect_to ~on_event:(on_event a_ref b_ref) srv in
  let b = connect_to ~on_event:(on_event b_ref a_ref) srv in
  a_ref := Some a;
  b_ref := Some b;
  let outer rpc body () = Rpc_client.call rpc ~procedure:7 ~body () in
  let ta = Thread.create (fun () -> ignore (within 2.0 (outer a "1:0:1"))) () in
  let tb = Thread.create (fun () -> ignore (within 2.0 (outer b "2:0:1"))) () in
  Alcotest.(check bool) "both nested calls return" true
    (eventually ~timeout_s:2.0 (fun () -> List.length (Atomic.get results) = 2));
  Thread.join ta;
  Thread.join tb;
  (a, b, Atomic.get results)

(* The meeting above: both nested calls are answered, and both
   connections still serve. *)
let test_callbacks_meet_across_connections () =
  with_echo_server (fun srv ->
      let a, b, results = meet_across_connections srv in
      List.iter
        (fun (outcome, _) -> Alcotest.(check string) "the nested call is answered" "9:0:0" (vok outcome))
        results;
      Alcotest.(check string) "both connections still serve" "3:0:0"
        (vok (Rpc_client.call a ~procedure:7 ~body:"3:0:0" ()));
      Alcotest.(check string) "both connections still serve" "4:0:0"
        (vok (Rpc_client.call b ~procedure:7 ~body:"4:0:0" ()));
      Rpc_client.close a;
      Rpc_client.close b)

(* The same meeting: no nested call is refused before it is sent; each
   moves its connection's sent byte count and is answered. *)
let test_cycle_closing_call_is_sent () =
  with_echo_server (fun srv ->
      let a, b, results = meet_across_connections srv in
      List.iter
        (fun (outcome, tx) ->
          Alcotest.(check bool) "the nested call was sent" true (tx > 0);
          Alcotest.(check string) "the nested call is answered" "9:0:0" (vok outcome))
        results;
      Rpc_client.close a;
      Rpc_client.close b)

(* A subscriber that blocks delays no call on its connection.  A call
   gives up on its reply, so the event frames around the late reply
   reach the receiver, which runs the subscriber holding no read side:
   a lone call from another thread takes the free side and reads its
   own reply while the subscriber still blocks. *)
let test_blocked_subscriber_delays_no_call () =
  with_echo_server (fun srv ->
      let self = ref None in
      let blocking = Atomic.make false and release = Atomic.make false in
      let on_event ~procedure:_ _ =
        if not (Atomic.exchange blocking true) then
          Rpc_client.defer (Option.get !self) (fun () ->
              ignore (eventually ~timeout_s:2.0 (fun () -> Atomic.get release)))
      in
      let rpc = connect_to ~on_event srv in
      self := Some rpc;
      (match Rpc_client.call rpc ~procedure:7 ~body:"1:50:1" ~timeout_s:0.01 () with
       | Ok _ -> Alcotest.fail "the call beat its deadline"
       | Error _ -> ());
      Alcotest.(check bool) "the receiver read the event" true
        (eventually (fun () -> Atomic.get blocking));
      let t0 = Unix.gettimeofday () in
      let outcome = within 1.0 (fun () -> Rpc_client.call rpc ~procedure:7 ~body:"2:0:0" ()) in
      let took = Unix.gettimeofday () -. t0 in
      Atomic.set release true;
      (match outcome with
       | None -> Alcotest.fail "the call waited for the subscriber"
       | Some outcome -> Alcotest.(check string) "answered" "2:0:0" (vok outcome));
      Alcotest.(check bool) (Printf.sprintf "within 0.3 s (%.3f s)" took) true (took < 0.3);
      Rpc_client.close rpc)

(* Subscribers on two connections, run by their receivers, call back
   through their own connection and through the other while lone calls
   and fan-out pipelines run on both.  Every third one instead has
   another thread call on its own connection while it waits, which
   returns only if the subscriber's thread holds no read side there.
   Per connection, subscribers see every event once, in wire order. *)
let prop_subscribers_in_wire_order =
  qcheck_case ~count:25 "subscribers see each event once, in order"
    (QCheck.make
       ~print:(fun threads ->
         String.concat " || " (List.map (fun ops -> String.concat ", " (List.map show_op ops)) threads))
       gen_schedule)
    (fun threads ->
      with_echo_server (fun srv ->
          let got = [| []; [] |] and got_mutex = Mutex.create () in
          let rpcs = [| None; None |] and ran = Atomic.make 0 in
          let rpc i = Option.get rpcs.(i) in
          let ids = Atomic.make 0 and wrong = ref [] and wrong_mutex = Mutex.create () in
          let complain fmt =
            Printf.ksprintf (fun m -> Mutex.protect wrong_mutex (fun () -> wrong := m :: !wrong)) fmt
          in
          let body (d, e) = Printf.sprintf "%d:%d:%d" (Atomic.fetch_and_add ids 1) d e in
          let expect b = function
            | Ok reply when reply = b -> ()
            | Ok reply -> complain "%s got %s" b reply
            | Error e -> complain "%s failed: %s" b (Verror.to_string e)
          in
          let call i c =
            let b = body c in
            expect b (Rpc_client.call (rpc i) ~procedure:7 ~body:b ())
          in
          let subscriber i n () =
            Mutex.protect got_mutex (fun () -> got.(i) <- n :: got.(i));
            (match n mod 3 with
             | 0 -> call i (0, 0)
             | 1 -> call (1 - i) (0, 0)
             | _ ->
               if within 1.0 (fun () -> call i (0, 0)) = None then
                 complain "a subscriber of %d held its read side" i);
            Atomic.incr ran
          in
          let on_event i ~procedure:_ b =
            Rpc_client.defer (rpc i) (subscriber i (int_of_string b))
          in
          rpcs.(0) <- Some (connect_to ~on_event:(on_event 0) srv);
          rpcs.(1) <- Some (connect_to ~on_event:(on_event 1) srv);
          let run_op t = function
            | Call (d, e) | Timed (d, e) -> call (t mod 2) (d, e)
            | Pipeline (calls, order) | Spread (calls, order) as op ->
              let on k = match op with Spread _ -> (t + k) mod 2 | _ -> t mod 2 in
              Rpc_client.fan_out (fun () ->
                  let futs =
                    Array.of_list
                      (List.mapi
                         (fun k c ->
                           let b = body c in
                           (b, Rpc_client.send (rpc (on k)) ~procedure:7 ~body:b ()))
                         calls)
                  in
                  List.iter
                    (fun k ->
                      let b, fut = futs.(k) in
                      expect b (Result.bind fut Rpc_client.await))
                    order)
          in
          let finished =
            within 10.0 (fun () ->
                List.iter Thread.join
                  (List.mapi (fun t ops -> Thread.create (List.iter (run_op t)) ops) threads))
          in
          (* Late replies and their events still arrive, and every
             subscriber returns; wait for them. *)
          let settled =
            eventually ~timeout_s:5.0 (fun () ->
                Atomic.get srv.es_busy = 0 && Atomic.get ran >= Atomic.get srv.es_sent)
          in
          let events = Mutex.protect got_mutex (fun () -> Array.map List.rev got) in
          Rpc_client.close (rpc 0);
          Rpc_client.close (rpc 1);
          if finished = None then QCheck.Test.fail_report "a call hung";
          if not settled then QCheck.Test.fail_report "events or subscribers never finished";
          if !wrong <> [] then QCheck.Test.fail_reportf "%s" (String.concat "; " !wrong);
          if
            Array.exists (fun evs -> evs <> List.sort_uniq compare evs) events
            || List.sort compare (events.(0) @ events.(1))
               <> List.init (Atomic.get srv.es_sent) (fun i -> i + 1)
          then
            QCheck.Test.fail_reportf "events out of wire order or not once: %s | %s"
              (String.concat "," (List.map string_of_int events.(0)))
              (String.concat "," (List.map string_of_int events.(1)));
          true))

(* A fan whose connection dies of keepalive while it waits for a reply on
   another keeps sleeping: the dead connection's stopped clock does not
   make it read in a loop until the reply comes. *)
let test_dead_connection_spins_no_fan () =
  with_echo_server (fun srv ->
      let a = connect_to ~keepalive:{ Rpc_client.ka_interval = 0.05; ka_count = 2 } srv in
      let b = connect_to srv in
      let cpu () =
        let t = Unix.times () in
        t.Unix.tms_utime +. t.Unix.tms_stime
      in
      let cpu0 = cpu () in
      Rpc_client.fan_out (fun () ->
          let dead = vok (Rpc_client.send a ~procedure:7 ~body:"hang" ()) in
          let slow = vok (Rpc_client.send b ~procedure:7 ~body:"1:800:0" ()) in
          Alcotest.(check string) "the slow reply" "1:800:0" (vok (Rpc_client.await slow));
          match Rpc_client.await dead with
          | Ok _ -> Alcotest.fail "an unanswered call returned"
          | Error e ->
            Alcotest.(check bool) ("keepalive blamed: " ^ e.Verror.message) true
              (String.starts_with ~prefix:"keepalive: peer silent" e.Verror.message));
      let spent = cpu () -. cpu0 in
      Alcotest.(check bool) (Printf.sprintf "CPU while waiting (%.2fs) under 0.3s" spent) true
        (spent < 0.3);
      Rpc_client.close a;
      Rpc_client.close b)

let () =
  Alcotest.run "rpc"
    [
      ( "packets",
        [
          quick "roundtrip" test_packet_roundtrip;
          quick "empty body" test_packet_empty_body;
          quick "reply builders" test_packet_reply_builders;
          quick "malformations rejected" test_packet_malformations;
          quick "size cap" test_packet_size_cap;
          prop_packet_roundtrip;
        ] );
      ( "typed params",
        [
          quick "roundtrip" test_params_roundtrip;
          quick "validation" test_params_validation;
          quick "typed accessors" test_params_typed_accessors;
          prop_params_roundtrip;
        ] );
      ( "protocol tables",
        [
          quick "remote numbers stable" test_remote_proc_numbers_stable;
          quick "priority classification" test_priority_classification;
          quick "admin numbers stable" test_admin_proc_numbers_stable;
          quick "table matches reference" test_table_matches_reference;
        ] );
      ( "fuzz",
        [
          prop_packet_decode_total;
          prop_packet_decode_mutation;
          prop_typed_params_decode_total;
          prop_error_body_decode_total;
        ] );
      ( "body codecs",
        [
          quick "error body" test_error_body_roundtrip;
          quick "domain ref" test_domain_ref_roundtrip;
          quick "domain info (all states)" test_domain_info_roundtrip;
          quick "lifecycle event" test_lifecycle_event_roundtrip;
          quick "admin bodies" test_admin_body_roundtrips;
          quick "net and pool bodies" test_net_and_pool_bodies;
          quick "garbage rejected" test_garbage_bodies_rejected;
        ] );
      ( "codec properties",
        [
          quick "every signature is covered" test_every_signature_is_covered;
          prop_codecs_round_trip;
          prop_codec_prefixes_rejected;
        ] );
      ( "leader",
        [
          quick "a lone call is read by its caller" test_lone_call_read_by_caller;
          prop_leader_schedules;
          quick "a timed-out leader hands back" test_timed_out_leader_hands_back;
          quick "a leader declares a silent peer dead" test_leader_declares_silent_peer_dead;
          quick "an oversized call hands back" test_oversized_call_hands_back;
          quick "a failed leader handles no more frames" test_failed_leader_stops_frames;
          quick "an event callback calls on its own connection"
            test_callback_calls_own_connection;
          quick "crossed callbacks are answered"
            test_callbacks_meet_across_connections;
          quick "a call that would close a cycle is sent and answered"
            test_cycle_closing_call_is_sent;
          quick "a blocked subscriber delays no call" test_blocked_subscriber_delays_no_call;
          prop_subscribers_in_wire_order;
          quick "a dead connection spins no fan" test_dead_connection_spins_no_fan;
        ] );
    ]
