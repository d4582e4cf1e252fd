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

let roundtrip params = Xdr.decode Tp.decode (Xdr.encode Tp.encode params)

let test_params_roundtrip () =
  Alcotest.(check bool) "all scalar types survive" true
    (roundtrip sample_params = sample_params)

let test_params_validation () =
  let dup = [ Tp.uint "x" 1; Tp.uint "x" 2 ] in
  (match Xdr.encode Tp.encode dup with
   | exception Tp.Invalid _ -> ()
   | _ -> Alcotest.fail "duplicate fields accepted");
  let long = [ Tp.uint (String.make 81 'a') 1 ] in
  (match Xdr.encode Tp.encode long with
   | exception Tp.Invalid _ -> ()
   | _ -> Alcotest.fail "over-long field accepted");
  match Xdr.encode Tp.encode [ Tp.uint "" 1 ] with
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

  let cacheable_proc = function
    | Rp.Proc_get_capabilities | Rp.Proc_dom_list_all | Rp.Proc_dom_get_info
    | Rp.Proc_dom_get_xml | Rp.Proc_lookup_by_name | Rp.Proc_lookup_by_uuid
    | Rp.Proc_vol_lookup
    (* a plain daemon's annotated listing depends on node state alone *)
    | Rp.Proc_fleet_list_all ->
      true
    | _ -> false
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
      Alcotest.(check bool) (what "cacheable") (Reference.cacheable_proc p)
        (Rp.is_cacheable p);
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
  Alcotest.(check bool) "roundtrip" true (Rp.dec_error (Rp.enc_error err) = err)

let test_domain_ref_roundtrip () =
  let r =
    Driver.
      { dom_name = "vm1"; dom_uuid = Vmm.Uuid.generate (); dom_id = Some 7 }
  in
  Alcotest.(check bool) "single" true (Rp.dec_domain_ref (Rp.enc_domain_ref r) = r);
  let r2 = { r with Driver.dom_id = None; dom_name = "vm2" } in
  Alcotest.(check bool) "list" true
    (Rp.dec_domain_ref_list (Rp.enc_domain_ref_list [ r; r2 ]) = [ r; r2 ])

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
        (Rp.dec_domain_info (Rp.enc_domain_info info) = info))
    Vmm.Vm_state.[ Running; Blocked; Paused; Shutdown; Shutoff; Crashed ]

let test_lifecycle_event_roundtrip () =
  let ev =
    Ovirt_core.Events.
      { domain_name = "vm"; lifecycle = Ovirt_core.Events.Ev_migrated; seq = 0 }
  in
  Alcotest.(check bool) "roundtrip" true
    (Rp.dec_lifecycle_event (Rp.enc_lifecycle_event ev) = ev)

let test_admin_body_roundtrips () =
  Alcotest.(check string) "server name" "libvirtd"
    (Ap.dec_server_name (Ap.enc_server_name "libvirtd"));
  let server, params =
    Ap.dec_server_params (Ap.enc_server_params ~server:"admin" [ Tp.uint "maxWorkers" 5 ])
  in
  Alcotest.(check string) "server" "admin" server;
  Alcotest.(check (option int)) "param" (Some 5) (Tp.find_uint params "maxWorkers");
  let server2, id = Ap.dec_client_ref (Ap.enc_client_ref ~server:"libvirtd" ~id:9L) in
  Alcotest.(check string) "ref server" "libvirtd" server2;
  Alcotest.(check int64) "ref id" 9L id;
  let entries =
    [
      Ap.{ client_id = 1L; client_transport = 0; connected_since = 1000L };
      Ap.{ client_id = 2L; client_transport = 2; connected_since = 2000L };
    ]
  in
  Alcotest.(check bool) "client list" true
    (Ap.dec_client_list (Ap.enc_client_list entries) = entries)

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
  Alcotest.(check bool) "net info" true (Rp.dec_net_info (Rp.enc_net_info ninfo) = ninfo);
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
    (Rp.dec_pool_info (Rp.enc_pool_info pinfo) = pinfo);
  let vinfo =
    Ovirt_core.Storage_backend.
      { vol_name = "a"; vol_key = "/v/a"; vol_capacity_b = 77; vol_format = "raw" }
  in
  Alcotest.(check bool) "vol info list" true
    (Rp.dec_vol_info_list (Rp.enc_vol_info_list [ vinfo ]) = [ vinfo ])

let test_garbage_bodies_rejected () =
  List.iter
    (fun (label, f) ->
      match f "garbage-bytes-here" with
      | exception Xdr.Error _ -> ()
      | _ -> Alcotest.failf "%s accepted garbage" label)
    [
      ("error", fun s -> ignore (Rp.dec_error s));
      ("domain_ref", fun s -> ignore (Rp.dec_domain_ref s));
      ("domain_info", fun s -> ignore (Rp.dec_domain_info s));
      ("net_info", fun s -> ignore (Rp.dec_net_info s));
      ("client_list", fun s -> ignore (Ap.dec_client_list s));
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
      match Xdr.decode Tp.decode s with
      | _ -> true
      | exception Xdr.Error _ -> true
      | exception Tp.Invalid _ -> true
      | exception _ -> false)

let prop_error_body_decode_total =
  qcheck_case ~count:500 "error-body decode is total" QCheck.string (fun s ->
      match Rp.dec_error s with
      | _ -> true
      | exception Xdr.Error _ -> true
      | exception _ -> false)

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
    ]
