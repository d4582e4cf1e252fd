(* Core library: errors, URIs, capabilities, events, network and storage
   backends, driver registry selection, the per-request context. *)

open Testutil
module Verror = Ovirt_core.Verror
module Vuri = Ovirt_core.Vuri
module Capabilities = Ovirt_core.Capabilities
module Events = Ovirt_core.Events
module Net_backend = Ovirt_core.Net_backend
module Storage_backend = Ovirt_core.Storage_backend
module Driver = Ovirt_core.Driver
module Reqctx = Ovirt_core.Reqctx

(* --- Verror ------------------------------------------------------------- *)

let all_codes =
  Verror.
    [
      Internal_error; No_connect; Invalid_conn; Invalid_arg; Operation_invalid;
      Operation_failed; Operation_unsupported; No_domain; Dup_name; No_network;
      No_storage_pool; No_storage_vol; Auth_failed; Rpc_failure; No_client;
      No_server; Resource_exhausted;
    ]

let test_error_codes_stable () =
  (* Wire codes are frozen; drift would break remote error reporting. *)
  let ints = List.map Verror.code_to_int all_codes in
  Alcotest.(check (list int)) "frozen numbering"
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15; 16; 17 ]
    ints;
  List.iter
    (fun code ->
      Alcotest.(check bool) "roundtrip" true
        (Verror.code_of_int (Verror.code_to_int code) = code))
    all_codes;
  Alcotest.(check bool) "unknown maps to internal" true
    (Verror.code_of_int 9999 = Verror.Internal_error)

let test_error_formatting () =
  let e = Verror.make Verror.No_domain "no domain named \"x\"" in
  Alcotest.(check string) "to_string" "domain not found: no domain named \"x\""
    (Verror.to_string e);
  match Verror.error Verror.Invalid_arg "bad %d" 7 with
  | Error { Verror.code = Verror.Invalid_arg; message = "bad 7" } -> ()
  | _ -> Alcotest.fail "error builder mis-formatted"

(* --- Vuri --------------------------------------------------------------- *)

let parse s = vok (Vuri.parse s)

let test_uri_basic () =
  let u = parse "qemu:///system" in
  Alcotest.(check string) "scheme" "qemu" u.Vuri.scheme;
  Alcotest.(check (option string)) "no transport" None u.Vuri.transport;
  Alcotest.(check (option string)) "no host" None u.Vuri.host;
  Alcotest.(check string) "path" "/system" u.Vuri.path

let test_uri_full () =
  let u = parse "xen+tls://admin@node07.example:16514/sys?daemon=ovirtd2&x=1" in
  Alcotest.(check string) "scheme" "xen" u.Vuri.scheme;
  Alcotest.(check (option string)) "transport" (Some "tls") u.Vuri.transport;
  Alcotest.(check (option string)) "user" (Some "admin") u.Vuri.user;
  Alcotest.(check (option string)) "host" (Some "node07.example") u.Vuri.host;
  Alcotest.(check (option int)) "port" (Some 16514) u.Vuri.port;
  Alcotest.(check string) "path" "/sys" u.Vuri.path;
  Alcotest.(check (option string)) "param" (Some "ovirtd2") (Vuri.param u "daemon");
  Alcotest.(check (option string)) "missing param" None (Vuri.param u "nope")

let test_uri_empty_path () =
  let u = parse "test://node/" in
  Alcotest.(check string) "explicit root" "/" u.Vuri.path;
  let u2 = parse "test://node" in
  Alcotest.(check string) "implied root" "/" u2.Vuri.path

let test_uri_invalid () =
  List.iter
    (fun s ->
      match Vuri.parse s with
      | Error e ->
        Alcotest.(check bool) "invalid-arg code" true
          (e.Verror.code = Verror.Invalid_arg)
      | Ok _ -> Alcotest.failf "accepted %S" s)
    [
      ""; "noscheme"; "qemu:/missing-slashes"; "qemu+://host/"; "+tls://host/";
      "qemu://host:notaport/"; "qemu://host:0/"; "qemu://host:70000/";
      "qemu://@host/"; "qemu://host/?novalue"; "1bad://host/";
    ]

let test_uri_format_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) s s (Vuri.to_string (parse s)))
    [
      "qemu:///system";
      "xen+tls://admin@node07:16514/sys?daemon=d2";
      "esx://root@esx01/?password=x";
      "test:///default";
    ]

let gen_uri =
  QCheck.Gen.(
    let name = oneofl [ "qemu"; "xen"; "test"; "lxc"; "esx" ] in
    let* scheme = name in
    let* transport = opt (oneofl [ "tls"; "tcp"; "unix" ]) in
    let* host = opt (oneofl [ "node1"; "node2.example"; "h-3" ]) in
    let* user = if host = None then return None else opt (oneofl [ "root"; "admin" ]) in
    let* port =
      if host = None then return None else opt (int_range 1 65535)
    in
    let* path = oneofl [ "/"; "/system"; "/a/b" ] in
    let* params =
      list_size (int_bound 2)
        (pair (oneofl [ "k1"; "k2"; "k3" ]) (oneofl [ "v1"; "v2" ]))
    in
    let params = List.sort_uniq (fun (a, _) (b, _) -> compare a b) params in
    return (Vuri.make ?transport ?user ?host ?port ~path ~params scheme))

let prop_uri_roundtrip =
  qcheck_case "to_string/parse roundtrip" (QCheck.make gen_uri) (fun u ->
      match Vuri.parse (Vuri.to_string u) with
      | Ok u' -> u = u'
      | Error _ -> false)

(* --- Capabilities ------------------------------------------------------- *)

let sample_caps =
  Capabilities.
    {
      driver_name = "qemu";
      virt_kind = "full-virt";
      stateful = true;
      guest_os_kinds = [ Vmm.Vm_config.Hvm ];
      features = [ Feat_define; Feat_start; Feat_migrate_live ];
      host =
        {
          host_name = "node01";
          host_memory_kib = 16 * 1024 * 1024;
          host_cpus = 8;
          host_mhz = 2600;
          host_arch = "x86_64";
        };
    }

let test_capabilities_roundtrip () =
  let xml = Capabilities.to_xml sample_caps in
  let caps = sok (Capabilities.of_xml xml) in
  Alcotest.(check bool) "identical" true (caps = sample_caps)

let test_capabilities_supports () =
  Alcotest.(check bool) "has migrate" true
    (Capabilities.supports sample_caps Capabilities.Feat_migrate_live);
  Alcotest.(check bool) "lacks freeze" false
    (Capabilities.supports sample_caps Capabilities.Feat_freeze)

let test_capabilities_bad_xml () =
  List.iter
    (fun xml ->
      match Capabilities.of_xml xml with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %s" xml)
    [ "<capabilities/>"; "not xml"; "<capabilities><host/></capabilities>" ]

(* --- Events ------------------------------------------------------------- *)

let test_event_subscription () =
  let bus = Events.create_bus () in
  let seen = ref [] in
  let sub = Events.subscribe bus (fun ev -> seen := ev :: !seen) in
  Events.emit bus ~domain_name:"vm" Events.Ev_started;
  Events.emit bus ~domain_name:"vm" Events.Ev_stopped;
  Alcotest.(check int) "two delivered" 2 (List.length !seen);
  Events.unsubscribe bus sub;
  Events.emit bus ~domain_name:"vm" Events.Ev_crashed;
  Alcotest.(check int) "none after unsubscribe" 2 (List.length !seen);
  Alcotest.(check int) "history keeps all" 3 (List.length (Events.history bus))

let test_event_multiple_subscribers () =
  let bus = Events.create_bus () in
  let a = ref 0 and b = ref 0 in
  let _ = Events.subscribe bus (fun _ -> incr a) in
  let _ = Events.subscribe bus (fun _ -> incr b) in
  Events.emit bus ~domain_name:"x" Events.Ev_defined;
  Alcotest.(check (pair int int)) "both saw it" (1, 1) (!a, !b);
  Alcotest.(check int) "count" 2 (Events.subscriber_count bus)

let test_event_lifecycle_codes () =
  let all =
    Events.
      [
        Ev_defined; Ev_undefined; Ev_started; Ev_suspended; Ev_resumed; Ev_shutdown;
        Ev_stopped; Ev_crashed; Ev_migrated;
      ]
  in
  List.iter
    (fun ev ->
      Alcotest.(check bool) "code roundtrip" true
        (Events.lifecycle_of_int (Events.lifecycle_to_int ev) = Ok ev))
    all;
  match Events.lifecycle_of_int 99 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus lifecycle accepted"

(* --- Net_backend -------------------------------------------------------- *)

let test_net_default_network () =
  let b = Net_backend.create () in
  let info = vok (Net_backend.lookup b "default") in
  Alcotest.(check bool) "active" true info.Net_backend.active;
  Alcotest.(check bool) "autostart" true info.Net_backend.autostart;
  Alcotest.(check string) "bridge" "virbr0" info.Net_backend.bridge

let test_net_lifecycle () =
  let b = Net_backend.create () in
  let _ = vok (Net_backend.define b ~name:"isolated" ~bridge:"virbr1" ~ip_range:"10.0.0.0/24") in
  expect_verr Verror.Dup_name
    (Net_backend.define b ~name:"isolated" ~bridge:"x" ~ip_range:"10.0.1.0/24");
  vok (Net_backend.start b "isolated");
  expect_verr Verror.Operation_invalid (Net_backend.start b "isolated");
  vok (Net_backend.connect_iface b "isolated");
  expect_verr Verror.Operation_invalid (Net_backend.stop b "isolated");
  Net_backend.disconnect_iface b "isolated";
  vok (Net_backend.stop b "isolated");
  vok (Net_backend.undefine b "isolated");
  expect_verr Verror.No_network (Net_backend.lookup b "isolated")

let test_net_cidr_validation () =
  let b = Net_backend.create () in
  List.iter
    (fun cidr ->
      expect_verr Verror.Invalid_arg
        (Net_backend.define b ~name:(fresh_name "net") ~bridge:"br" ~ip_range:cidr))
    [ ""; "10.0.0.0"; "10.0.0.0/33"; "300.0.0.1/24"; "a.b.c.d/8"; "10.0.0/24" ]

let test_net_iface_on_inactive_refused () =
  let b = Net_backend.create () in
  let _ = vok (Net_backend.define b ~name:"down" ~bridge:"b" ~ip_range:"10.1.0.0/16") in
  expect_verr Verror.Operation_invalid (Net_backend.connect_iface b "down")

(* --- Storage_backend ---------------------------------------------------- *)

let test_storage_default_pool () =
  let b = Storage_backend.create () in
  let info = vok (Storage_backend.lookup_pool b "default") in
  Alcotest.(check bool) "active" true info.Storage_backend.pool_active;
  Alcotest.(check int) "empty" 0 info.Storage_backend.volume_count

let test_storage_volume_lifecycle () =
  let b = Storage_backend.create () in
  let vol =
    vok
      (Storage_backend.create_volume b ~pool:"default" ~name:"a.img"
         ~capacity_b:1024 ~format:"qcow2")
  in
  Alcotest.(check string) "key path" "/var/lib/ovirt/images/a.img"
    vol.Storage_backend.vol_key;
  let found = vok (Storage_backend.volume_by_path b vol.Storage_backend.vol_key) in
  Alcotest.(check string) "resolved by path" "a.img" found.Storage_backend.vol_name;
  expect_verr Verror.Dup_name
    (Storage_backend.create_volume b ~pool:"default" ~name:"a.img" ~capacity_b:1
       ~format:"raw");
  vok (Storage_backend.delete_volume b ~pool:"default" ~name:"a.img");
  expect_verr Verror.No_storage_vol
    (Storage_backend.lookup_volume b ~pool:"default" ~name:"a.img")

let test_storage_capacity_budget () =
  let b = Storage_backend.create () in
  let _ =
    vok
      (Storage_backend.define_pool b ~name:"small" ~target_path:"/small"
         ~capacity_b:1000)
  in
  vok (Storage_backend.start_pool b "small");
  let _ =
    vok
      (Storage_backend.create_volume b ~pool:"small" ~name:"v1" ~capacity_b:800
         ~format:"raw")
  in
  expect_verr Verror.Resource_exhausted
    (Storage_backend.create_volume b ~pool:"small" ~name:"v2" ~capacity_b:300
       ~format:"raw");
  vok (Storage_backend.delete_volume b ~pool:"small" ~name:"v1");
  let info = vok (Storage_backend.lookup_pool b "small") in
  Alcotest.(check int) "allocation returns" 0 info.Storage_backend.allocation_b

let test_storage_pool_guards () =
  let b = Storage_backend.create () in
  expect_verr Verror.Invalid_arg
    (Storage_backend.define_pool b ~name:"bad" ~target_path:"relative" ~capacity_b:10);
  let _ = vok (Storage_backend.define_pool b ~name:"p" ~target_path:"/p" ~capacity_b:10) in
  (* inactive pool refuses volume creation *)
  expect_verr Verror.Operation_invalid
    (Storage_backend.create_volume b ~pool:"p" ~name:"v" ~capacity_b:1 ~format:"raw");
  vok (Storage_backend.start_pool b "p");
  let _ = vok (Storage_backend.create_volume b ~pool:"p" ~name:"v" ~capacity_b:1 ~format:"raw") in
  vok (Storage_backend.stop_pool b "p");
  (* non-empty pool refuses undefine *)
  expect_verr Verror.Operation_invalid (Storage_backend.undefine_pool b "p")

(* --- Driver registry ---------------------------------------------------- *)

let test_registry_selection_order () =
  (* Probes are walked in registration order; re-registering replaces. *)
  Ovirt.initialize ();
  let names = Driver.registered () in
  Alcotest.(check bool) "remote registered last" true
    (match List.rev names with "remote" :: _ -> true | _ -> false);
  Alcotest.(check bool) "test driver present" true (List.mem "test" names)

let test_registry_no_connect () =
  Ovirt.initialize ();
  match Ovirt.Connect.open_uri "vbox:///session" with
  | Error e ->
    Alcotest.(check bool) "no_connect" true (e.Verror.code = Verror.No_connect)
  | Ok _ -> Alcotest.fail "unknown scheme connected"

let test_registry_reregister_keeps_position () =
  (* Replacement is in place: a driver that re-registers (e.g. with a new
     probe) must not migrate to the back of the list, where it could fall
     behind a catch-all. *)
  Ovirt.initialize ();
  let fake name =
    Driver.
      {
        reg_name = name;
        probe = (fun _ -> false);
        open_conn =
          (fun _ -> Verror.error Verror.Internal_error "fake driver %s" name);
      }
  in
  Driver.register (fake "zz-a");
  Driver.register (fake "zz-b");
  Driver.register (fake "zz-c");
  let index name =
    let rec go i = function
      | [] -> Alcotest.fail (name ^ " not registered")
      | n :: _ when n = name -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 (Driver.registered ())
  in
  let before = (index "zz-a", index "zz-b", index "zz-c") in
  Driver.register (fake "zz-b");
  let after = (index "zz-a", index "zz-b", index "zz-c") in
  Alcotest.(check bool) "re-registration keeps position" true (before = after);
  Alcotest.(check int) "no duplicate entry" 3
    (List.length
       (List.filter
          (fun n -> List.mem n [ "zz-a"; "zz-b"; "zz-c" ])
          (Driver.registered ())))

let test_closed_connection_rejected () =
  let conn = fresh_test_conn () in
  Ovirt.Connect.close conn;
  Ovirt.Connect.close conn (* idempotent *);
  expect_verr Verror.Invalid_conn (Ovirt.Connect.list_domains conn);
  expect_verr Verror.Invalid_conn (Ovirt.Connect.capabilities conn)

(* --- Reqctx -------------------------------------------------------------- *)

let mode =
  Alcotest.testable
    (fun ppf -> function
      | Reqctx.Unbounded -> Format.pp_print_string ppf "Unbounded"
      | Reqctx.Until d -> Format.fprintf ppf "Until %g" d
      | Reqctx.No_wait -> Format.pp_print_string ppf "No_wait")
    ( = )

let check_mode what expected = Alcotest.check mode what expected (Reqctx.current ())

let test_reqctx_unbound () =
  check_mode "no binding" Reqctx.Unbounded;
  Reqctx.with_deadline (Some 5.) (fun () -> check_mode "bound" (Reqctx.Until 5.));
  check_mode "the binding ended with its call" Reqctx.Unbounded

(* An inner binding shadows the outer one for its own extent only: the
   outer mode is back once the inner call returns, and once it raises. *)
let test_reqctx_nesting () =
  let inner bind expected =
    bind (fun () -> check_mode "inner mode" expected);
    check_mode "outer mode after the inner call returned" (Reqctx.Until 5.);
    (match bind (fun () -> failwith "inner") with
     | () -> Alcotest.fail "the inner call did not raise"
     | exception Failure _ -> ());
    check_mode "outer mode after the inner call raised" (Reqctx.Until 5.)
  in
  Reqctx.with_deadline (Some 5.) (fun () ->
      inner (Reqctx.with_deadline (Some 6.)) (Reqctx.Until 6.);
      inner Reqctx.without_waiting Reqctx.No_wait);
  Reqctx.without_waiting (fun () ->
      Reqctx.with_deadline (Some 6.) (fun () -> check_mode "inner" (Reqctx.Until 6.));
      check_mode "outer no-wait mode is back" Reqctx.No_wait)

let test_reqctx_none_keeps_outer () =
  Reqctx.with_deadline (Some 5.) (fun () ->
      Reqctx.with_deadline None (fun () -> check_mode "outer visible" (Reqctx.Until 5.)));
  Reqctx.without_waiting (fun () ->
      Reqctx.with_deadline None (fun () -> check_mode "outer visible" Reqctx.No_wait))

(* Bindings belong to the thread that installed them: two threads bound
   at the same time each read their own mode, and a thread spawned inside
   a binding starts unbound. *)
let test_reqctx_per_thread () =
  let bound = Atomic.make 0 in
  let seen = Array.make 2 Reqctx.Unbounded in
  let run i bind =
    Thread.create
      (fun () ->
        bind (fun () ->
            Atomic.incr bound;
            while Atomic.get bound < 2 do
              Thread.delay 0.001
            done;
            seen.(i) <- Reqctx.current ()))
      ()
  in
  let a = run 0 (Reqctx.with_deadline (Some 7.)) in
  let b = run 1 Reqctx.without_waiting in
  Thread.join a;
  Thread.join b;
  Alcotest.check mode "first thread" (Reqctx.Until 7.) seen.(0);
  Alcotest.check mode "second thread" Reqctx.No_wait seen.(1);
  let spawned = ref Reqctx.No_wait in
  Reqctx.with_deadline (Some 5.) (fun () ->
      Thread.join (Thread.create (fun () -> spawned := Reqctx.current ()) ()));
  Alcotest.check mode "spawned inside a binding" Reqctx.Unbounded !spawned

let test_reqctx_check () =
  Alcotest.(check bool) "unbound" true (Result.is_ok (Reqctx.check ~what:"x" ()));
  Reqctx.without_waiting (fun () ->
      Alcotest.(check bool) "no-wait is not expired" true
        (Result.is_ok (Reqctx.check ~what:"x" ())));
  Reqctx.with_deadline
    (Some (Unix.gettimeofday () +. 60.))
    (fun () ->
      Alcotest.(check bool) "future deadline" true (Result.is_ok (Reqctx.check ~what:"x" ())));
  Reqctx.with_deadline
    (Some (Unix.gettimeofday () -. 1.))
    (fun () ->
      match Reqctx.check ~what:"x" () with
      | Error { Verror.code = Verror.Operation_failed; message } ->
        Alcotest.(check string) "message" "deadline expired before x" message
      | _ -> Alcotest.fail "a past deadline is not expired")

let () =
  Alcotest.run "core"
    [
      ( "verror",
        [
          quick "codes stable on the wire" test_error_codes_stable;
          quick "formatting" test_error_formatting;
        ] );
      ( "uri",
        [
          quick "basic" test_uri_basic;
          quick "all components" test_uri_full;
          quick "empty path" test_uri_empty_path;
          quick "invalid rejected" test_uri_invalid;
          quick "format roundtrip" test_uri_format_roundtrip;
          prop_uri_roundtrip;
        ] );
      ( "capabilities",
        [
          quick "xml roundtrip" test_capabilities_roundtrip;
          quick "supports" test_capabilities_supports;
          quick "bad xml rejected" test_capabilities_bad_xml;
        ] );
      ( "events",
        [
          quick "subscribe/unsubscribe/history" test_event_subscription;
          quick "multiple subscribers" test_event_multiple_subscribers;
          quick "lifecycle wire codes" test_event_lifecycle_codes;
        ] );
      ( "net backend",
        [
          quick "default network" test_net_default_network;
          quick "lifecycle" test_net_lifecycle;
          quick "cidr validation" test_net_cidr_validation;
          quick "iface on inactive refused" test_net_iface_on_inactive_refused;
        ] );
      ( "storage backend",
        [
          quick "default pool" test_storage_default_pool;
          quick "volume lifecycle" test_storage_volume_lifecycle;
          quick "capacity budget" test_storage_capacity_budget;
          quick "pool guards" test_storage_pool_guards;
        ] );
      ( "registry",
        [
          quick "selection order" test_registry_selection_order;
          quick "unknown scheme refused" test_registry_no_connect;
          quick "re-registration keeps position" test_registry_reregister_keeps_position;
          quick "closed connection rejected" test_closed_connection_rejected;
        ] );
      ( "reqctx",
        [
          quick "a binding ends with its call" test_reqctx_unbound;
          quick "a nested binding shadows only its own extent" test_reqctx_nesting;
          quick "with_deadline None keeps the outer binding" test_reqctx_none_keeps_outer;
          quick "bindings are per thread" test_reqctx_per_thread;
          quick "check" test_reqctx_check;
        ] );
    ]
