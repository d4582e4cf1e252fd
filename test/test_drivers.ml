(* Drivers through the public API: uniform lifecycle semantics across all
   five backends, plus each driver's specific behaviours. *)

open Testutil
module Verror = Ovirt.Verror
module Connect = Ovirt.Connect
module Domain = Ovirt.Domain
module Driver = Ovirt.Driver
module Capabilities = Ovirt.Capabilities
module Vm_config = Vmm.Vm_config
module Vm_state = Vmm.Vm_state

let () = Ovirt.initialize ()

(* Per-driver harness: URI builder, virt_type, an OS kind the driver can
   run, and whether guest-cooperative shutdown exists. *)
type harness = {
  label : string;
  fresh_uri : unit -> string;
  virt_type : string;
  os : Vm_config.os_kind;
  has_shutdown : bool;
}

let harnesses =
  [
    {
      label = "test";
      fresh_uri = (fun () -> "test://" ^ fresh_name "tnode" ^ "/");
      virt_type = "test";
      os = Vm_config.Hvm;
      has_shutdown = true;
    };
    {
      label = "qemu";
      fresh_uri = (fun () -> "qemu://" ^ fresh_name "qnode" ^ "/system");
      virt_type = "kvm";
      os = Vm_config.Hvm;
      has_shutdown = true;
    };
    {
      label = "xen";
      fresh_uri = (fun () -> "xen://" ^ fresh_name "xnode" ^ "/");
      virt_type = "xen";
      os = Vm_config.Paravirt;
      has_shutdown = true;
    };
    {
      label = "lxc";
      fresh_uri = (fun () -> "lxc://" ^ fresh_name "lnode" ^ "/");
      virt_type = "lxc";
      os = Vm_config.Container_exe;
      has_shutdown = true;
    };
    {
      label = "esx";
      fresh_uri = (fun () -> "esx://root@" ^ fresh_name "enode" ^ "/?password=esx");
      virt_type = "vmware";
      os = Vm_config.Hvm;
      has_shutdown = false;
    };
  ]

let connect h = vok (Connect.open_uri (h.fresh_uri ()))

let define h conn name =
  let cfg = Vm_config.make ~os:h.os ~memory_kib:(8 * 1024) name in
  vok (Domain.define_xml conn (Vmm.Domxml.to_xml ~virt_type:h.virt_type cfg))

let state dom = vok (Domain.get_state dom)

(* --- conformance scenario table ----------------------------------------- *)

(* One declarative step list per scenario, interpreted against every
   driver through the public API.  Acting steps drive the scenario's
   single domain; expectation steps assert on it; [Expect_err] wraps any
   acting step with the error code all drivers must agree on. *)

type step =
  | Define
  | Start
  | Suspend
  | Resume
  | Shutdown  (* guest-cooperative; consults the harness's support flag *)
  | Destroy
  | Undefine
  | Get_info
  | Lookup_name  (* by the scenario domain's name; checks the ref *)
  | Lookup_uuid
  | Lookup_unknown_uuid
  | Expect_state of Vm_state.state
  | Expect_listed_active of bool
  | Expect_listed_defined of bool
  | Expect_err of Verror.code * step
  | Expect_any_err of step

let rec step_name = function
  | Define -> "define"
  | Start -> "start"
  | Suspend -> "suspend"
  | Resume -> "resume"
  | Shutdown -> "shutdown"
  | Destroy -> "destroy"
  | Undefine -> "undefine"
  | Get_info -> "get-info"
  | Lookup_name -> "lookup-by-name"
  | Lookup_uuid -> "lookup-by-uuid"
  | Lookup_unknown_uuid -> "lookup-unknown-uuid"
  | Expect_state s -> "expect-state " ^ Vm_state.state_name s
  | Expect_listed_active b -> Printf.sprintf "expect-listed-active %b" b
  | Expect_listed_defined b -> Printf.sprintf "expect-listed-defined %b" b
  | Expect_err (code, s) ->
    Printf.sprintf "expect %s from %s" (Verror.code_name code) (step_name s)
  | Expect_any_err s -> "expect failure from " ^ step_name s

let run_scenario h steps () =
  let conn = connect h in
  let name = fresh_name "vm" in
  let dom = ref None in
  let the_dom step =
    match !dom with
    | Some d -> d
    | None -> Alcotest.fail (step_name step ^ " before define")
  in
  (* Run one acting step to its result; expectations check and return unit. *)
  let rec exec step =
    match step with
    | Define ->
      let cfg = Vm_config.make ~os:h.os ~memory_kib:(8 * 1024) name in
      Result.map
        (fun d -> dom := Some d)
        (Domain.define_xml conn (Vmm.Domxml.to_xml ~virt_type:h.virt_type cfg))
    | Start -> Domain.create (the_dom step)
    | Suspend -> Domain.suspend (the_dom step)
    | Resume -> Domain.resume (the_dom step)
    | Destroy -> Domain.destroy (the_dom step)
    | Undefine -> Domain.undefine (the_dom step)
    | Get_info -> Result.map ignore (Domain.get_info (the_dom step))
    | Shutdown ->
      if h.has_shutdown then
        Result.map
          (fun () ->
            Alcotest.(check bool) (h.label ^ ": off after shutdown") true
              (state (the_dom step) = Vm_state.Shutoff))
          (Domain.shutdown (the_dom step))
      else begin
        expect_verr Verror.Operation_unsupported (Domain.shutdown (the_dom step));
        Domain.destroy (the_dom step)
      end
    | Lookup_name ->
      Result.map
        (fun found ->
          Alcotest.(check string) (h.label ^ ": lookup by name") name
            (Domain.name found))
        (Domain.lookup_by_name conn name)
    | Lookup_uuid ->
      Result.map
        (fun found ->
          Alcotest.(check string) (h.label ^ ": lookup by uuid") name
            (Domain.name found))
        (Domain.lookup_by_uuid conn (Domain.uuid (the_dom step)))
    | Lookup_unknown_uuid ->
      Result.map ignore (Domain.lookup_by_uuid conn (Vmm.Uuid.generate ()))
    | Expect_state expected ->
      Alcotest.(check string)
        (h.label ^ ": state")
        (Vm_state.state_name expected)
        (Vm_state.state_name (state (the_dom step)));
      Ok ()
    | Expect_listed_active expected ->
      Alcotest.(check bool)
        (h.label ^ ": in active list")
        expected
        (List.exists
           (fun r -> r.Driver.dom_name = name)
           (vok (Connect.list_domains conn)));
      Ok ()
    | Expect_listed_defined expected ->
      Alcotest.(check bool)
        (h.label ^ ": in defined list")
        expected
        (List.mem name (vok (Connect.list_defined_domains conn)));
      Ok ()
    | Expect_err (code, inner) ->
      (match exec inner with
       | Error e when e.Verror.code = code -> Ok ()
       | Error e ->
         Alcotest.fail
           (Printf.sprintf "%s: %s failed with %s, wanted %s" h.label
              (step_name inner)
              (Verror.code_name e.Verror.code)
              (Verror.code_name code))
       | Ok () ->
         Alcotest.fail
           (Printf.sprintf "%s: %s succeeded, wanted %s" h.label (step_name inner)
              (Verror.code_name code)))
    | Expect_any_err inner ->
      (match exec inner with
       | Error _ -> Ok ()
       | Ok () ->
         Alcotest.fail
           (Printf.sprintf "%s: %s succeeded, wanted any error" h.label
              (step_name inner)))
  in
  List.iter
    (fun step ->
      match exec step with
      | Ok () -> ()
      | Error e ->
        Alcotest.fail
          (Printf.sprintf "%s: %s failed: %s" h.label (step_name step)
             (Verror.to_string e)))
    steps

(* The shared semantics every backend must exhibit, whatever its
   substrate: lifecycle transitions with listing membership, the agreed
   error codes, and name/UUID resolution. *)
let scenarios =
  [
    ( "lifecycle",
      [
        Define;
        Expect_state Vm_state.Shutoff;
        Expect_listed_defined true;
        Expect_listed_active false;
        Start;
        Expect_state Vm_state.Running;
        Expect_listed_active true;
        Expect_listed_defined false;
        Suspend;
        Expect_state Vm_state.Paused;
        Resume;
        Expect_state Vm_state.Running;
        Destroy;
        Expect_state Vm_state.Shutoff;
        Undefine;
        Expect_err (Verror.No_domain, Get_info);
      ] );
    ( "error codes",
      [
        Expect_err (Verror.No_domain, Lookup_name);
        Define;
        Start;
        Expect_err (Verror.Operation_invalid, Start);
        Expect_err (Verror.Operation_invalid, Resume);
        Expect_any_err Undefine;
        Destroy;
        Expect_any_err Destroy;
        Expect_err (Verror.Operation_invalid, Suspend);
      ] );
    ( "lookup",
      [
        Define;
        Lookup_name;
        Lookup_uuid;
        Expect_err (Verror.No_domain, Lookup_unknown_uuid);
        Start;
        Lookup_name;
        Destroy;
      ] );
    ("guest shutdown", [ Define; Start; Shutdown ]);
  ]

let conformance_suite =
  List.concat_map
    (fun (sname, steps) ->
      List.map
        (fun h -> quick (sname ^ " / " ^ h.label) (run_scenario h steps))
        harnesses)
    scenarios

(* --- uniform semantics across every driver ------------------------------ *)

let test_uniform_duplicate_define h () =
  let conn = connect h in
  let name = fresh_name "vm" in
  let _dom = define h conn name in
  let other = Vm_config.make ~os:h.os name in
  expect_error (Domain.define_xml conn (Vmm.Domxml.to_xml ~virt_type:h.virt_type other))

let test_uniform_xml_roundtrip h () =
  let conn = connect h in
  let name = fresh_name "vm" in
  let dom = define h conn name in
  let xml = vok (Domain.xml_desc dom) in
  let cfg, virt_type = sok (Vmm.Domxml.of_xml xml) in
  Alcotest.(check string) "virt type" h.virt_type virt_type;
  Alcotest.(check string) "name survives" name cfg.Vm_config.name

let test_uniform_capabilities h () =
  let conn = connect h in
  let caps = vok (Connect.capabilities conn) in
  Alcotest.(check bool) "runs its own OS kind" true
    (List.mem h.os caps.Capabilities.guest_os_kinds);
  Alcotest.(check bool) "define+start supported" true
    (Capabilities.supports caps Capabilities.Feat_define
    && Capabilities.supports caps Capabilities.Feat_start);
  Alcotest.(check bool) "shutdown capability" h.has_shutdown
    (Capabilities.supports caps Capabilities.Feat_shutdown)

let test_wrong_os_rejected h () =
  if h.label <> "test" then begin
    let conn = connect h in
    let wrong_os =
      match h.os with
      | Vm_config.Container_exe -> Vm_config.Hvm
      | Vm_config.Hvm | Vm_config.Paravirt -> Vm_config.Container_exe
    in
    let cfg = Vm_config.make ~os:wrong_os (fresh_name "wrong") in
    expect_verr Verror.Invalid_arg
      (Domain.define_xml conn (Vmm.Domxml.to_xml ~virt_type:h.virt_type cfg))
  end

let uniform_suite make_test = List.map (fun h -> quick h.label (make_test h)) harnesses

(* --- driver-specific behaviours ----------------------------------------- *)

let test_qemu_argv_format () =
  let cfg = Vm_config.make ~memory_kib:(128 * 1024) ~vcpus:2 "argvm" in
  let argv = Drivers.Drv_qemu.proc_argv cfg in
  Alcotest.(check bool) "-S present" true (List.mem "-S" argv);
  Alcotest.(check bool) "name present" true (List.mem "argvm" argv);
  Alcotest.(check bool) "memory in MiB" true (List.mem "128" argv);
  Alcotest.(check bool) "smp" true (List.mem "2" argv);
  Alcotest.(check bool) "drive flag per disk" true (List.mem "-drive" argv)

let test_qemu_domain_id_is_pid () =
  let h = List.nth harnesses 1 in
  let conn = connect h in
  let dom = define h conn (fresh_name "vm") in
  vok (Domain.create dom);
  let refs = vok (Connect.list_domains conn) in
  let entry = List.find (fun r -> r.Driver.dom_name = Domain.name dom) refs in
  Alcotest.(check bool) "pid >= 1000" true
    (match entry.Driver.dom_id with Some pid -> pid >= 1000 | None -> false)

let test_qemu_balloon () =
  let h = List.nth harnesses 1 in
  let conn = connect h in
  let dom = define h conn (fresh_name "vm") in
  expect_error (Domain.set_memory dom 4096);
  vok (Domain.create dom);
  vok (Domain.set_memory dom 4096);
  let info = vok (Domain.get_info dom) in
  Alcotest.(check int) "current shrunk" 4096 info.Driver.di_memory_kib;
  Alcotest.(check int) "max unchanged" (8 * 1024) info.Driver.di_max_mem_kib;
  expect_verr Verror.Invalid_arg (Domain.set_memory dom (64 * 1024 * 1024));
  expect_verr Verror.Invalid_arg (Domain.set_memory dom 0)

let test_xen_dom0_visible () =
  let conn = vok (Connect.open_uri ("xen://" ^ fresh_name "xn" ^ "/")) in
  let active = vok (Connect.list_domains conn) in
  Alcotest.(check bool) "Domain-0 listed" true
    (List.exists (fun r -> r.Driver.dom_name = "Domain-0") active);
  let dom0 = vok (Domain.lookup_by_name conn "Domain-0") in
  expect_error (Domain.destroy dom0)

let test_xen_hypervisor_forgets_inactive () =
  let h = List.nth harnesses 2 in
  let conn = connect h in
  let dom = define h conn (fresh_name "vm") in
  vok (Domain.create dom);
  Alcotest.(check int) "dom0 + guest" 2 (List.length (vok (Connect.list_domains conn)));
  vok (Domain.destroy dom);
  Alcotest.(check int) "only dom0 active" 1
    (List.length (vok (Connect.list_domains conn)));
  Alcotest.(check bool) "still defined" true
    (List.mem (Domain.name dom) (vok (Connect.list_defined_domains conn)));
  vok (Domain.create dom);
  Alcotest.(check bool) "restartable" true (state dom = Vm_state.Running)

let test_lxc_memory_resize_unbounded () =
  (* cgroup resize may exceed the configured memory (unlike a balloon). *)
  let h = List.nth harnesses 3 in
  let conn = connect h in
  let dom = define h conn (fresh_name "ct") in
  vok (Domain.set_memory dom (64 * 1024));
  let info = vok (Domain.get_info dom) in
  Alcotest.(check int) "cgroup limit" (64 * 1024) info.Driver.di_memory_kib

let test_lxc_no_migration () =
  let h = List.nth harnesses 3 in
  let conn = connect h in
  let dest = connect h in
  let dom = define h conn (fresh_name "ct") in
  vok (Domain.create dom);
  expect_verr Verror.Operation_unsupported (Domain.migrate dom ~dest ())

let test_esx_auth_failure () =
  match Connect.open_uri ("esx://root@" ^ fresh_name "esx" ^ "/?password=wrong") with
  | Error e -> Alcotest.(check bool) "auth_failed" true (e.Verror.code = Verror.Auth_failed)
  | Ok _ -> Alcotest.fail "bad password connected"

let test_esx_stateless_across_connections () =
  let host = fresh_name "esx" in
  let uri = Printf.sprintf "esx://root@%s/?password=esx" host in
  let conn1 = vok (Connect.open_uri uri) in
  let h = List.nth harnesses 4 in
  let name = fresh_name "vm" in
  let cfg = Vm_config.make ~os:h.os name in
  let _ = vok (Domain.define_xml conn1 (Vmm.Domxml.to_xml ~virt_type:"vmware" cfg)) in
  Connect.close conn1;
  let conn2 = vok (Connect.open_uri uri) in
  Alcotest.(check bool) "visible to new session" true
    (List.mem name (vok (Connect.list_defined_domains conn2)));
  let caps = vok (Connect.capabilities conn2) in
  Alcotest.(check bool) "stateless" false caps.Capabilities.stateful

let test_esx_close_logs_out () =
  let host = fresh_name "esx" in
  let uri = Printf.sprintf "esx://root@%s/?password=esx" host in
  let conn = vok (Connect.open_uri uri) in
  let esx = Drivers.Drv_esx.get_host host in
  Alcotest.(check int) "session open" 1 (Hvsim.Esx_host.session_count esx);
  Connect.close conn;
  Alcotest.(check int) "session closed" 0 (Hvsim.Esx_host.session_count esx)

let test_default_test_node_has_domain () =
  let conn = vok (Connect.open_uri "test:///default") in
  Alcotest.(check bool) "the canonical 'test' domain runs" true
    (List.exists (fun r -> r.Driver.dom_name = "test") (vok (Connect.list_domains conn)))

let test_capacity_exhaustion () =
  let h = List.hd harnesses in
  let conn = connect h in
  let cfg = Vm_config.make ~os:h.os ~memory_kib:(100 * 1024 * 1024) (fresh_name "huge") in
  let dom = vok (Domain.define_xml conn (Vmm.Domxml.to_xml ~virt_type:h.virt_type cfg)) in
  expect_verr Verror.Resource_exhausted (Domain.create dom)

let test_events_emitted_by_drivers () =
  let h = List.hd harnesses in
  let conn = connect h in
  let seen = ref [] in
  let _ =
    vok
      (Connect.subscribe_events conn (fun ev ->
           seen := ev.Ovirt.Events.lifecycle :: !seen))
  in
  let dom = define h conn (fresh_name "vm") in
  vok (Domain.create dom);
  vok (Domain.suspend dom);
  vok (Domain.resume dom);
  vok (Domain.destroy dom);
  vok (Domain.undefine dom);
  List.iter
    (fun e ->
      Alcotest.(check bool) (Ovirt.Events.lifecycle_name e) true (List.mem e !seen))
    Ovirt.Events.
      [ Ev_defined; Ev_started; Ev_suspended; Ev_resumed; Ev_stopped; Ev_undefined ]

(* --- managed save --------------------------------------------------- *)

let save_capable = [ List.nth harnesses 0; List.nth harnesses 1 ]
let save_incapable = [ List.nth harnesses 2; List.nth harnesses 3; List.nth harnesses 4 ]

let test_managed_save_cycle h () =
  let conn = connect h in
  let name = fresh_name "sv" in
  let dom = define h conn name in
  (* not running: save refused; no image yet *)
  expect_verr Verror.Operation_invalid (Domain.save dom);
  Alcotest.(check bool) "no image initially" false (vok (Domain.has_managed_save dom));
  vok (Domain.create dom);
  vok (Domain.save dom);
  Alcotest.(check bool) "stopped by save" true (state dom = Vm_state.Shutoff);
  Alcotest.(check bool) "image exists" true (vok (Domain.has_managed_save dom));
  (* restore brings it back and consumes the image *)
  vok (Domain.restore dom);
  Alcotest.(check bool) "running again" true (state dom = Vm_state.Running);
  Alcotest.(check bool) "image consumed" false (vok (Domain.has_managed_save dom));
  (* restore without an image refused *)
  vok (Domain.destroy dom);
  expect_verr Verror.Operation_invalid (Domain.restore dom)

let test_managed_save_memory_fidelity h () =
  let conn = connect h in
  let name = fresh_name "svf" in
  let dom = define h conn name in
  vok (Domain.create dom);
  (* dirty the guest, checkpoint, restore, compare *)
  let ops = vok (Ovirt.Connect.ops conn) in
  let ms = vok ((Option.get ops.Driver.migrate_begin) name) in
  let img = ms.Driver.mig_image in
  ms.Driver.mig_abort ();
  Vmm.Guest_image.dirty_randomly img ~rate:0.4 ~seed:3;
  let checksum = Vmm.Guest_image.checksum img in
  vok (Domain.save dom);
  vok (Domain.restore dom);
  let ms2 = vok ((Option.get ops.Driver.migrate_begin) name) in
  let img2 = ms2.Driver.mig_image in
  ms2.Driver.mig_abort ();
  Alcotest.(check bool) "memory restored bit-identically" true
    (Vmm.Guest_image.checksum img2 = checksum)

let test_managed_save_unsupported h () =
  let conn = connect h in
  let dom = define h conn (fresh_name "sv") in
  vok (Domain.create dom);
  expect_verr Verror.Operation_unsupported (Domain.save dom);
  expect_verr Verror.Operation_unsupported (Domain.has_managed_save dom)

let test_undefine_discards_save () =
  let h = List.hd harnesses in
  let conn = connect h in
  let name = fresh_name "sv" in
  let dom = define h conn name in
  vok (Domain.create dom);
  vok (Domain.save dom);
  vok (Domain.undefine dom);
  (* redefine: fresh identity, no stale image *)
  let dom2 = define h conn name in
  Alcotest.(check bool) "no stale image" false (vok (Domain.has_managed_save dom2))

(* --- lock sections under a request context ------------------------------ *)

module Drvnode = Drivers.Drvnode
module Reqctx = Ovirt_core.Reqctx

let lock_nodes = Drvnode.registry (fun ~node_name:_ -> ())

(* Run [f] while another thread holds [node]'s write lock; the holder
   lets go only after [f] returns. *)
let with_write_held node f =
  let held = Atomic.make false and release = Atomic.make false in
  let holder =
    Thread.create
      (fun () ->
        Drvnode.with_write node (fun () ->
            Atomic.set held true;
            while not (Atomic.get release) do
              Thread.delay 0.002
            done))
      ()
  in
  Alcotest.(check bool) "holder has the lock" true (eventually (fun () -> Atomic.get held));
  Fun.protect
    ~finally:(fun () ->
      Atomic.set release true;
      Thread.join holder)
    f

let test_section_deadline_expires () =
  let node = Drvnode.get_node lock_nodes (fresh_name "locked") in
  with_write_held node (fun () ->
      let ran = ref false in
      let t0 = Unix.gettimeofday () in
      (match
         Reqctx.with_deadline
           (Some (t0 +. 0.05))
           (fun () -> Drvnode.with_read node (fun () -> ran := true))
       with
      | () -> Alcotest.fail "the read ran while a writer held the lock"
      | exception Verror.Virt_error { Verror.code = Verror.Operation_failed; message } ->
        Alcotest.(check bool)
          ("message: " ^ message) true
          (contains message "deadline expired waiting for lock on node"));
      let waited = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool) (Printf.sprintf "waited %.3f s, the whole budget" waited) true
        (waited >= 0.05);
      Alcotest.(check bool) "f did not run" false !ran)

(* The holder keeps the lock until the test returns, so a no-wait section
   that waited at all would never come back. *)
let test_section_no_wait_gives_up () =
  let node = Drvnode.get_node lock_nodes (fresh_name "locked") in
  with_write_held node (fun () ->
      let ran = ref false in
      List.iter
        (fun (what, section) ->
          match Reqctx.without_waiting (fun () -> section node (fun () -> ran := true)) with
          | () -> Alcotest.failf "the %s ran while a writer held the lock" what
          | exception Reqctx.Would_wait -> ())
        [ ("read", Drvnode.with_read); ("write", Drvnode.with_write) ];
      Alcotest.(check bool) "f did not run" false !ran)

let () =
  Alcotest.run "drivers"
    [
      ("conformance", conformance_suite);
      ("uniform duplicate define", uniform_suite test_uniform_duplicate_define);
      ("uniform xml roundtrip", uniform_suite test_uniform_xml_roundtrip);
      ("uniform capabilities", uniform_suite test_uniform_capabilities);
      ("wrong OS rejected", uniform_suite test_wrong_os_rejected);
      ( "qemu specifics",
        [
          quick "command-line format" test_qemu_argv_format;
          quick "domain id is the pid" test_qemu_domain_id_is_pid;
          quick "memory balloon" test_qemu_balloon;
        ] );
      ( "xen specifics",
        [
          quick "Domain-0 visible and protected" test_xen_dom0_visible;
          quick "hypervisor forgets inactive domains" test_xen_hypervisor_forgets_inactive;
        ] );
      ( "lxc specifics",
        [
          quick "cgroup resize beyond definition" test_lxc_memory_resize_unbounded;
          quick "no migration" test_lxc_no_migration;
        ] );
      ( "esx specifics",
        [
          quick "auth failure" test_esx_auth_failure;
          quick "stateless across connections" test_esx_stateless_across_connections;
          quick "close logs out" test_esx_close_logs_out;
        ] );
      ( "managed save",
        List.map (fun h -> quick h.label (test_managed_save_cycle h)) save_capable
        @ List.map
            (fun h -> quick (h.label ^ " fidelity") (test_managed_save_memory_fidelity h))
            save_capable
        @ List.map
            (fun h -> quick (h.label ^ " unsupported") (test_managed_save_unsupported h))
            save_incapable
        @ [ quick "undefine discards the image" test_undefine_discards_save ] );
      ( "misc",
        [
          quick "test:///default canonical domain" test_default_test_node_has_domain;
          quick "capacity exhaustion" test_capacity_exhaustion;
          quick "lifecycle events emitted" test_events_emitted_by_drivers;
        ] );
      ( "lock sections",
        [
          quick "a deadline expires waiting for a held lock" test_section_deadline_expires;
          quick "no-wait gives up on a held lock" test_section_no_wait_gives_up;
        ] );
    ]
