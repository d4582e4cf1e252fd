(* Declarative desired-state reconciliation: the engine against stub IO
   (policy persistence, convergence planning, exactly-once crash resume,
   backoff isolation of a permanently failing domain, drain-plan
   abandonment, journal compaction), the v1.5 protocol surface, and the
   reconciler wired into a live daemon (policy over the remote program,
   status over the admin program, old-daemon rejection). *)

open Testutil
module Reconcile = Reconcile
module Dompolicy = Ovirt.Dompolicy
module Rp = Protocol.Remote_protocol
module Verror = Ovirt.Verror
module Connect = Ovirt.Connect
module Domain = Ovirt.Domain
module Daemon = Ovirt.Daemon
module Daemon_config = Ovirt.Daemon_config
module Vm_state = Vmm.Vm_state

let () = Ovirt.initialize ()

let quiet_config =
  {
    Daemon_config.default with
    Daemon_config.log_outputs =
      [ { Vlog.min_priority = Vlog.Debug; sink = Vlog.Null } ];
    (* fast loop so live-daemon tests converge promptly *)
    reconcile_interval_ms = 30;
  }

let with_daemon ?(config = quiet_config) f =
  let name = fresh_name "rcnd" in
  let daemon = Daemon.start ~name ~config () in
  Fun.protect ~finally:(fun () -> Daemon.stop daemon) (fun () -> f name daemon)

let remote_uri ?(params = "") ~daemon node =
  Printf.sprintf "test+unix://%s/?daemon=%s%s" node daemon params

let policy ?(boot = Dompolicy.Boot_ignore) ?(shut = Dompolicy.Shut_ignore)
    ?(run = Dompolicy.Rs_any) () =
  { Dompolicy.on_boot = boot; on_shutdown = shut; run_state = run }

(* --- stub IO world -------------------------------------------------------- *)

(* An in-memory fleet: (uri, name) -> state.  Absent = undefined.  Ops
   mutate it the way a driver would; [fail] marks a domain whose every
   lifecycle op fails (the permanently diverging guest). *)
type world = {
  wm : Mutex.t;
  tbl : (string * string, Vm_state.state) Hashtbl.t;
  mutable applies : (string * string * Reconcile.op_kind) list;
  mutable failing : (string * string) list;
}

let make_world entries =
  let w =
    { wm = Mutex.create (); tbl = Hashtbl.create 16; applies = []; failing = [] }
  in
  List.iter (fun (k, st) -> Hashtbl.replace w.tbl k st) entries;
  w

let world_io w =
  let locked f =
    Mutex.lock w.wm;
    Fun.protect ~finally:(fun () -> Mutex.unlock w.wm) f
  in
  {
    Reconcile.io_actual =
      (fun uri ->
        locked (fun () ->
            Ok
              (Hashtbl.fold
                 (fun (u, n) st acc -> if u = uri then (n, st) :: acc else acc)
                 w.tbl [])));
    io_state =
      (fun uri name -> locked (fun () -> Ok (Hashtbl.find_opt w.tbl (uri, name))));
    io_apply =
      (fun uri op ->
        locked (fun () ->
            let key = (uri, op.Reconcile.op_name) in
            if List.mem key w.failing then
              Verror.error Verror.Operation_failed "injected failure"
            else begin
              w.applies <- (uri, op.Reconcile.op_name, op.Reconcile.op_kind) :: w.applies;
              (match op.Reconcile.op_kind with
               | Reconcile.Op_start | Reconcile.Op_resume ->
                 Hashtbl.replace w.tbl key Vm_state.Running
               | Reconcile.Op_shutdown | Reconcile.Op_save ->
                 Hashtbl.replace w.tbl key Vm_state.Shutoff);
              Ok ()
            end));
    io_log = (fun _ -> ());
  }

let applies_for w key =
  Mutex.lock w.wm;
  let n =
    List.length (List.filter (fun (u, n, _) -> (u, n) = key) w.applies)
  in
  Mutex.unlock w.wm;
  n

let test_config =
  {
    Reconcile.default_config with
    Reconcile.rcfg_parallel = 1;
    rcfg_diverged_after = 2;
    rcfg_backoff_base_s = 0.;
    rcfg_backoff_cap_s = 0.;
    rcfg_compact_factor = 1000;
    rcfg_compact_slack = 1000;
  }

let engine ?(config = test_config) ~path w =
  Reconcile.create ~journal_path:path ~io:(world_io w) ~config ()

(* Install a crash hook for the duration of [f], restoring the no-op
   hook afterwards even if [f] raises the injected crash. *)
exception Injected_crash

let with_crash_hook hook f =
  Reconcile.crash_hook := hook;
  Fun.protect ~finally:(fun () -> Reconcile.crash_hook := fun _ -> ()) f

let expect_crash f =
  match f () with
  | _ -> Alcotest.fail "expected the injected crash to abort the pass"
  | exception Injected_crash -> ()

(* --- engine: policy persistence ------------------------------------------- *)

let test_policy_persistence () =
  let path = fresh_name "rj" in
  let w = make_world [] in
  let t = engine ~path w in
  let p1 = policy ~boot:Dompolicy.Boot_start ~run:Dompolicy.Rs_running () in
  let p2 = policy ~shut:Dompolicy.Shut_suspend () in
  Reconcile.set_policy t ~uri:"test://a/" ~name:"alpha" p1;
  Reconcile.set_policy t ~uri:"test://a/" ~name:"beta" p2;
  Reconcile.set_policy t ~uri:"test://b/" ~name:"alpha" p2;
  Reconcile.clear_policy t ~uri:"test://b/" ~name:"alpha";
  Alcotest.(check string) "get returns declared" (Dompolicy.to_string p1)
    (Dompolicy.to_string (Reconcile.get_policy t ~uri:"test://a/" ~name:"alpha"));
  Alcotest.(check string) "cleared falls back to default"
    (Dompolicy.to_string Dompolicy.default)
    (Dompolicy.to_string (Reconcile.get_policy t ~uri:"test://b/" ~name:"alpha"));
  (* A second incarnation on the same journal sees the same specs. *)
  let t2 = engine ~path w in
  Alcotest.(check string) "replayed p1" (Dompolicy.to_string p1)
    (Dompolicy.to_string (Reconcile.get_policy t2 ~uri:"test://a/" ~name:"alpha"));
  Alcotest.(check string) "replayed p2" (Dompolicy.to_string p2)
    (Dompolicy.to_string (Reconcile.get_policy t2 ~uri:"test://a/" ~name:"beta"));
  let summary, rows = Reconcile.status t2 in
  Alcotest.(check int) "two specs survive" 2 summary.Reconcile.sum_specs;
  Alcotest.(check int) "two rows" 2 (List.length rows)

(* --- engine: convergence --------------------------------------------------- *)

let test_convergence () =
  let uri = "test://conv/" in
  let w =
    make_world
      [
        ((uri, "stopped"), Vm_state.Shutoff);
        ((uri, "paused"), Vm_state.Paused);
        ((uri, "runaway"), Vm_state.Running);
        ((uri, "fine"), Vm_state.Running);
      ]
  in
  let t = engine ~path:(fresh_name "rj") w in
  Reconcile.set_policy t ~uri ~name:"stopped" (policy ~run:Dompolicy.Rs_running ());
  Reconcile.set_policy t ~uri ~name:"paused" (policy ~run:Dompolicy.Rs_running ());
  Reconcile.set_policy t ~uri ~name:"runaway" (policy ~run:Dompolicy.Rs_stopped ());
  Reconcile.set_policy t ~uri ~name:"fine" (policy ~run:Dompolicy.Rs_running ());
  let summary = Reconcile.converge_now t in
  Alcotest.(check int) "three ops applied" 3 summary.Reconcile.sum_ops_applied;
  (* Convergence is only claimed once a later diff verifies the
     postcondition: right after the applying pass the three corrected
     specs are still "pending", only the already-satisfied one counts. *)
  Alcotest.(check int) "only the untouched spec converged" 1
    summary.Reconcile.sum_converged;
  Alcotest.(check int) "corrected specs await verification" 3
    summary.Reconcile.sum_pending;
  Alcotest.(check bool) "stopped started" true
    (Hashtbl.find w.tbl (uri, "stopped") = Vm_state.Running);
  Alcotest.(check bool) "paused resumed" true
    (Hashtbl.find w.tbl (uri, "paused") = Vm_state.Running);
  Alcotest.(check bool) "runaway shut down" true
    (Hashtbl.find w.tbl (uri, "runaway") = Vm_state.Shutoff);
  Alcotest.(check int) "satisfied spec untouched" 0 (applies_for w (uri, "fine"));
  (* Steady state: the second pass verifies and plans nothing further. *)
  let summary = Reconcile.converge_now t in
  Alcotest.(check int) "no further ops" 3
    (summary.Reconcile.sum_ops_applied + summary.Reconcile.sum_ops_skipped);
  Alcotest.(check int) "all verified converged" 4 summary.Reconcile.sum_converged

let test_on_boot_semantics () =
  let uri = "test://boot/" in
  let w = make_world [ ((uri, "auto"), Vm_state.Shutoff) ] in
  let path = fresh_name "rj" in
  let t = engine ~path w in
  Reconcile.set_policy t ~uri ~name:"auto" (policy ~boot:Dompolicy.Boot_start ());
  ignore (Reconcile.converge_now t);
  Alcotest.(check bool) "boot pass started it" true
    (Hashtbl.find w.tbl (uri, "auto") = Vm_state.Running);
  (* The guest stopping later is NOT corrected: on_boot is a boot-time
     rule, only run_state=running is enforced continuously. *)
  Hashtbl.replace w.tbl (uri, "auto") Vm_state.Shutoff;
  ignore (Reconcile.converge_now t);
  Alcotest.(check bool) "not restarted mid-flight" true
    (Hashtbl.find w.tbl (uri, "auto") = Vm_state.Shutoff);
  (* ...but a fresh incarnation (daemon restart) boots it again. *)
  let t2 = engine ~path w in
  ignore (Reconcile.converge_now t2);
  Alcotest.(check bool) "restarted at next boot" true
    (Hashtbl.find w.tbl (uri, "auto") = Vm_state.Running)

(* --- engine: failure isolation -------------------------------------------- *)

let test_failing_domain_isolated () =
  let uri = "test://iso/" in
  let w =
    make_world
      [ ((uri, "sick"), Vm_state.Shutoff); ((uri, "healthy"), Vm_state.Shutoff) ]
  in
  w.failing <- [ (uri, "sick") ];
  let t = engine ~path:(fresh_name "rj") w in
  Reconcile.set_policy t ~uri ~name:"sick" (policy ~run:Dompolicy.Rs_running ());
  Reconcile.set_policy t ~uri ~name:"healthy" (policy ~run:Dompolicy.Rs_running ());
  let s1 = Reconcile.converge_now t in
  (* The healthy domain converged on the very pass the sick one failed:
     one failure never wedges the rest of the fleet. *)
  Alcotest.(check bool) "healthy running" true
    (Hashtbl.find w.tbl (uri, "healthy") = Vm_state.Running);
  Alcotest.(check int) "one failure recorded" 1 s1.Reconcile.sum_ops_failed;
  let s2 = Reconcile.converge_now t in
  Alcotest.(check int) "diverged after repeated failures" 1
    s2.Reconcile.sum_diverged;
  let _, rows = Reconcile.status t in
  let sick = List.find (fun r -> r.Reconcile.ds_name = "sick") rows in
  Alcotest.(check bool) "diverged row" true
    (sick.Reconcile.ds_status = Reconcile.St_diverged);
  Alcotest.(check bool) "error surfaced" true
    (sick.Reconcile.ds_last_error <> "");
  (* Repair the domain: the next pass converges it and clears the
     attempt counter. *)
  w.failing <- [];
  let s3 = Reconcile.converge_now t in
  Alcotest.(check int) "nothing diverged" 0 s3.Reconcile.sum_diverged;
  Alcotest.(check bool) "sick recovered" true
    (Hashtbl.find w.tbl (uri, "sick") = Vm_state.Running)

let test_backoff_gates_retries () =
  let uri = "test://bo/" in
  let w = make_world [ ((uri, "flappy"), Vm_state.Shutoff) ] in
  w.failing <- [ (uri, "flappy") ];
  let config =
    { test_config with
      Reconcile.rcfg_backoff_base_s = 60.;
      rcfg_backoff_cap_s = 120. }
  in
  let t = engine ~config ~path:(fresh_name "rj") w in
  Reconcile.set_policy t ~uri ~name:"flappy" (policy ~run:Dompolicy.Rs_running ());
  let s1 = Reconcile.converge_now t in
  Alcotest.(check int) "first attempt failed" 1 s1.Reconcile.sum_ops_failed;
  let s2 = Reconcile.converge_now t in
  Alcotest.(check int) "backoff suppressed the retry" 1 s2.Reconcile.sum_ops_failed;
  Alcotest.(check int) "still pending, not converged" 1 s2.Reconcile.sum_pending;
  let _, rows = Reconcile.status t in
  let r = List.hd rows in
  Alcotest.(check bool) "retry countdown exposed" true
    (r.Reconcile.ds_retry_in_s > 0.)

(* --- engine: crash resume -------------------------------------------------- *)

(* Kill the pass between the side effect and its checkpoint — the
   nastiest window: the journal says the op is outstanding, the world
   says it already happened.  Resume must skip, not repeat it. *)
let test_crash_resume_exactly_once () =
  let uri = "test://crash/" in
  let w = make_world [ ((uri, "dom"), Vm_state.Shutoff) ] in
  let path = fresh_name "rj" in
  let t = engine ~path w in
  Reconcile.set_policy t ~uri ~name:"dom" (policy ~run:Dompolicy.Rs_running ());
  with_crash_hook
    (fun site -> if site = "post_apply" then raise Injected_crash)
    (fun () -> expect_crash (fun () -> Reconcile.converge_now t));
  Alcotest.(check int) "side effect landed before the crash" 1
    (applies_for w (uri, "dom"));
  (* New incarnation on the surviving journal. *)
  let t2 = engine ~path w in
  let s = Reconcile.converge_now t2 in
  Alcotest.(check bool) "plan was resumed" true s.Reconcile.sum_resumed;
  Alcotest.(check int) "op skipped, not re-applied" 1 s.Reconcile.sum_ops_skipped;
  Alcotest.(check int) "exactly one side effect ever" 1
    (applies_for w (uri, "dom"));
  Alcotest.(check int) "spec holds" 1 s.Reconcile.sum_converged

(* Crash right after the plan hits the journal, before any op runs: the
   whole plan must be replayed and applied by the next incarnation. *)
let test_crash_before_apply_resumes_all () =
  let uri = "test://crash2/" in
  let w =
    make_world
      [ ((uri, "d1"), Vm_state.Shutoff); ((uri, "d2"), Vm_state.Shutoff) ]
  in
  let path = fresh_name "rj" in
  let t = engine ~path w in
  Reconcile.set_policy t ~uri ~name:"d1" (policy ~run:Dompolicy.Rs_running ());
  Reconcile.set_policy t ~uri ~name:"d2" (policy ~run:Dompolicy.Rs_running ());
  with_crash_hook
    (fun site -> if site = "plan_journaled" then raise Injected_crash)
    (fun () -> expect_crash (fun () -> Reconcile.converge_now t));
  Alcotest.(check int) "no side effects yet" 0
    (applies_for w (uri, "d1") + applies_for w (uri, "d2"));
  let t2 = engine ~path w in
  let s = Reconcile.converge_now t2 in
  Alcotest.(check bool) "resumed" true s.Reconcile.sum_resumed;
  Alcotest.(check int) "both applied exactly once" 2 s.Reconcile.sum_ops_applied;
  Alcotest.(check bool) "both running" true
    (Hashtbl.find w.tbl (uri, "d1") = Vm_state.Running
    && Hashtbl.find w.tbl (uri, "d2") = Vm_state.Running)

(* --- engine: drain pass ---------------------------------------------------- *)

let test_shutdown_pass_and_abandonment () =
  let uri = "test://drain/" in
  let w =
    make_world
      [ ((uri, "saver"), Vm_state.Running); ((uri, "stopper"), Vm_state.Running) ]
  in
  let path = fresh_name "rj" in
  let t = engine ~path w in
  Reconcile.set_policy t ~uri ~name:"saver"
    (policy ~shut:Dompolicy.Shut_suspend ());
  Reconcile.set_policy t ~uri ~name:"stopper"
    (policy ~shut:Dompolicy.Shut_shutdown ());
  Reconcile.shutdown_pass t;
  Alcotest.(check int) "both drained" 2
    (applies_for w (uri, "saver") + applies_for w (uri, "stopper"));
  (* Now the abandonment half: a drain pass killed before any op runs
     must NOT be replayed at the next boot (boot semantics take over). *)
  Hashtbl.replace w.tbl (uri, "saver") Vm_state.Running;
  Hashtbl.replace w.tbl (uri, "stopper") Vm_state.Running;
  with_crash_hook
    (fun site -> if site = "pre_apply" then raise Injected_crash)
    (fun () -> expect_crash (fun () -> Reconcile.shutdown_pass t));
  let t2 = engine ~path w in
  ignore (Reconcile.converge_now t2);
  Alcotest.(check bool) "interrupted drain not replayed at boot" true
    (Hashtbl.find w.tbl (uri, "saver") = Vm_state.Running
    && Hashtbl.find w.tbl (uri, "stopper") = Vm_state.Running)

(* --- engine: journal compaction -------------------------------------------- *)

let test_journal_compaction () =
  let uri = "test://compact/" in
  let w = make_world [ ((uri, "dom"), Vm_state.Running) ] in
  let config =
    { test_config with Reconcile.rcfg_compact_factor = 2; rcfg_compact_slack = 4 }
  in
  let t = engine ~config ~path:(fresh_name "rj") w in
  for _ = 1 to 50 do
    Reconcile.set_policy t ~uri ~name:"dom" (policy ~run:Dompolicy.Rs_running ())
  done;
  (* 50 'P' records were appended; the live set is one spec. *)
  Alcotest.(check bool) "journal compacted"
    true
    (Reconcile.journal_records t <= 2 * 1 + 4 + 1);
  Alcotest.(check string) "spec survives compaction"
    (Dompolicy.to_string (policy ~run:Dompolicy.Rs_running ()))
    (Dompolicy.to_string (Reconcile.get_policy t ~uri ~name:"dom"))

(* --- protocol surface ------------------------------------------------------ *)

let test_v15_numbers_stable () =
  Alcotest.(check int) "build minor" 8 Rp.minor;
  Alcotest.(check int) "set_policy is 50" 50 (Rp.proc_to_int Rp.Proc_dom_set_policy);
  Alcotest.(check int) "get_policy is 51" 51 (Rp.proc_to_int Rp.Proc_dom_get_policy);
  Alcotest.(check int) "reconcile_status is 52" 52
    (Rp.proc_to_int Rp.Proc_daemon_reconcile_status);
  List.iter
    (fun p -> Alcotest.(check int) "new procs need minor 5" 5 (Rp.proc_min_minor p))
    [ Rp.Proc_dom_set_policy; Rp.Proc_dom_get_policy; Rp.Proc_daemon_reconcile_status ];
  (* v1.4 numbers must not have moved. *)
  Alcotest.(check int) "deadline envelope still 49" 49
    (Rp.proc_to_int Rp.Proc_call_deadline);
  Alcotest.(check bool) "set_policy is not blindly retried" false
    (Rp.is_idempotent Rp.Proc_dom_set_policy);
  Alcotest.(check bool) "get_policy is retryable" true
    (Rp.is_idempotent Rp.Proc_dom_get_policy)

let test_policy_codec_roundtrip () =
  List.iter
    (fun p ->
      let name = "dom-x" in
      Alcotest.(check bool) "set_policy roundtrip" true
        (Rp.dec_set_policy (Rp.enc_set_policy name p) = (name, p));
      Alcotest.(check bool) "policy roundtrip" true
        (Rp.dec_policy (Rp.enc_policy p) = p))
    [
      Dompolicy.default;
      policy ~boot:Dompolicy.Boot_start ~shut:Dompolicy.Shut_suspend
        ~run:Dompolicy.Rs_running ();
      policy ~shut:Dompolicy.Shut_shutdown ~run:Dompolicy.Rs_stopped ();
    ]

(* --- live daemon: policy over the wire ------------------------------------- *)

let test_policy_over_remote () =
  with_daemon (fun daemon _ ->
      let node = fresh_name "polnode" in
      let conn = vok (Connect.open_uri (remote_uri ~daemon node)) in
      let cfg = Vmm.Vm_config.make ~memory_kib:(8 * 1024) "pol-dom" in
      let dom =
        vok (Domain.define_xml conn (Vmm.Domxml.to_xml ~virt_type:"test" cfg))
      in
      (* Defaults until declared. *)
      Alcotest.(check string) "default policy"
        (Dompolicy.to_string Dompolicy.default)
        (Dompolicy.to_string (vok (Domain.get_policy dom)));
      let p = policy ~run:Dompolicy.Rs_running () in
      vok (Domain.set_policy dom p);
      Alcotest.(check string) "declared policy read back"
        (Dompolicy.to_string p)
        (Dompolicy.to_string (vok (Domain.get_policy dom)));
      (* The daemon-side reconciler converges the declared spec: the
         domain was defined shut off, the loop must start it. *)
      let deadline = Unix.gettimeofday () +. 5. in
      let rec wait () =
        let info = vok (Domain.get_info dom) in
        if Vmm.Vm_state.is_active info.Ovirt.Driver.di_state then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.fail "reconciler never started the domain"
        else begin
          Thread.delay 0.05;
          wait ()
        end
      in
      wait ();
      Connect.close conn)

let test_admin_reconcile_status () =
  with_daemon (fun daemon _ ->
      let node = fresh_name "adnode" in
      let conn = vok (Connect.open_uri (remote_uri ~daemon node)) in
      let cfg = Vmm.Vm_config.make ~memory_kib:(8 * 1024) "ad-dom" in
      let dom =
        vok (Domain.define_xml conn (Vmm.Domxml.to_xml ~virt_type:"test" cfg))
      in
      vok (Domain.set_policy dom (policy ~run:Dompolicy.Rs_running ()));
      let admin = vok (Ovirt.Admin_client.connect ~daemon ()) in
      let deadline = Unix.gettimeofday () +. 5. in
      let rec wait () =
        let summary, _ = vok (Ovirt.Admin_client.reconcile_status admin) in
        if summary.Reconcile.sum_converged = 1 then summary
        else if Unix.gettimeofday () > deadline then
          Alcotest.failf "never converged (specs=%d pending=%d)"
            summary.Reconcile.sum_specs summary.Reconcile.sum_pending
        else begin
          Thread.delay 0.05;
          wait ()
        end
      in
      let summary = wait () in
      Alcotest.(check int) "one spec" 1 summary.Reconcile.sum_specs;
      let _, rows = vok (Ovirt.Admin_client.reconcile_status admin) in
      (match rows with
       | [ r ] ->
         Alcotest.(check string) "row names the domain" "ad-dom"
           r.Reconcile.ds_name;
         Alcotest.(check bool) "row converged" true
           (r.Reconcile.ds_status = Reconcile.St_converged)
       | rows -> Alcotest.failf "expected one row, got %d" (List.length rows));
      Ovirt.Admin_client.close admin;
      Connect.close conn)

(* --- live daemon: old daemons reject the new procedures -------------------- *)

let v14_config = { quiet_config with Daemon_config.proto_minor = 4 }

let test_v14_daemon_rejects_policy_procs () =
  with_daemon ~config:v14_config (fun daemon _ ->
      let node = fresh_name "oldnode" in
      let conn = vok (Connect.open_uri (remote_uri ~daemon node)) in
      let cfg = Vmm.Vm_config.make ~memory_kib:(8 * 1024) "old-dom" in
      let dom =
        vok (Domain.define_xml conn (Vmm.Domxml.to_xml ~virt_type:"test" cfg))
      in
      (* Byte-identical to an unknown procedure number: the pinned daemon
         is indistinguishable from a build that predates v1.5. *)
      (match Domain.set_policy dom Dompolicy.default with
       | Ok () -> Alcotest.fail "v1.4 daemon accepted set_policy"
       | Error e ->
         Alcotest.(check string) "same wording as unknown"
           (Printf.sprintf "unknown remote procedure %d"
              (Rp.proc_to_int Rp.Proc_dom_set_policy))
           e.Verror.message);
      expect_verr Verror.Rpc_failure (Domain.get_policy dom);
      Connect.close conn)

(* --- loop thread ------------------------------------------------------------ *)

(* The loop sleeps on a condition, not a poll: with a 30 s interval a
   kick still runs a pass at once, and [stop] does not wait out the
   interval. *)
let test_loop_wakes_on_kick_and_stop () =
  let uri = "test://loop/" in
  let key = (uri, "guest") in
  let w = make_world [ (key, Vm_state.Shutoff) ] in
  let path = fresh_name "rj" in
  let config = { test_config with Reconcile.rcfg_interval_s = 30. } in
  (* Declare through a first incarnation, so the loop under test starts
     with no kick pending. *)
  Reconcile.set_policy (engine ~config ~path w) ~uri ~name:"guest"
    (policy ~run:Dompolicy.Rs_running ());
  let t = engine ~config ~path w in
  Reconcile.start t;
  Fun.protect
    ~finally:(fun () -> Reconcile.stop t)
    (fun () ->
      Alcotest.(check bool) "first pass starts the guest" true
        (eventually (fun () -> applies_for w key = 1));
      (* The guest goes down behind the engine's back; only a kick can
         bring the next pass forward. *)
      Mutex.lock w.wm;
      Hashtbl.replace w.tbl key Vm_state.Shutoff;
      Mutex.unlock w.wm;
      Reconcile.kick t;
      Alcotest.(check bool) "kick runs a pass within 200 ms" true
        (eventually ~timeout_s:0.2 (fun () -> applies_for w key = 2));
      let t0 = Unix.gettimeofday () in
      Reconcile.stop t;
      Alcotest.(check bool) "stop returns within 100 ms" true
        (Unix.gettimeofday () -. t0 < 0.1))

(* --- suite ----------------------------------------------------------------- *)

let () =
  Alcotest.run "reconcile"
    [
      ( "engine",
        [
          quick "policy persistence across incarnations" test_policy_persistence;
          quick "convergence plans minimal ops" test_convergence;
          quick "on_boot is a boot-time rule" test_on_boot_semantics;
          quick "failing domain never wedges the fleet" test_failing_domain_isolated;
          quick "backoff gates retries" test_backoff_gates_retries;
          quick "compaction keeps the live set" test_journal_compaction;
          quick "loop wakes on kick and stop" test_loop_wakes_on_kick_and_stop;
        ] );
      ( "crash chaos",
        [
          quick "kill between apply and checkpoint: exactly once"
            test_crash_resume_exactly_once;
          quick "kill after plan journaled: full resume"
            test_crash_before_apply_resumes_all;
          quick "drain plans abandoned at boot" test_shutdown_pass_and_abandonment;
        ] );
      ( "protocol",
        [
          quick "v1.5 numbers stable" test_v15_numbers_stable;
          quick "policy codec roundtrip" test_policy_codec_roundtrip;
        ] );
      ( "live daemon",
        [
          quick "policy over the remote program" test_policy_over_remote;
          quick "reconcile-status over the admin program"
            test_admin_reconcile_status;
          quick "v1.4 daemon rejects policy procs"
            test_v14_daemon_rejects_policy_procs;
        ] );
    ]
