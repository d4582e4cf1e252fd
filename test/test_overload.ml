(* Overload protection, end to end: v1.4 deadline envelopes on the wire
   (including rejection by minor-pinned daemons, byte-identical to a
   pre-v1.4 build), queue-expiry of deadlined calls, admission-control
   shedding with [Overloaded]/retry-after surfaced to the remote driver,
   the client-side circuit breaker, and the stuck-worker watchdog
   restoring pool capacity under a wedged "hypervisor". *)

open Testutil
module Verror = Ovirt.Verror
module Connect = Ovirt.Connect
module Domain = Ovirt.Domain
module Driver = Ovirt.Driver
module Daemon = Ovirt.Daemon
module Daemon_config = Ovirt.Daemon_config
module Admin = Ovirt.Admin_client
module Vm_state = Vmm.Vm_state
module Transport = Ovnet.Transport
module Rp = Protocol.Remote_protocol

let () = Ovirt.initialize ()

let quiet_config =
  {
    Daemon_config.default with
    Daemon_config.log_outputs = [ { Vlog.min_priority = Vlog.Debug; sink = Vlog.Null } ];
  }

let with_daemon ?(config = quiet_config) f =
  let name = fresh_name "ovld" in
  let daemon = Daemon.start ~name ~config () in
  Fun.protect ~finally:(fun () -> Daemon.stop daemon) (fun () -> f name daemon)

let remote_uri ?(params = "") ~daemon node =
  Printf.sprintf "test+unix://%s/?daemon=%s%s" node daemon params

(* The mgmt pool of [daemon], for counter/limit assertions. *)
let with_pool daemon f =
  let admin = vok (Admin.connect ~daemon ()) in
  Fun.protect
    ~finally:(fun () -> Admin.close admin)
    (fun () -> f (vok (Admin.lookup_server admin "libvirtd")))

(* Slow ops: flip the node's simulated hypervisor latency on (the knob
   is sticky on the node, set from any open that carries the param). *)
let set_latency node us =
  Connect.close
    (vok (Connect.open_uri (Printf.sprintf "test://%s/?latency_us=%d" node us)))

(* --- protocol surface ------------------------------------------------------ *)

let test_v14_numbers_stable () =
  Alcotest.(check int) "build minor" 8 Rp.minor;
  Alcotest.(check int) "deadline envelope is 49" 49
    (Rp.proc_to_int Rp.Proc_call_deadline);
  Alcotest.(check int) "needs minor 4" 4 (Rp.proc_min_minor Rp.Proc_call_deadline);
  (* The v1.3 numbers must not have moved. *)
  Alcotest.(check int) "vol_lookup still 48" 48 (Rp.proc_to_int Rp.Proc_vol_lookup)

let test_deadline_codec_roundtrip () =
  let check_rt budget proc body =
    Alcotest.(check bool)
      (Printf.sprintf "roundtrip %d/%d" budget proc)
      true
      (Rp.dec_deadline_call (Rp.enc_deadline_call ~budget_ms:budget ~proc body)
      = (budget, proc, body))
  in
  check_rt 1500 38 "x";
  check_rt 1 49 "";
  check_rt 600000 12 (String.make 4096 'b')

(* --- wire compatibility ---------------------------------------------------- *)

let raw_client daemon =
  match
    Rpc_client.connect ~address:(daemon ^ "-sock") ~kind:Transport.Unix_sock
      ~program:Rp.program ~version:Rp.version ()
  with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect: %s" (Verror.to_string e)

let raw_call client proc body =
  Rpc_client.call client ~procedure:(Rp.proc_to_int proc) ~body ()

let raw_open client =
  vok
    (Result.map Rp.dec_unit_body
       (raw_call client Rp.Proc_open
          (Rp.enc_string_body (Printf.sprintf "test://%s/" (fresh_name "wire")))))

let envelope ?(budget_ms = 5000) proc body =
  Rp.enc_deadline_call ~budget_ms ~proc:(Rp.proc_to_int proc) body

let test_old_daemons_reject_deadline_proc () =
  (* A v1.2 or v1.3 daemon must answer the deadline envelope exactly like
     a build that predates it: same code, same wording as any unknown
     procedure number. *)
  List.iter
    (fun minor ->
      let config = { quiet_config with Daemon_config.proto_minor = minor } in
      with_daemon ~config (fun daemon _ ->
          let client = raw_client daemon in
          raw_open client;
          (match raw_call client Rp.Proc_call_deadline (envelope Rp.Proc_echo "hi") with
           | Ok _ -> Alcotest.failf "v1.%d daemon accepted the envelope" minor
           | Error e ->
             Alcotest.(check bool) "rpc_failure" true
               (e.Verror.code = Verror.Rpc_failure);
             Alcotest.(check string)
               (Printf.sprintf "v1.%d wording identical to unknown proc" minor)
               (Printf.sprintf "unknown remote procedure %d"
                  (Rp.proc_to_int Rp.Proc_call_deadline))
               e.Verror.message);
          (* And the daemon is not poisoned: the next plain call works. *)
          Alcotest.(check string) "still serves" "ok"
            (vok (raw_call client Rp.Proc_echo "ok"));
          Rpc_client.close client))
    [ 2; 3 ]

let test_v14_daemon_serves_envelope () =
  with_daemon (fun daemon _ ->
      let client = raw_client daemon in
      raw_open client;
      (* The reply is the inner procedure's reply, not a wrapper. *)
      Alcotest.(check string) "unwrapped echo" "ping"
        (vok (raw_call client Rp.Proc_call_deadline (envelope Rp.Proc_echo "ping")));
      (* Envelopes do not nest. *)
      (match
         raw_call client Rp.Proc_call_deadline
           (envelope Rp.Proc_call_deadline (envelope Rp.Proc_echo "x"))
       with
       | Ok _ -> Alcotest.fail "nested envelope accepted"
       | Error e ->
         Alcotest.(check bool) "nested refused as rpc_failure" true
           (e.Verror.code = Verror.Rpc_failure));
      (* A batch cannot smuggle one past the dispatcher's peek. *)
      let batch =
        Rp.enc_batch_call
          [ (Rp.proc_to_int Rp.Proc_call_deadline, envelope Rp.Proc_echo "x") ]
      in
      (match Rp.dec_batch_reply (vok (raw_call client Rp.Proc_call_batch batch)) with
       | [ (false, body) ] ->
         Alcotest.(check bool) "envelope-in-batch refused" true
           ((Rp.dec_error body).Verror.code = Verror.Rpc_failure)
       | _ -> Alcotest.fail "envelope-in-batch not isolated");
      Rpc_client.close client)

(* --- chaos: deadlines, shedding, watchdog ---------------------------------- *)

(* One ordinary worker, one priority worker: control-plane procedures
   (opens, lookups, reads) keep flowing while the single ordinary worker
   is busy with a slow lifecycle op. *)
let one_worker_config =
  { quiet_config with Daemon_config.min_workers = 1; max_workers = 1; prio_workers = 1 }

(* Wait until the single ordinary worker has parked, run [issue], then
   wait until it has picked the resulting job up — the only moment the
   pool is observably "wedged on [issue]'s call". *)
let wedge_on srv issue =
  let parked () = (vok (Admin.threadpool_info srv)).Admin.tp_free_workers = 1 in
  Alcotest.(check bool) "worker parked" true (eventually parked);
  let t = issue () in
  let busy () =
    let i = vok (Admin.threadpool_info srv) in
    i.Admin.tp_free_workers = 0 && i.Admin.tp_job_queue_depth = 0
  in
  Alcotest.(check bool) "worker picked the slow job up" true (eventually busy);
  t

let test_deadline_expires_in_queue_e2e () =
  with_daemon ~config:one_worker_config (fun daemon _ ->
      let node = fresh_name "dlnode" in
      let direct = vok (Connect.open_uri (Printf.sprintf "test://%s/" node)) in
      let victim = fresh_name "victim" in
      let dvictim = define_and_start direct ~virt_type:"test" ~name:victim () in
      (* The wedge must outlast the 100 ms budget by a margin that holds
         even when a loaded machine delays delivery of the budgeted call
         by a scheduling quantum or three. *)
      set_latency node 600_000;
      let plain = vok (Connect.open_uri (remote_uri ~daemon node)) in
      let budgeted =
        vok (Connect.open_uri (remote_uri ~params:"&timeout=0.1" ~daemon node))
      in
      (* Every budgeted call travels as a deadline envelope; a generously
         budgeted one against an idle pool just works. *)
      let bvictim = vok (Domain.lookup_by_name budgeted victim) in
      with_pool daemon (fun srv ->
          (* Wedge the worker on a 250 ms suspend of the seeded domain... *)
          let wedge =
            wedge_on srv (fun () ->
                Thread.create
                  (fun () -> ignore (Domain.suspend (vok (Domain.lookup_by_name plain "test"))))
                  ())
          in
          (* ...then queue a suspend whose 100 ms budget lapses long
             before the worker frees up.  The daemon must answer
             "expired in queue" and never run the transition. *)
          (match Domain.suspend bvictim with
           | Ok () -> Alcotest.fail "expired call was executed"
           | Error e ->
             Alcotest.(check bool) "operation_failed" true
               (e.Verror.code = Verror.Operation_failed);
             Alcotest.(check bool)
               (Printf.sprintf "says expired (got %S)" e.Verror.message)
               true
               (String.length e.Verror.message >= 16
               &&
               let re = "deadline expired" in
               let rec find i =
                 if i + String.length re > String.length e.Verror.message then false
                 else if String.sub e.Verror.message i (String.length re) = re then
                   true
                 else find (i + 1)
               in
               find 0));
          Thread.join wedge;
          let ps = vok (Admin.pool_stats srv) in
          Alcotest.(check int) "one expiry counted" 1 ps.Admin.ps_jobs_expired;
          (* The strongest form of "never executed": the domain whose
             suspend expired is still running. *)
          Alcotest.(check bool) "victim untouched" true
            ((vok (Domain.get_info dvictim)).Driver.di_state = Vm_state.Running));
      Connect.close budgeted;
      Connect.close plain;
      Connect.close direct)

let test_admission_control_sheds () =
  let config = { one_worker_config with Daemon_config.job_queue_limit = 2 } in
  with_daemon ~config (fun daemon _ ->
      Drv_remote.reset_stats ();
      let node = fresh_name "shednode" in
      let direct = vok (Connect.open_uri (Printf.sprintf "test://%s/" node)) in
      let names = List.init 8 (fun i -> Printf.sprintf "storm%d" i) in
      List.iter
        (fun n -> ignore (define_and_start direct ~virt_type:"test" ~name:n ()))
        names;
      set_latency node 250_000;
      (* One connection per client so shed replies land on the caller
         that overflowed the queue, with the breaker off to observe
         every raw rejection. *)
      let conns =
        List.map
          (fun n ->
            let c =
              vok (Connect.open_uri (remote_uri ~params:"&cache=0&breaker=0" ~daemon node))
            in
            (c, vok (Domain.lookup_by_name c n)))
          names
      in
      let results = Array.make (List.length conns) (Ok ()) in
      let threads =
        List.mapi
          (fun i (_, dom) ->
            Thread.create (fun () -> results.(i) <- Domain.suspend dom) ())
          conns
      in
      List.iter Thread.join threads;
      let oks = ref 0 and sheds = ref 0 in
      Array.iter
        (function
          | Ok () -> incr oks
          | Error e when e.Verror.code = Verror.Overloaded ->
            incr sheds;
            (match Verror.retry_after_ms e with
             | Some ms -> Alcotest.(check bool) "hint positive" true (ms > 0)
             | None -> Alcotest.fail "shed reply lost its retry-after hint")
          | Error e -> Alcotest.failf "unexpected error: %s" (Verror.to_string e))
        results;
      Alcotest.(check int) "every call answered" 8 (!oks + !sheds);
      Alcotest.(check bool)
        (Printf.sprintf "queue bound forced sheds (%d ok / %d shed)" !oks !sheds)
        true
        (!sheds >= 1 && !oks >= 2);
      (* Daemon-side and client-side accounting agree with what callers saw. *)
      with_pool daemon (fun srv ->
          let ps = vok (Admin.pool_stats srv) in
          Alcotest.(check int) "daemon counted the sheds" !sheds ps.Admin.ps_jobs_shed;
          Alcotest.(check int) "limit visible" 2 ps.Admin.ps_job_queue_limit;
          Alcotest.(check bool) "bound holds" true (ps.Admin.ps_job_queue_depth <= 2));
      let st = Drv_remote.stats () in
      Alcotest.(check int) "client counted the sheds" !sheds st.Drv_remote.st_overloaded;
      Alcotest.(check int) "breaker=0 never opens" 0 st.Drv_remote.st_breaker_opens;
      (* Exactly the admitted suspends took effect — a shed is a clean
         refusal, not a half-applied op. *)
      let paused =
        List.fold_left
          (fun acc n ->
            let d = vok (Domain.lookup_by_name direct n) in
            if (vok (Domain.get_info d)).Driver.di_state = Vm_state.Paused then acc + 1
            else acc)
          0 names
      in
      Alcotest.(check int) "admitted ops applied, shed ops not" !oks paused;
      List.iter (fun (c, _) -> Connect.close c) conns;
      Connect.close direct)

let test_breaker_opens_and_recovers () =
  let config = { one_worker_config with Daemon_config.job_queue_limit = 1 } in
  with_daemon ~config (fun daemon _ ->
      Drv_remote.reset_stats ();
      let node = fresh_name "brknode" in
      let direct = vok (Connect.open_uri (Printf.sprintf "test://%s/" node)) in
      List.iter
        (fun n -> ignore (define_and_start direct ~virt_type:"test" ~name:n ()))
        [ "brk1"; "brk2"; "brk3" ];
      set_latency node 300_000;
      let plain = vok (Connect.open_uri (remote_uri ~params:"&cache=0" ~daemon node)) in
      let victim = vok (Connect.open_uri (remote_uri ~params:"&cache=0&breaker=2" ~daemon node)) in
      (* Teach the pool's job-duration EWMA that jobs are slow, so the
         advertised retry-after (= the breaker's open window) is wide
         enough to observe deterministically. *)
      let d_test = vok (Domain.lookup_by_name plain "test") in
      vok (Domain.suspend d_test);
      vok (Domain.resume d_test);
      let d1 = vok (Domain.lookup_by_name plain "brk1") in
      let d2 = vok (Domain.lookup_by_name plain "brk2") in
      let d3 = vok (Domain.lookup_by_name victim "brk3") in
      with_pool daemon (fun srv ->
          (* Occupy the worker and fill the queue (limit 1). *)
          let w1 =
            wedge_on srv (fun () ->
                Thread.create (fun () -> ignore (Domain.suspend d1)) ())
          in
          let w2 = Thread.create (fun () -> ignore (Domain.suspend d2)) () in
          let queued () =
            (vok (Admin.threadpool_info srv)).Admin.tp_job_queue_depth = 1
          in
          Alcotest.(check bool) "queue full" true (eventually queued);
          let expect_overloaded what = function
            | Ok () -> Alcotest.failf "%s: call was served" what
            | Error e ->
              Alcotest.(check bool) (what ^ " is overloaded") true
                (e.Verror.code = Verror.Overloaded)
          in
          (* Two consecutive sheds trip the k=2 breaker... *)
          expect_overloaded "first shed" (Domain.suspend d3);
          expect_overloaded "second shed" (Domain.suspend d3);
          let st = Drv_remote.stats () in
          Alcotest.(check int) "two sheds on the wire" 2 st.Drv_remote.st_overloaded;
          Alcotest.(check int) "breaker opened" 1 st.Drv_remote.st_breaker_opens;
          (* ...and the next call fails fast, locally: same error shape,
             no wire traffic. *)
          let wire_before = (Drv_remote.stats ()).Drv_remote.st_calls in
          expect_overloaded "fast fail" (Domain.suspend d3);
          let st = Drv_remote.stats () in
          Alcotest.(check int) "no wire traffic while open" wire_before
            st.Drv_remote.st_calls;
          Alcotest.(check bool) "fast fail counted" true
            (st.Drv_remote.st_breaker_fastfails >= 1);
          Thread.join w1;
          Thread.join w2);
      (* Past the retry-after window the half-open probe finds a drained
         daemon: the probe is served and the breaker closes. *)
      Thread.delay 1.0;
      vok (Domain.suspend d3);
      let st = Drv_remote.stats () in
      Alcotest.(check int) "probe served, no reopen" 1 st.Drv_remote.st_breaker_opens;
      Alcotest.(check int) "no further sheds" 2 st.Drv_remote.st_overloaded;
      vok (Domain.resume d3);
      Connect.close victim;
      Connect.close plain;
      Connect.close direct)

let test_watchdog_restores_capacity () =
  let config =
    {
      quiet_config with
      Daemon_config.min_workers = 2;
      max_workers = 2;
      prio_workers = 1;
      wall_limit_ms = 100;
    }
  in
  with_daemon ~config (fun daemon _ ->
      let fast_a = fresh_name "fast" and fast_b = fresh_name "fast" in
      let slow_node = fresh_name "slow" in
      let dslow = vok (Connect.open_uri (Printf.sprintf "test://%s/" slow_node)) in
      ignore (define_and_start dslow ~virt_type:"test" ~name:"wedge2" ());
      let remote node = vok (Connect.open_uri (remote_uri ~params:"&cache=0" ~daemon node)) in
      let rfast_a = remote fast_a and rfast_b = remote fast_b in
      let rslow = remote slow_node in
      let da = vok (Domain.lookup_by_name rfast_a "test") in
      let db = vok (Domain.lookup_by_name rfast_b "test") in
      let s1 = vok (Domain.lookup_by_name rslow "test") in
      let s2 = vok (Domain.lookup_by_name rslow "wedge2") in
      (* Healthy capacity: two callers at once, each bouncing the domain
         of its own fast node through normal-class lifecycle ops that
         wait 25 ms on the simulated hypervisor.  Overlapping them takes
         both ordinary workers, and the wait, not CPU, sets the burst's
         length, so load elsewhere on the machine barely moves it.  Best
         of three. *)
      set_latency fast_a 25_000;
      set_latency fast_b 25_000;
      let measure () =
        let bounce dom () =
          for _ = 1 to 4 do
            vok (Domain.suspend dom);
            vok (Domain.resume dom)
          done
        in
        let t0 = Unix.gettimeofday () in
        let failed = ref None in
        let other =
          Thread.create (fun () -> try bounce db () with e -> failed := Some e) ()
        in
        bounce da ();
        Thread.join other;
        Option.iter raise !failed;
        Unix.gettimeofday () -. t0
      in
      let baseline = Float.min (measure ()) (Float.min (measure ()) (measure ())) in
      (* Wedge both ordinary workers: two 500 ms lifecycle ops (the
         second spends its time waiting on the node's write lock — the
         watchdog must treat a lock-waiter past the wall limit exactly
         like a sleeper). *)
      set_latency slow_node 500_000;
      let w1 = Thread.create (fun () -> ignore (Domain.suspend s1)) () in
      let w2 = Thread.create (fun () -> ignore (Domain.suspend s2)) () in
      with_pool daemon (fun srv ->
          let written_off () =
            (vok (Admin.pool_stats srv)).Admin.ps_workers_stuck = 2
          in
          Alcotest.(check bool) "both wedged workers written off" true
            (eventually ~timeout_s:5.0 written_off);
          (* Spawned by the watchdog itself, not grown later on demand:
             the burst below would grow the pool back to two anyway. *)
          Alcotest.(check bool) "both replacements spawned" true
            (eventually (fun () ->
                 (vok (Admin.threadpool_info srv)).Admin.tp_n_workers = 2));
          (* Replacements restore healthy throughput to within 10% of the
             no-fault baseline while the originals are still wedged. *)
          let recovered () = measure () <= baseline *. 1.1 in
          Alcotest.(check bool) "healthy throughput within 10% of baseline" true
            (eventually ~timeout_s:5.0 recovered);
          Thread.join w1;
          Thread.join w2;
          (* The wedged jobs finishing retires the written-off workers:
             no capacity leak in either direction. *)
          let settled () =
            let ps = vok (Admin.pool_stats srv) in
            let i = vok (Admin.threadpool_info srv) in
            ps.Admin.ps_workers_stuck_now = 0 && i.Admin.tp_n_workers = 2
          in
          Alcotest.(check bool) "stuck workers retired, capacity exact" true
            (eventually ~timeout_s:5.0 settled);
          let ps = vok (Admin.pool_stats srv) in
          Alcotest.(check int) "exactly the two wedged written off" 2
            ps.Admin.ps_workers_stuck);
      (* The wedged suspends themselves completed (the stuck thread is
         written off, not killed). *)
      Alcotest.(check bool) "wedged ops still completed" true
        ((vok (Domain.get_info s1)).Driver.di_state = Vm_state.Paused
        && (vok (Domain.get_info s2)).Driver.di_state = Vm_state.Paused);
      Connect.close rslow;
      Connect.close rfast_a;
      Connect.close rfast_b;
      Connect.close dslow)

let () =
  Alcotest.run "overload"
    [
      ( "protocol",
        [
          quick "v1.4 numbers stable" test_v14_numbers_stable;
          quick "deadline codec roundtrip" test_deadline_codec_roundtrip;
        ] );
      ( "wire compat",
        [
          quick "v1.2/v1.3 daemons reject the envelope"
            test_old_daemons_reject_deadline_proc;
          quick "v1.4 daemon serves the envelope" test_v14_daemon_serves_envelope;
        ] );
      ( "chaos",
        [
          quick "deadline expires in queue, op never runs"
            test_deadline_expires_in_queue_e2e;
          quick "admission control sheds with retry-after"
            test_admission_control_sheds;
          quick "circuit breaker opens and recovers"
            test_breaker_opens_and_recovers;
          quick "watchdog restores capacity" test_watchdog_restores_capacity;
        ] );
    ]
