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
module Remote_service = Ovirt.Remote_service
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
      (Xdr.decode Rp.deadline_call (Xdr.encode Rp.deadline_call (budget, proc, body))
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
    (Result.map (Xdr.decode Rp.open_.Rp.sg_ret)
       (raw_call client Rp.Proc_open
          (Rp.enc_string_body (Printf.sprintf "test://%s/" (fresh_name "wire")))))

let envelope ?(budget_ms = 5000) proc body =
  Xdr.encode Rp.deadline_call (budget_ms, Rp.proc_to_int proc, body)

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
        Xdr.encode Rp.batch_call
          [ (Rp.proc_to_int Rp.Proc_call_deadline, envelope Rp.Proc_echo "x") ]
      in
      (match Xdr.decode Rp.batch_reply (vok (raw_call client Rp.Proc_call_batch batch)) with
       | [ (false, body) ] ->
         Alcotest.(check bool) "envelope-in-batch refused" true
           ((Xdr.decode Rp.error body).Verror.code = Verror.Rpc_failure)
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

(* An envelope is classed by its inner call: with the single ordinary
   worker wedged, an enveloped [list_domains] (a high-priority pool job)
   is answered by the priority worker, with the bare call's bytes.  An
   envelope whose body does not decode is answered "malformed call body",
   and the connection serves on. *)
let test_envelope_priority_and_malformed () =
  with_daemon ~config:one_worker_config (fun daemon _ ->
      let node = fresh_name "envprio" in
      let direct = vok (Connect.open_uri (Printf.sprintf "test://%s/" node)) in
      set_latency node 600_000;
      let plain = vok (Connect.open_uri (remote_uri ~params:"&cache=0" ~daemon node)) in
      let dom = vok (Domain.lookup_by_name plain "test") in
      let client = raw_client daemon in
      raw_open client;
      let no_args = Xdr.encode Rp.list_domains.Rp.sg_args () in
      let bare = vok (raw_call client Rp.Proc_list_domains no_args) in
      with_pool daemon (fun srv ->
          let write_done = Atomic.make false in
          let wedge =
            wedge_on srv (fun () ->
                Thread.create
                  (fun () ->
                    ignore (Domain.suspend dom);
                    Atomic.set write_done true)
                  ())
          in
          let wrapped =
            vok (raw_call client Rp.Proc_call_deadline (envelope Rp.Proc_list_domains no_args))
          in
          Alcotest.(check bool) "answered while the worker is wedged" false
            (Atomic.get write_done);
          Alcotest.(check string) "the bare call's reply" bare wrapped;
          Thread.join wedge);
      (match raw_call client Rp.Proc_call_deadline "\x00\x00" with
       | Ok _ -> Alcotest.fail "malformed envelope accepted"
       | Error e ->
         Alcotest.(check bool) "rpc_failure" true (e.Verror.code = Verror.Rpc_failure);
         Alcotest.(check bool)
           (Printf.sprintf "says malformed (got %S)" e.Verror.message)
           true
           (contains e.Verror.message "malformed call body"));
      Alcotest.(check string) "the connection serves on" "next"
        (vok (raw_call client Rp.Proc_echo "next"));
      Rpc_client.close client;
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

(* --- reads on the receiving thread ------------------------------------------ *)

(* A read whose node lock a writer holds must not wait for it on the
   receiving thread, which here (one reactor loop) serves every
   connection: it falls back to the pool at once and is answered after
   the write, while a ping on a third connection is answered during the
   write.  The pool has a spare priority worker for the ping. *)
let test_inline_read_never_waits_for_lock () =
  let config =
    {
      one_worker_config with
      Daemon_config.prio_workers = 2;
      reactor_threads = 1;
    }
  in
  with_daemon ~config (fun daemon d ->
      let node = fresh_name "inlock" in
      let direct = vok (Connect.open_uri (Printf.sprintf "test://%s/" node)) in
      ignore (define_and_start direct ~virt_type:"test" ~name:"held" ());
      let open_remote () =
        vok (Connect.open_uri (remote_uri ~params:"&cache=0" ~daemon node))
      in
      let writer = open_remote () and reader = open_remote () in
      let wdom = vok (Domain.lookup_by_name writer "held") in
      let rdom = vok (Domain.lookup_by_name reader "held") in
      let pinger = raw_client daemon in
      set_latency node 600_000;
      with_pool daemon (fun srv ->
          let write_done = Atomic.make false in
          let wthread =
            wedge_on srv (fun () ->
                Thread.create
                  (fun () ->
                    ignore (Domain.suspend wdom);
                    Atomic.set write_done true)
                  ())
          in
          (* The worker took the suspend up; let it reach the lock. *)
          Thread.delay 0.02;
          let before = Daemon.run_stats d in
          let read = ref None in
          let rthread = Thread.create (fun () -> read := Some (Domain.get_info rdom)) () in
          Alcotest.(check bool) "the read fell back while the write held the lock" true
            (eventually ~timeout_s:0.3 (fun () ->
                 (Daemon.run_stats d).Remote_service.inline_fallbacks
                 > before.Remote_service.inline_fallbacks));
          let t0 = Unix.gettimeofday () in
          ignore (vok (raw_call pinger Rp.Proc_ping ""));
          let ping_ms = (Unix.gettimeofday () -. t0) *. 1000. in
          Alcotest.(check bool)
            (Printf.sprintf "ping answered during the write (%.1f ms)" ping_ms)
            true
            (ping_ms < 200. && not (Atomic.get write_done));
          Alcotest.(check bool) "the read waits for the write" true (!read = None);
          Thread.join wthread;
          Thread.join rthread;
          (match !read with
           | Some (Ok info) ->
             Alcotest.(check bool) "the read sees the write" true
               (info.Driver.di_state = Vm_state.Paused)
           | Some (Error e) -> Alcotest.failf "read failed: %s" (Verror.to_string e)
           | None -> Alcotest.fail "read never returned");
          let after = Daemon.run_stats d in
          Alcotest.(check int) "not run inline" before.Remote_service.inline_runs
            after.Remote_service.inline_runs);
      Rpc_client.close pinger;
      List.iter Connect.close [ reader; writer; direct ])

(* Simulated hypervisor time is a wait: on a latency node every read is a
   pool job, so concurrent readers still overlap their waits. *)
let test_latency_reads_are_pool_jobs () =
  with_daemon (fun daemon d ->
      let node = fresh_name "latreads" in
      let direct = vok (Connect.open_uri (Printf.sprintf "test://%s/" node)) in
      let names = List.init 3 (fun i -> Printf.sprintf "lat%d" i) in
      List.iter (fun n -> ignore (define_and_start direct ~virt_type:"test" ~name:n ())) names;
      let remote = vok (Connect.open_uri (remote_uri ~params:"&cache=0" ~daemon node)) in
      let doms = List.map (fun n -> vok (Domain.lookup_by_name remote n)) names in
      set_latency node 1_000;
      with_pool daemon (fun srv ->
          let done0 = (vok (Admin.pool_stats srv)).Admin.ps_jobs_done in
          let s0 = Daemon.run_stats d in
          List.iter (fun dom -> ignore (vok (Domain.get_info dom))) doms;
          let s1 = Daemon.run_stats d in
          let done1 = (vok (Admin.pool_stats srv)).Admin.ps_jobs_done in
          let delta f = f s1 - f s0 in
          Alcotest.(check int) "no read ran inline" 0
            (delta (fun s -> s.Remote_service.inline_runs));
          Alcotest.(check int) "each read fell back" 3
            (delta (fun s -> s.Remote_service.inline_fallbacks));
          Alcotest.(check int) "each read ran in the pool" 3
            (delta (fun s -> s.Remote_service.pool_runs));
          Alcotest.(check bool)
            (Printf.sprintf "reads were pool jobs (%d jobs)" (done1 - done0))
            true
            (done1 - done0 >= 3));
      List.iter Connect.close [ remote; direct ])

(* While a job is queued, an arriving read is not run on the receiving
   thread, though it could run there without waiting: it is queued
   behind the job and answered after it. *)
let test_inline_read_does_not_overtake () =
  let config = { one_worker_config with Daemon_config.prio_workers = 0 } in
  with_daemon ~config (fun daemon d ->
      let slow = fresh_name "ovtslow" and fast = fresh_name "ovtfast" in
      let dslow = vok (Connect.open_uri (Printf.sprintf "test://%s/" slow)) in
      let dfast = vok (Connect.open_uri (Printf.sprintf "test://%s/" fast)) in
      ignore (define_and_start dslow ~virt_type:"test" ~name:"wedge" ());
      ignore (define_and_start dfast ~virt_type:"test" ~name:"free" ());
      let open_remote node =
        vok (Connect.open_uri (remote_uri ~params:"&cache=0" ~daemon node))
      in
      let cwedge = open_remote slow and cqueued = open_remote slow and cread = open_remote fast in
      let wdom = vok (Domain.lookup_by_name cwedge "wedge") in
      let qdom = vok (Domain.lookup_by_name cqueued "wedge") in
      let rdom = vok (Domain.lookup_by_name cread "free") in
      set_latency slow 300_000;
      with_pool daemon (fun srv ->
          let wedge =
            wedge_on srv (fun () ->
                Thread.create (fun () -> ignore (Domain.suspend wdom)) ())
          in
          (* A read of the wedged node cannot run inline: it waits in the
             queue. *)
          let queued = Thread.create (fun () -> ignore (Domain.get_info qdom)) () in
          Alcotest.(check bool) "a job is queued" true
            (eventually (fun () ->
                 (vok (Admin.threadpool_info srv)).Admin.tp_job_queue_depth = 1));
          let s0 = Daemon.run_stats d in
          let info = vok (Domain.get_info rdom) in
          let s1 = Daemon.run_stats d in
          Thread.join wedge;
          Thread.join queued;
          Alcotest.(check bool) "the read is current" true
            (info.Driver.di_state = Vm_state.Running);
          let delta f = f s1 - f s0 in
          Alcotest.(check int) "not run inline" 0
            (delta (fun s -> s.Remote_service.inline_runs));
          (* One worker: both reads ran in the pool, the queued one first. *)
          Alcotest.(check int) "answered after the queued read" 2
            (delta (fun s -> s.Remote_service.pool_runs)));
      List.iter Connect.close [ cread; cqueued; cwedge; dfast; dslow ])

(* Point reads never use the reply cache, so turning it off keeps none
   of them off the receiving thread: on a [replycache=0] connection and
   on a daemon started with [reply_cache = 0] alike, every point read of
   an idle local node runs inline. *)
let test_inline_reads_without_reply_cache () =
  let reads_inline ~what ~config ~params =
    with_daemon ~config (fun daemon d ->
        let node = fresh_name "nocache" in
        let remote =
          vok (Connect.open_uri (remote_uri ~params:("&cache=0" ^ params) ~daemon node))
        in
        let dom = vok (Domain.lookup_by_name remote "test") in
        let s0 = Daemon.run_stats d in
        for _ = 1 to 3 do
          ignore (vok (Domain.get_info dom));
          ignore (vok (Domain.xml_desc dom))
        done;
        let s1 = Daemon.run_stats d in
        let delta f = f s1 - f s0 in
        Alcotest.(check int) (what ^ ": every read ran inline") 6
          (delta (fun s -> s.Remote_service.inline_runs));
        Alcotest.(check int) (what ^ ": none ran in the pool") 0
          (delta (fun s -> s.Remote_service.pool_runs));
        Connect.close remote)
  in
  reads_inline ~what:"replycache=0 connection" ~config:quiet_config ~params:"&replycache=0";
  reads_inline ~what:"reply_cache = 0 daemon"
    ~config:{ quiet_config with Daemon_config.reply_cache = 0 }
    ~params:""

(* An envelope's inner call takes the route the bare call takes: on an
   idle local node an enveloped [dom_get_info] runs on the receiving
   thread, and an enveloped [dom_list_all] after a fill is a reply-cache
   hit; each reply is the bare call's. *)
let test_envelope_routes_like_bare_call () =
  with_daemon (fun daemon d ->
      let client = raw_client daemon in
      raw_open client;
      let wrapped proc body = vok (raw_call client Rp.Proc_call_deadline (envelope proc body)) in
      let info_args = Xdr.encode Rp.dom_get_info.Rp.sg_args "test" in
      let bare_info = vok (raw_call client Rp.Proc_dom_get_info info_args) in
      let s0 = Daemon.run_stats d in
      let info = wrapped Rp.Proc_dom_get_info info_args in
      let s1 = Daemon.run_stats d in
      let delta f = f s1 - f s0 in
      Alcotest.(check string) "info: the bare call's reply" bare_info info;
      Alcotest.(check (list int)) "info: inline runs, pool runs" [ 1; 0 ]
        [
          delta (fun s -> s.Remote_service.inline_runs);
          delta (fun s -> s.Remote_service.pool_runs);
        ];
      let list_args = Xdr.encode Rp.dom_list_all.Rp.sg_args () in
      let bare_listing = vok (raw_call client Rp.Proc_dom_list_all list_args) in
      let admin = vok (Admin.connect ~daemon ()) in
      let hits () = (vok (Admin.reply_cache_stats admin)).Admin.rc_hits in
      let h0 = hits () in
      let listing = wrapped Rp.Proc_dom_list_all list_args in
      Alcotest.(check int) "listing: one reply-cache hit" (h0 + 1) (hits ());
      Alcotest.(check string) "listing: the bare call's reply" bare_listing listing;
      Admin.close admin;
      Rpc_client.close client)

(* --- writes on the receiving thread ----------------------------------------- *)

(* A driver whose domain writes the daemon may run inline: its direct
   and daemon URIs for a node, its journal, and the domain shape it
   takes.  ESX is not here: its node lock cannot be held from outside,
   and its writes keep no journal and emit no event. *)
type write_driver = {
  wd_label : string;
  wd_direct : string -> string;
  wd_remote : daemon:string -> string -> string;
  wd_journal : string -> string;
  wd_virt_type : string;
  wd_os : Vmm.Vm_config.os_kind;
}

let write_drivers =
  let drv label ~direct ~remote virt_type os =
    {
      wd_label = label;
      wd_direct = (fun node -> Printf.sprintf direct node);
      wd_remote =
        (fun ~daemon node -> Printf.sprintf remote node ^ "?daemon=" ^ daemon ^ "&cache=0");
      wd_journal = (fun node -> Printf.sprintf "/var/lib/ovirt/%s/%s.journal" label node);
      wd_virt_type = virt_type;
      wd_os = os;
    }
  in
  [
    drv "test" ~direct:"test://%s/" ~remote:"test+unix://%s/" "test" Vmm.Vm_config.Hvm;
    drv "qemu" ~direct:"qemu://%s/system" ~remote:"qemu+unix://%s/system" "kvm"
      Vmm.Vm_config.Hvm;
    drv "xen" ~direct:"xen://%s/" ~remote:"xen+unix://%s/" "xen" Vmm.Vm_config.Paravirt;
    drv "lxc" ~direct:"lxc://%s/" ~remote:"lxc+unix://%s/" "lxc"
      Vmm.Vm_config.Container_exe;
  ]

let domain_xml wd name =
  Vmm.Domxml.to_xml ~virt_type:wd.wd_virt_type
    (Vmm.Vm_config.make ~os:wd.wd_os ~memory_kib:(16 * 1024) name)

(* Every [Inline] domain write, in an order in which each succeeds.  A
   step looks its domain up when given the connection, and writes when
   then called. *)
let write_steps wd name =
  let on f conn =
    let dom = Domain.lookup_by_name conn name in
    fun () -> Result.bind dom f
  in
  [
    ( "define_xml",
      fun conn () -> Result.map ignore (Domain.define_xml conn (domain_xml wd name)) );
    ("set_autostart", on (fun d -> Domain.set_autostart d true));
    ("create", on Domain.create);
    ("set_memory", on (fun d -> Domain.set_memory d (8 * 1024)));
    ("suspend", on Domain.suspend);
    ("resume", on Domain.resume);
    ("shutdown", on Domain.shutdown);
    ("create", on Domain.create);
    ("destroy", on Domain.destroy);
    ("undefine", on Domain.undefine);
  ]

(* What one write did to domain [name]: its result, the journal records
   and lifecycle events it added, and the state it left, read on the
   node directly. *)
type write_effect = {
  we_ok : bool;
  we_records : int;
  we_events : string list;
  we_state : string;
}

let journal_records path name =
  match Persist.Media.read path with
  | None -> 0
  | Some _ ->
    let _, replay = Persist.Journal.open_ path in
    List.length (List.filter (fun r -> contains r name) replay.Persist.Journal.rp_records)

let domain_state direct name =
  match Domain.lookup_by_name direct name with
  | Error _ -> "undefined"
  | Ok d ->
    let info = vok (Domain.get_info d) in
    Printf.sprintf "%s mem=%d autostart=%s"
      (Vm_state.state_name info.Driver.di_state)
      info.Driver.di_memory_kib
      (match Domain.get_autostart d with
       | Ok b -> string_of_bool b
       | Error e -> Verror.to_string e)

(* A direct connection to a fresh node of [wd], with a subscriber that
   records the target's events and, while [hold] is armed, blocks the
   holder's define inside its write section: the node's write lock is
   then held elsewhere until [release]. *)
type write_node = {
  wn_node : string;
  wn_direct : Connect.t;
  wn_events : string list ref;
  wn_mutex : Mutex.t;
  wn_held : bool Atomic.t;
  wn_release : bool Atomic.t;
}

let write_node wd name =
  let node = fresh_name "wnode" in
  let direct = vok (Connect.open_uri (wd.wd_direct node)) in
  let wn =
    {
      wn_node = node;
      wn_direct = direct;
      wn_events = ref [];
      wn_mutex = Mutex.create ();
      wn_held = Atomic.make false;
      wn_release = Atomic.make false;
    }
  in
  ignore
    (vok
       (Connect.subscribe_events direct (fun ev ->
            if ev.Ovirt.Events.domain_name = name then
              Mutex.protect wn.wn_mutex (fun () ->
                  wn.wn_events :=
                    Ovirt.Events.lifecycle_name ev.Ovirt.Events.lifecycle :: !(wn.wn_events))
            else if contains ev.Ovirt.Events.domain_name "holder" then begin
              Atomic.set wn.wn_held true;
              ignore (eventually ~timeout_s:5. (fun () -> Atomic.get wn.wn_release))
            end))
      : Ovirt.Events.subscription);
  wn

let observe wd wn name run =
  let events () = Mutex.protect wn.wn_mutex (fun () -> List.length !(wn.wn_events)) in
  let r0 = journal_records (wd.wd_journal wn.wn_node) name and e0 = events () in
  let ok = Result.is_ok (run ()) in
  let added = events () - e0 in
  {
    we_ok = ok;
    we_records = journal_records (wd.wd_journal wn.wn_node) name - r0;
    we_events =
      Mutex.protect wn.wn_mutex (fun () -> List.rev (List.filteri (fun i _ -> i < added) !(wn.wn_events)));
    we_state = domain_state wn.wn_direct name;
  }

let show_effect e =
  Printf.sprintf "%s, %d records, events [%s], %s"
    (if e.we_ok then "ok" else "failed")
    e.we_records (String.concat " " e.we_events) e.we_state

(* The effects of every step run once, directly on a node of its own:
   what any daemon run must reproduce. *)
let reference_effects wd =
  let name = fresh_name "wtgt" in
  let wn = write_node wd name in
  let effects =
    List.map (fun (_, step) -> observe wd wn name (step wn.wn_direct)) (write_steps wd name)
  in
  Connect.close wn.wn_direct;
  effects

(* Every [Inline] domain write, on each driver, reaches the daemon while
   another thread holds the node's write lock (a direct define whose
   event subscriber blocks inside the write section).  The inline attempt
   gives up at the lock and the write runs in the pool after the holder
   releases it: once — the same result, journal records, events and end
   state as a single direct run. *)
let test_inline_writes_fall_back_once () =
  with_daemon (fun daemon d ->
      List.iter
        (fun wd ->
          let reference = reference_effects wd in
          let name = fresh_name "wtgt" in
          let wn = write_node wd name in
          let remote = vok (Connect.open_uri (wd.wd_remote ~daemon wn.wn_node)) in
          List.iteri
            (fun i ((what, step), want) ->
              let what = Printf.sprintf "%s %s (step %d)" wd.wd_label what i in
              let write = step remote in
              Atomic.set wn.wn_held false;
              Atomic.set wn.wn_release false;
              let holder =
                Thread.create
                  (fun () ->
                    ignore
                      (Domain.define_xml wn.wn_direct
                         (domain_xml wd (Printf.sprintf "holder%d" i))))
                  ()
              in
              Alcotest.(check bool) (what ^ ": lock held") true
                (eventually (fun () -> Atomic.get wn.wn_held));
              let s0 = Daemon.run_stats d in
              let got =
                observe wd wn name (fun () ->
                    let result = ref None in
                    let writer = Thread.create (fun () -> result := Some (write ())) () in
                    Alcotest.(check bool) (what ^ ": the inline attempt fell back") true
                      (eventually (fun () ->
                           (Daemon.run_stats d).Remote_service.inline_fallbacks
                           > s0.Remote_service.inline_fallbacks));
                    Alcotest.(check bool) (what ^ ": not run while the lock is held") true
                      (!result = None);
                    Atomic.set wn.wn_release true;
                    Thread.join writer;
                    Thread.join holder;
                    Option.get !result)
              in
              let s1 = Daemon.run_stats d in
              let delta f = f s1 - f s0 in
              Alcotest.(check string) (what ^ ": one run's effect") (show_effect want)
                (show_effect got);
              Alcotest.(check (list int)) (what ^ ": one fallback, no read counted, no inline run")
                [ 1; 0; 0 ]
                [
                  delta (fun s -> s.Remote_service.inline_fallbacks);
                  delta (fun s -> s.Remote_service.pool_runs);
                  delta (fun s -> s.Remote_service.inline_runs);
                ])
            (List.combine (write_steps wd name) reference);
          Connect.close remote;
          Connect.close wn.wn_direct)
        write_drivers)

(* The same writes on a [latency_us] test node: the ones that spend
   simulated hypervisor time (suspend, resume, destroy) give up before
   it and run in the pool; the rest run inline.  Either way once. *)
let test_inline_writes_on_latency_node () =
  with_daemon (fun daemon d ->
      let wd = List.hd write_drivers in
      let reference = reference_effects wd in
      let name = fresh_name "wtgt" in
      let wn = write_node wd name in
      set_latency wn.wn_node 2_000;
      let remote = vok (Connect.open_uri (wd.wd_remote ~daemon wn.wn_node)) in
      List.iteri
        (fun i ((op, step), want) ->
          let what = Printf.sprintf "%s (step %d)" op i in
          let waits = List.mem op [ "suspend"; "resume"; "destroy" ] in
          let write = step remote in
          let s0 = Daemon.run_stats d in
          let got = observe wd wn name write in
          let s1 = Daemon.run_stats d in
          let delta f = f s1 - f s0 in
          Alcotest.(check string) (what ^ ": one run's effect") (show_effect want)
            (show_effect got);
          Alcotest.(check (list int)) (what ^ ": fallbacks, pool runs, inline runs")
            (if waits then [ 1; 0; 0 ] else [ 0; 0; 1 ])
            [
              delta (fun s -> s.Remote_service.inline_fallbacks);
              delta (fun s -> s.Remote_service.pool_runs);
              delta (fun s -> s.Remote_service.inline_runs);
            ])
        (List.combine (write_steps wd name) reference);
      Connect.close remote;
      Connect.close wn.wn_direct)

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
          quick "an envelope skips a wedged worker; a malformed one is refused"
            test_envelope_priority_and_malformed;
          quick "admission control sheds with retry-after"
            test_admission_control_sheds;
          quick "circuit breaker opens and recovers"
            test_breaker_opens_and_recovers;
          quick "watchdog restores capacity" test_watchdog_restores_capacity;
        ] );
      ( "inline",
        [
          quick "a held lock sends the read to the pool"
            test_inline_read_never_waits_for_lock;
          quick "latency reads are pool jobs" test_latency_reads_are_pool_jobs;
          quick "a queued job is not overtaken" test_inline_read_does_not_overtake;
          quick "cache-off reads run inline"
            test_inline_reads_without_reply_cache;
          quick "an enveloped call takes the bare call's route"
            test_envelope_routes_like_bare_call;
          quick "held-lock writes fall back and run once"
            test_inline_writes_fall_back_once;
          quick "latency-node writes run once" test_inline_writes_on_latency_node;
        ] );
    ]
