(* The connection front end spreads every connection over a small fixed
   set of readiness-driven reactor loops which share one receive-buffer
   pool; decoded calls dispatch on the servers' workerpools. *)
module Rp = Protocol.Remote_protocol

type t = {
  name : string;
  logger : Vlog.t;
  servers : (string * Server_obj.t) list;
  listeners : Ovnet.Netsim.listener list;
  reactors : Ovreactor.Reactor.t array;
  bufpool : Ovreactor.Bufpool.t;
  started_at : float;
  reconciler : Reconcile.t;
  remote : Remote_service.t;
  recon_conns : (string, Ovirt_core.Driver.ops) Hashtbl.t;
  recon_conns_mutex : Mutex.t;
  (* Lifecycle flags are only touched under [lifecycle]: stop and drain
     race from different threads (tests tear down while the admin drain
     thread runs) and must not double-close listeners or shut a pool down
     twice. *)
  lifecycle : Mutex.t;
  lifecycle_cv : Condition.t;
  mutable stopped : bool;
  mutable draining : bool;
  mutable drain_thread : Thread.t option;
      (* background drain in flight (admin-triggered); [stop] joins it so
         the drain thread never outlives the daemon's teardown *)
}

let with_lifecycle daemon f =
  Mutex.lock daemon.lifecycle;
  Fun.protect ~finally:(fun () -> Mutex.unlock daemon.lifecycle) f

(* Assumes [lifecycle] is held. *)
let stop_locked daemon =
  if not daemon.stopped then begin
    daemon.stopped <- true;
    Reconcile.stop daemon.reconciler;
    Mutex.lock daemon.recon_conns_mutex;
    Hashtbl.iter
      (fun _ ops -> try ops.Ovirt_core.Driver.close () with _ -> ())
      daemon.recon_conns;
    Hashtbl.reset daemon.recon_conns;
    Mutex.unlock daemon.recon_conns_mutex;
    List.iter Ovnet.Netsim.close_listener daemon.listeners;
    List.iter
      (fun (_, srv) ->
        Server_obj.close_all_clients srv;
        Threadpool.shutdown (Server_obj.pool srv))
      daemon.servers;
    Array.iter Ovreactor.Reactor.stop daemon.reactors;
    Vlog.logf daemon.logger ~module_:"daemon" Vlog.Info "daemon %s stopped"
      daemon.name
  end

(* A stop issued while a drain is running waits for the drain to finish
   (which itself ends in a stop), so stop keeps its synchronous meaning:
   when it returns, the daemon is down — including the background drain
   thread, which is joined (not abandoned) once draining clears. *)
let stop daemon =
  let drain_thread =
    with_lifecycle daemon (fun () ->
        while daemon.draining do
          Condition.wait daemon.lifecycle_cv daemon.lifecycle
        done;
        stop_locked daemon;
        let t = daemon.drain_thread in
        daemon.drain_thread <- None;
        t)
  in
  match drain_thread with
  | Some th when Thread.id th <> Thread.id (Thread.self ()) -> Thread.join th
  | Some _ | None -> ()

(* Simulated crash: tear down immediately, never waiting for a drain —
   in-flight work is abandoned exactly as a SIGKILL would leave it.  The
   in-memory driver state dies with the process; only what lives in
   [Persist.Media] and the hypervisor sims survives for recovery. *)
let kill daemon =
  Vlog.logf daemon.logger ~module_:"daemon" Vlog.Warn "daemon %s killed"
    daemon.name;
  with_lifecycle daemon (fun () -> stop_locked daemon)

(* Graceful shutdown: stop accepting (listeners closed, servers marked
   draining so the dispatcher refuses new calls), let every queued and
   in-flight dispatch finish, then tear down.  Only one thread gets to
   run the drain; the blocking waits happen outside the mutex. *)
let drain_impl daemon =
  let claimed =
    with_lifecycle daemon (fun () ->
        if daemon.stopped || daemon.draining then false
        else begin
          daemon.draining <- true;
          true
        end)
  in
  if claimed then begin
    Vlog.logf daemon.logger ~module_:"daemon" Vlog.Info "daemon %s draining"
      daemon.name;
    List.iter Ovnet.Netsim.close_listener daemon.listeners;
    List.iter (fun (_, srv) -> Server_obj.set_draining srv true) daemon.servers;
    (* Stop the convergence loop, then honor each spec's [on_shutdown]:
       suspend/shutdown running guests bounded by parallel_shutdown.
       These ops go through the direct dispatch path, not the (now
       draining) mgmt pool. *)
    Reconcile.stop daemon.reconciler;
    Reconcile.shutdown_pass daemon.reconciler;
    List.iter
      (fun (_, srv) -> Threadpool.drain (Server_obj.pool srv))
      daemon.servers;
    with_lifecycle daemon (fun () ->
        stop_locked daemon;
        daemon.draining <- false;
        Condition.broadcast daemon.lifecycle_cv)
  end

(* The admin program's drain: runs in the background (a synchronous
   Threadpool.drain would deadlock waiting for the very admin job that
   requested it), but the thread handle is kept so [stop] can join it. *)
let drain_background daemon =
  with_lifecycle daemon (fun () ->
      if not (daemon.stopped || daemon.draining) then
        match daemon.drain_thread with
        | Some _ -> ()
        | None ->
          daemon.drain_thread <-
            Some (Thread.create (fun () -> drain_impl daemon) ()))

let start ?(name = Rp.default_daemon) ?(config = Daemon_config.default) () =
  (match Daemon_config.validate config with
  | Ok _ -> ()
  | Error msg -> invalid_arg ("Daemon.start: " ^ msg));
  let logger =
    Vlog.create ~level:config.Daemon_config.log_level
      ~filters:config.Daemon_config.log_filters
      ~outputs:config.Daemon_config.log_outputs ()
  in
  (* The reconciler's applies run outside any RPC dispatch, so no
     deadline rides on the thread; give them the same wall-clock budget
     dispatched jobs get from the stuck-worker watchdog. *)
  let wall_budget f =
    if config.Daemon_config.wall_limit_ms <= 0 then f ()
    else
      Ovirt_core.Reqctx.with_deadline
        (Some
           (Unix.gettimeofday ()
           +. (float_of_int config.Daemon_config.wall_limit_ms /. 1000.)))
        f
  in
  let recon_conns = Hashtbl.create 8 in
  let recon_conns_mutex = Mutex.create () in
  (* The reconciler's private driver handles, one per distinct spec URI,
     opened exactly as [Proc_open] would (the URIs it sees are already
     transport-stripped). *)
  let recon_ops uri_string =
    Mutex.lock recon_conns_mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock recon_conns_mutex)
      (fun () ->
        match Hashtbl.find_opt recon_conns uri_string with
        | Some ops -> Ok ops
        | None ->
          Result.bind (Ovirt_core.Vuri.parse uri_string) (fun uri ->
              Result.map
                (fun ops ->
                  Hashtbl.replace recon_conns uri_string ops;
                  ops)
                (Ovirt_core.Driver.open_uri
                   { uri with Ovirt_core.Vuri.transport = None })))
  in
  let reconcile_io =
    {
      Reconcile.io_actual =
        (fun uri ->
          Result.bind (recon_ops uri) (fun ops ->
              Result.map
                (List.map (fun r ->
                     ( r.Ovirt_core.Driver.rec_ref.Ovirt_core.Driver.dom_name,
                       r.Ovirt_core.Driver.rec_info.Ovirt_core.Driver.di_state )))
                (Ovirt_core.Driver.list_all ops)));
      io_state =
        (fun uri name ->
          Result.bind (recon_ops uri) (fun ops ->
              match ops.Ovirt_core.Driver.dom_get_info name with
              | Ok info -> Ok (Some info.Ovirt_core.Driver.di_state)
              | Error { Ovirt_core.Verror.code = Ovirt_core.Verror.No_domain; _ }
                -> Ok None
              | Error e -> Error e));
      io_apply =
        (fun uri op ->
          Result.bind (recon_ops uri) (fun ops ->
              let sg =
                match op.Reconcile.op_kind with
                | Reconcile.Op_start -> Rp.dom_create
                | Reconcile.Op_resume -> Rp.dom_resume
                | Reconcile.Op_shutdown -> Rp.dom_shutdown
                | Reconcile.Op_save -> Rp.dom_save
              in
              let body = Xdr.encode sg.Rp.sg_args op.Reconcile.op_name in
              (* Same dispatch tail a batch sub-call takes, under the
                 same per-op wall-clock budget. *)
              Result.map
                (fun (_ : string) -> ())
                (wall_budget (fun () ->
                     Remote_service.dispatch_ops ops sg.Rp.sg_proc body))));
      io_log =
        (fun msg ->
          Vlog.logf logger ~module_:"daemon.reconcile" Vlog.Info "%s" msg);
    }
  in
  let reconciler =
    Reconcile.create
      ~journal_path:("/var/lib/ovirt/reconcile/" ^ name ^ ".journal")
      ~io:reconcile_io
      ~config:
        {
          Reconcile.default_config with
          Reconcile.rcfg_interval_s =
            float_of_int config.Daemon_config.reconcile_interval_ms /. 1000.;
          rcfg_parallel = config.Daemon_config.parallel_shutdown;
        }
      ()
  in
  let mgmt_server =
    Server_obj.create ~name:"libvirtd" ~logger
      ~job_queue_limit:config.Daemon_config.job_queue_limit
      ~wall_limit_ms:config.Daemon_config.wall_limit_ms
      ~min_workers:config.Daemon_config.min_workers
      ~max_workers:config.Daemon_config.max_workers
      ~prio_workers:config.Daemon_config.prio_workers
      ~limits:
        {
          Server_obj.max_clients = config.Daemon_config.max_clients;
          max_anonymous = config.Daemon_config.max_anonymous_clients;
        }
      ()
  in
  let admin_server =
    Server_obj.create ~name:"admin" ~logger
      ~min_workers:config.Daemon_config.admin_min_workers
      ~max_workers:config.Daemon_config.admin_max_workers ~prio_workers:1
      ~limits:
        {
          Server_obj.max_clients = config.Daemon_config.admin_max_clients;
          max_anonymous = config.Daemon_config.admin_max_clients;
        }
      ()
  in
  let servers = [ ("libvirtd", mgmt_server); ("admin", admin_server) ] in
  let started_at = Unix.gettimeofday () in
  let remote_service =
    Remote_service.make ~minor:config.Daemon_config.proto_minor
      ~event_ring_capacity:config.Daemon_config.event_ring
      ~reply_cache:(config.Daemon_config.reply_cache <> 0)
      ~reply_cache_entries:config.Daemon_config.reply_cache_entries
      ~reconcile:reconciler ~logger ()
  in
  let remote_program = Remote_service.program_of remote_service in
  (* The admin program needs to trigger a drain of the daemon that hosts
     it; the daemon record does not exist yet, so route through a
     forward reference filled in below. *)
  let self = ref None in
  let admin_program =
    Admin_service.program
      {
        Admin_service.view_servers = (fun () -> servers);
        view_logger = logger;
        view_started_at = started_at;
        view_drain =
          (fun () ->
            match !self with
            | None -> ()
            | Some daemon -> drain_background daemon);
        view_reconcile = (fun () -> Some reconciler);
        view_remote = remote_service;
      }
  in
  let mgmt_programs = [ remote_program; Dispatch.keepalive_program ] in
  let admin_programs = [ admin_program; Dispatch.keepalive_program ] in
  (* Admin is root-only: refuse non-root unix peers and any remote
     transport, mirroring the admin socket's 0700 permissions. *)
  let admin_authorized conn =
    match Ovnet.Transport.peer conn with
    | Ovnet.Transport.Local id when id.Ovnet.Transport.uid = 0 -> true
    | Ovnet.Transport.Local _ | Ovnet.Transport.Remote _ ->
      Vlog.logf logger ~module_:"daemon.admin" Vlog.Warn
        "refusing non-root connection to admin socket";
      false
  in
  let reactors =
    Array.init (max 1 config.Daemon_config.reactor_threads) (fun i ->
        Ovreactor.Reactor.create ~logger
          ~name:(Printf.sprintf "%s-reactor-%d" name i) ())
  in
  let bufpool = Ovreactor.Bufpool.create ~buf_size:(16 * 1024) ~max_pooled:64 in
  (* Connections are spread round-robin over the reactor loops; the sink
     only registers the endpoint and returns, so accepting is O(1) with
     no thread spawned. *)
  let next = Atomic.make 0 in
  let pick () = reactors.(Atomic.fetch_and_add next 1 mod Array.length reactors) in
  let mgmt_listener =
    Ovnet.Netsim.listen_direct (Rp.mgmt_address name) (fun ~kind ep ->
        Dispatch.attach_endpoint mgmt_server mgmt_programs ~reactor:(pick ())
          ~pool:bufpool ~kind ep)
  in
  let admin_listener =
    Ovnet.Netsim.listen_direct (Rp.admin_address name) (fun ~kind ep ->
        Dispatch.attach_endpoint admin_server admin_programs ~reactor:(pick ())
          ~pool:bufpool ~authorize:admin_authorized ~kind ep)
  in
  Vlog.logf logger ~module_:"daemon" Vlog.Info "daemon %s started" name;
  let daemon =
    {
      name;
      logger;
      servers;
      listeners = [ mgmt_listener; admin_listener ];
      reactors;
      bufpool;
      started_at;
      reconciler;
      remote = remote_service;
      recon_conns;
      recon_conns_mutex;
      lifecycle = Mutex.create ();
      lifecycle_cv = Condition.create ();
      stopped = false;
      draining = false;
      drain_thread = None;
    }
  in
  self := Some daemon;
  Reconcile.start reconciler;
  daemon

let drain = drain_impl

let reactors daemon = daemon.reactors
let buffer_pool daemon = Some daemon.bufpool

let name daemon = daemon.name
let mgmt_address daemon = Rp.mgmt_address daemon.name
let admin_address daemon = Rp.admin_address daemon.name
let logger daemon = daemon.logger
let servers daemon = daemon.servers
let find_server daemon name = List.assoc_opt name daemon.servers
let uptime_s daemon = Unix.gettimeofday () -. daemon.started_at
let reconciler daemon = daemon.reconciler
let run_stats daemon = Remote_service.run_stats daemon.remote
