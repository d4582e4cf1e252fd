(* Toolkit facade: single entry point that assembles the driver registry
   and re-exports the public surface.  [Connect.open_uri] initializes the
   registry on first use, so linking this library is all an application
   needs. *)

let initialized = ref false
let init_mutex = Mutex.create ()

(* Registration order is libvirt's selection order: client-side drivers
   first, the remote tunnel last as the catch-all. *)
let initialize () =
  Mutex.lock init_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock init_mutex)
    (fun () ->
      if not !initialized then begin
        Drivers.Drv_test.register ();
        Drivers.Drv_esx.register ();
        Drivers.Drv_qemu.register ();
        Drivers.Drv_xen.register ();
        Drivers.Drv_lxc.register ();
        (* Before the remote tunnel: fleet:// without a transport is
           in-process; fleet+unix:// still falls through to remote. *)
        Ovirt_fleet.Fleet.register ();
        Drv_remote.register ();
        initialized := true
      end)

module Verror = Ovirt_core.Verror
module Uri = Ovirt_core.Vuri
module Capabilities = Ovirt_core.Capabilities
module Driver = Ovirt_core.Driver
module Events = Ovirt_core.Events
module Net_backend = Ovirt_core.Net_backend
module Storage_backend = Ovirt_core.Storage_backend

module Connect = struct
  include Ovirt_core.Connect

  let open_uri uri =
    initialize ();
    Ovirt_core.Connect.open_uri uri
end

module Domain = Ovirt_core.Domain
module Network = Ovirt_core.Network
module Storage = Ovirt_core.Storage
module Guest_agent_client = Agent

(* Drop every driver node (in-memory stores, event buses, locks) as a
   process crash would.  Simulated hypervisor state — qemu process
   tables, attached Xen/LXC instances, shared host capacity, persisted
   journals — survives on purpose: it is what recovery reconciles
   against. *)
let crash_managers () =
  Drivers.Drv_test.reset_nodes ();
  Drivers.Drv_qemu.reset_nodes ();
  Drivers.Drv_xen.reset_nodes ();
  Drivers.Drv_lxc.reset_nodes ()

module Daemon = struct
  include Ovdaemon.Daemon

  let start ?name ?config () =
    initialize ();
    Ovdaemon.Daemon.start ?name ?config ()

  (* Manager crash: the daemon dies mid-flight and takes every driver
     node down with it.  The next [start] + connection replays journals
     and re-adopts running guests. *)
  let crash daemon =
    kill daemon;
    crash_managers ()
end

module Daemon_config = Ovdaemon.Daemon_config
module Server_obj = Ovdaemon.Server_obj
module Remote_service = Ovdaemon.Remote_service
module Reactor = Ovreactor.Reactor
module Bufpool = Ovreactor.Bufpool
module Admin_client = Admin
module Logging = Vlog
module Dompolicy = Ovirt_core.Dompolicy
module Reconcile = Reconcile
module Remote = Drv_remote
module Fleet = Ovirt_fleet.Fleet
