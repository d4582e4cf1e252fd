(** Daemon configuration: the persistent settings normally read from
    [ovirtd.conf] at startup.  Everything here has a runtime counterpart
    on the administration interface; this module is only the {e initial}
    state (the distinction the admin interface exists to fix).

    File syntax is the libvirtd.conf subset: [key = value] lines, [#]
    comments, integers or double-quoted strings. *)

type io_model =
  | Io_reactor
      (** readiness-driven: a few {!Reactor} threads multiplex every
          connection; decoded calls dispatch on the workerpool *)

type t = {
  io_model : io_model;
      (** connection front end; the reactor is the only one, and a
          config file may only say [io_model = "reactor"] *)
  reactor_threads : int;
      (** reactor loops to spread connections over (default 2) *)
  min_workers : int;
  max_workers : int;
  prio_workers : int;
  max_clients : int;
  max_anonymous_clients : int;  (** pending-auth connection cap *)
  admin_min_workers : int;
  admin_max_workers : int;
  admin_max_clients : int;
  log_level : Vlog.priority;
  log_filters : Vlog.filter list;
  log_outputs : Vlog.output list;
  proto_minor : int;
      (** protocol minor served on the remote program (default: this
          build's maximum); lowering it makes the daemon behave like an
          older release for version-negotiation testing *)
  event_ring : int;
      (** capacity of each per-node event replay ring backing v1.6
          resumable subscriptions (default 1024, minimum 1): a
          reconnecting client further behind than this receives a gap
          verdict and must resync *)
  reply_cache : int;
      (** server reply cache for hot read procedures: nonzero (default 1)
          enables it; 0 disables it daemon-wide (clients can also opt a
          single connection out with a [replycache=0] URI parameter) *)
  reply_cache_entries : int;
      (** LRU capacity of each per-node-URI reply cache (default 512,
          minimum 1) *)
  job_queue_limit : int;
      (** admission bound on the mgmt pool's normal-class job queue;
          0 (default) = unbounded.  Overflow is rejected with
          [Overloaded], never blocked on. *)
  wall_limit_ms : int;
      (** stuck-worker watchdog: jobs running longer than this are
          declared stuck, their worker retired and replaced; 0 (default)
          disables the watchdog *)
  reconcile_interval_ms : int;
      (** reconciler convergence-loop period (default 2000) *)
  parallel_shutdown : int;
      (** bound on lifecycle operations the reconciler applies
          concurrently — both the convergence loop and the drain-time
          shutdown pass (default 4) *)
}

val default : t
(** libvirtd's shipped defaults: 5/20 workers, 5 priority, 120 clients,
    20 anonymous, error level, journald-less stderr output. *)

val parse : string -> (t, string) result
(** Parse file contents over {!default}; unknown keys are errors (typos in
    a daemon config should not pass silently). *)

val to_file : t -> string
(** Render back in file syntax. *)
