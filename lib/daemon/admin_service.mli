(** The administration program's daemon-side implementation.

    Operates on a {!daemon_view} handed over by the daemon assembly
    (avoiding a dependency cycle): the live server objects, the logging
    subsystem, and the start timestamp.  Setters validate read-only and
    unknown typed-parameter fields and reject them, as the admin API
    documents. *)

type daemon_view = {
  view_servers : unit -> (string * Server_obj.t) list;
  view_logger : Vlog.t;
  view_started_at : float;
  view_drain : unit -> unit;
      (** Trigger a graceful daemon drain; must return promptly (the
          daemon runs the drain in the background) so the reply reaches
          the administrator before the connection closes. *)
  view_reconcile : unit -> Reconcile.t option;
      (** The daemon's policy reconciler, when it has one. *)
  view_remote : Remote_service.t;
      (** The remote program, whose replay rings and reply caches keep
          the counters the event- and reply-cache-stats procedures sum. *)
}

val program : daemon_view -> Dispatch.program
