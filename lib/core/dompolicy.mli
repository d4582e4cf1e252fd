(** Declarative per-domain lifecycle policy — the spec the reconciler
    converges actual state toward.

    [on_boot] generalizes the autostart flag (what happens when the
    daemon boots or recovers the domain's node), [on_shutdown] declares
    how a running guest is treated when the daemon drains, and
    [run_state] is the continuously enforced desired run-state. *)

type on_boot = Boot_start | Boot_ignore

type on_shutdown = Shut_suspend | Shut_shutdown | Shut_ignore

type run_state = Rs_running | Rs_stopped | Rs_any

type t = {
  on_boot : on_boot;
  on_shutdown : on_shutdown;
  run_state : run_state;
}

val default : t
(** [on_boot=ignore on_shutdown=ignore run_state=any] — a no-op spec. *)

val on_boot_of_name : string -> (on_boot, Verror.t) result
val on_shutdown_of_name : string -> (on_shutdown, Verror.t) result
val run_state_of_name : string -> (run_state, Verror.t) result

val to_string : t -> string
(** ["on_boot=... on_shutdown=... run_state=..."]. *)

val to_ints : t -> int * int * int
(** Compact codes for the wire protocol and journal records. *)

val of_ints : int * int * int -> (t, Verror.t) result
