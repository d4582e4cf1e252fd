(** Declarative desired-state reconciliation.

    The engine holds one declared {!Ovirt_core.Dompolicy.t} per
    (uri, domain) and converges actual run-state toward it: each pass
    diffs spec against actual, journals the resulting plan through
    {!Persist.Journal} {e before} applying it, applies ops on at most
    [parallel_shutdown] threads, and checkpoints per-op — so a
    daemon kill at any point resumes the plan on restart with
    exactly-once side effects (a postcondition precheck skips ops whose
    effect landed before the crash cut the checkpoint off).

    Domains that refuse to converge are marked diverged and retried
    under per-domain exponential backoff; they never wedge the loop for
    the rest of the fleet. *)

open Ovirt_core

(** {1 Operations} *)

type op_kind = Op_start | Op_resume | Op_shutdown | Op_save

type op = { op_uri : string; op_name : string; op_kind : op_kind }

(** {1 IO surface}

    The engine never touches a driver directly; the daemon supplies
    listing (drvnode registry) and application (batch dispatch inside a
    {!Ovirt_core.Reqctx.with_deadline} binding); tests supply stubs. *)

type io = {
  io_actual :
    string -> ((string * Vmm.Vm_state.state) list, Verror.t) result;
  io_state :
    string -> string -> (Vmm.Vm_state.state option, Verror.t) result;
  io_apply : string -> op -> (unit, Verror.t) result;
  io_log : string -> unit;
}

type config = {
  rcfg_interval_s : float;  (** convergence loop period *)
  rcfg_parallel : int;  (** parallel_shutdown: concurrent op bound *)
  rcfg_diverged_after : int;  (** failed attempts before Diverged *)
  rcfg_backoff_base_s : float;
  rcfg_backoff_cap_s : float;
  rcfg_compact_factor : int;  (** journal compaction: factor·live+slack *)
  rcfg_compact_slack : int;
}

val default_config : config

(** {1 Status} *)

type status = St_converged | St_pending | St_diverged

val status_name : status -> string

type dom_status = {
  ds_uri : string;
  ds_name : string;
  ds_policy : Dompolicy.t;
  ds_status : status;
  ds_attempts : int;
  ds_retry_in_s : float;  (** 0. when no retry is scheduled *)
  ds_last_error : string;  (** "" when none *)
}

type summary = {
  sum_specs : int;
  sum_converged : int;
  sum_pending : int;
  sum_diverged : int;
  sum_plans : int;
  sum_ops_applied : int;  (** side effects actually performed *)
  sum_ops_skipped : int;  (** postcondition already held *)
  sum_ops_failed : int;
  sum_resumed : bool;  (** this incarnation resumed a journaled plan *)
}

val policy : Dompolicy.t Xdr.codec
(** A policy as three words ({!Dompolicy.to_ints}); decoding raises
    [Xdr.Error] on a code {!Dompolicy.of_ints} refuses.  The journal
    writes it, and so does the remote protocol (procedures
    [dom_set_policy] and [dom_get_policy], the reconcile status rows). *)

(** {1 Engine} *)

type t

val create : journal_path:string -> io:io -> config:config -> unit -> t
(** Attach the plan journal at [journal_path] (a {!Persist.Media}
    path), replaying declared specs, attempt counters, and any plan a
    dead incarnation left pending. *)

val set_policy : t -> uri:string -> name:string -> Dompolicy.t -> unit
val get_policy : t -> uri:string -> name:string -> Dompolicy.t
(** {!Dompolicy.default} when the domain has no declared policy. *)

val clear_policy : t -> uri:string -> name:string -> unit

val converge_now : t -> summary
(** One synchronous pass: resume any interrupted plan, then diff, plan,
    journal, apply.  The loop thread calls this; tests and benchmarks
    drive it directly for determinism. *)

val shutdown_pass : t -> unit
(** Apply [on_shutdown] to every running spec'd guest (daemon drain),
    bounded by [parallel_shutdown].  A crash mid-pass does {e not}
    replay shutdowns at next boot: drain plans are abandoned on
    restart, boot semantics take over. *)

val status : t -> summary * dom_status list
val kick : t -> unit
(** Wake the loop for an immediate pass (policy just changed). *)

val journal_records : t -> int

val start : t -> unit
(** Spawn the periodic convergence thread. *)

val stop : t -> unit
(** Stop and join the thread (idempotent). *)

val crash_hook : (string -> unit) ref
(** Chaos-test hook, called at sites ["plan_journaled"], ["pre_apply"],
    ["post_apply"], ["post_checkpoint"]; raising aborts the pass
    exactly as a daemon kill would. *)
