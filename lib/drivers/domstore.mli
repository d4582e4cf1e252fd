(** Persistent-definition store shared by the stateful drivers.

    Stateful hypervisors (QEMU, Xen) forget domains the moment they stop;
    keeping the configuration so the domain can be started again is the
    driver's job.  This store holds those definitions, keyed by name, with
    the uniqueness rules libvirt enforces (unique name {e and} UUID); a
    secondary UUID index makes clash checks and [by_uuid] O(1).

    Optionally the store is backed by a {!Persist.Journal}: every
    define/undefine/autostart/run-state change appends a record, replay
    on {!attach} restores the pre-crash state (torn tails truncated),
    and the log is compacted to a snapshot when it outgrows the live
    state.  The run-state records ('R'/'S') are the analogue of
    libvirt's per-domain status XML — they tell a restarted manager
    which domains it {e believed} were running, which recovery then
    reconciles against the hypervisor state that survived the crash. *)

type t

type recovery = {
  rc_replayed : int;  (** journal records applied on attach *)
  rc_torn_bytes : int;  (** torn-tail bytes truncated on attach *)
  rc_compacted : bool;  (** whether attach rewrote a snapshot *)
}

val create : unit -> t

val attach : t -> path:string -> recovery
(** Back the (empty, unattached) store with the journal at [path],
    replaying whatever survived there.  @raise Invalid_argument if the
    store already holds entries or a journal. *)

val define : t -> Vmm.Vm_config.t -> (unit, Ovirt_core.Verror.t) result
(** Redefinition with the same name and UUID updates in place (keeping
    autostart and run-state flags); a name or UUID collision with a
    different identity is [Dup_name]. *)

val undefine : t -> string -> (unit, Ovirt_core.Verror.t) result
val get : t -> string -> Vmm.Vm_config.t option
val by_uuid : t -> Vmm.Uuid.t -> Vmm.Vm_config.t option
val names : t -> string list
(** Sorted. *)

val mem : t -> string -> bool

val set_autostart : t -> string -> bool -> (unit, Ovirt_core.Verror.t) result
(** [No_domain] for undefined names. *)

val get_autostart : t -> string -> (bool, Ovirt_core.Verror.t) result

val note_started : t -> string -> unit
(** Record that a defined domain is now running (durable; no-op for
    undefined names or when the flag is already set). *)

val note_stopped : t -> string -> unit

val entries : t -> (string * Vmm.Vm_config.t * bool * bool) list
(** [(name, cfg, autostart, was_running)] sorted by name — the
    recovery view. *)

val compact_factor : int
val compact_slack : int
(** The compaction threshold: the journal is rewritten to a snapshot
    once it holds more than [compact_factor·|snapshot| + compact_slack]
    records ([4·|snapshot| + 16]). *)
