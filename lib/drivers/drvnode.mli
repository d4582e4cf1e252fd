(** Generic driver-node framework.

    Every local hypervisor driver manages a set of named {e nodes} (one
    simulated host each) and exposes the same plumbing around them: a
    process-global registry created on first use, a per-node lock, a
    {!Domstore} of persistent definitions, network/storage backends, an
    event bus, and the name/UUID lookup and listing helpers over the
    store.  The only thing that differs per driver is its substrate
    state — the {e payload} ([Qemu_proc] table, [Xen_hv] handle, …).

    This module factors all of that out, parameterized by the payload
    type, so a driver is reduced to its payload, its operation bodies,
    and a {!register} call.

    {b Locking.}  Each node carries an {!Ovsync.Rwlock.t}.  Operations
    classify themselves: read-only ones ([dom_get_info], [dom_get_xml],
    listings, lookups, capabilities) run under {!with_read} and proceed
    concurrently; mutating ones (lifecycle, define/undefine,
    save/restore, migration steps) run under {!with_write} and are
    exclusive.  The lock is not reentrant — code running inside a
    section must not call back into another locked operation of the same
    node (fetch what you need inside the section, call out after it, as
    the guest-agent paths do). *)

open Ovirt_core

(** What a restarted node found when it came back: journal replay
    figures plus the reconciliation verdict for every domain. *)
type recovery = {
  rec_replayed : int;  (** journal records replayed *)
  rec_torn_bytes : int;  (** torn-tail bytes truncated *)
  rec_adopted : string list;  (** running guests re-adopted untouched *)
  rec_autostarted : string list;  (** inactive autostart domains started *)
  rec_lost : string list;  (** expected running, found dead (diverged) *)
  rec_appeared : string list;  (** found running unexpectedly (diverged) *)
  rec_unknown : string list;  (** running but not defined (diverged) *)
}

type 'p node = {
  node_name : string;
  store : Domstore.t;  (** persistent definitions *)
  lock : Ovsync.Rwlock.t;  (** reader–writer section lock for driver ops *)
  net : Net_backend.t;
  storage : Storage_backend.t;
  events : Events.bus;
  payload : 'p;  (** driver-specific substrate state *)
  gen : int Atomic.t;
      (** node write generation; use {!generation} rather than reading
          this field (the public stamp also folds in the backends) *)
  mutable recovered : recovery option;
      (** set by {!reconcile} when the node was rebuilt from a journal *)
}

(** {1 Node registry} *)

type 'p registry

val registry :
  ?init:('p node -> unit) ->
  ?journal_dir:string ->
  ?recover:('p node -> Domstore.recovery -> unit) ->
  ?uuid_scope:string ->
  (node_name:string -> 'p) ->
  'p registry
(** [registry ?init ?journal_dir ?recover make] builds an (initially
    empty) named-node table.  [make ~node_name] creates the payload for
    a new node; [init] then runs exactly once on the assembled node,
    still under the registry lock, for post-creation seeding (e.g. the
    test driver's canonical ["test"] domain) — with a journal it must
    be idempotent, because it also runs after replay.

    With [journal_dir], each node's {!Domstore} is backed by the
    journal at [<journal_dir>/<node>.journal] ({!Domstore.attach} runs
    before [make] and [init]); [recover] then runs last on creation,
    where drivers redo half-completed operations and call {!reconcile}
    against surviving hypervisor state.

    With [uuid_scope], the networks and pools of node [N] take UUIDs
    derived from ["<uuid_scope>://N"] and their names
    ({!Ovirt_core.Net_backend.create}), so the node answers alike in
    every run. *)

val get_node : 'p registry -> string -> 'p node
(** Find-or-create.  Thread-safe; creation is serialized. *)

val reset_nodes : 'p registry -> unit
(** Drop every node.  Test isolation — and the crash model: the manager
    forgets everything while journals ({!Persist.Media}) and shared
    hypervisor substrates survive, so the next {!get_node} replays and
    reconciles. *)

val reconcile :
  'p node ->
  attach_info:Domstore.recovery ->
  running:(unit -> string list) ->
  adopt:(string -> Vmm.Vm_config.t -> unit) ->
  start:(string -> (unit, Verror.t) result) ->
  recovery
(** Diff the replayed store against surviving hypervisor state.
    [running ()] lists guest names alive on the substrate; [adopt]
    rebuilds manager-side bookkeeping for one of them and must issue no
    lifecycle command; [start] is the driver's ordinary start path,
    used for inactive autostart domains.  Running guests the journal
    expects are re-adopted ([Ev_adopted]); guests that died, appeared,
    or are entirely unknown produce [Ev_diverged] events and are left
    alone.  Stores the report in [node.recovered] and returns it. *)

(** {1 Lock sections} *)

val with_read : 'p node -> (unit -> 'a) -> 'a
val with_write : 'p node -> (unit -> 'a) -> 'a
(** Shared / exclusive sections on the node lock.  When the calling
    thread carries a {!Reqctx} deadline, acquisition is bounded:
    a waiter whose deadline passes raises [Verror.Virt_error]
    ([Operation_failed], "deadline expired…") instead of queueing
    behind a stuck writer. *)

val generation : 'p node -> int
(** Monotonic write stamp covering the whole node: bumped while the
    write lock is still held at the end of every {!with_write} section
    (success or failure), plus the {!Net_backend} and {!Storage_backend}
    generations (those backends mutate under their own locks).  A reader
    that snapshots the stamp before reading and sees the same value
    afterwards read current state; the daemon's reply cache keys entry
    validity on it. *)

val set_start_budget_hook :
  ((unit -> (unit, Verror.t) result) -> (unit, Verror.t) result) -> unit
(** Install the boot-path budget wrapper.  Autostart (and
    reconciler-triggered) starts run outside any RPC dispatch, so no
    deadline rides on the thread; the daemon installs a wrapper that
    runs the start under a fresh reqctx budget derived from
    [wall_limit_ms], putting boot-time starts under the same watchdog
    as dispatched jobs.  The default wrapper runs the start as-is. *)

(** {1 Events} *)

val emit : 'p node -> string -> Events.lifecycle -> unit
(** [emit node domain_name lifecycle] on the node's bus.  Start/stop
    lifecycle events also update the store's durable run-state notes
    (the journal's record of which domains the manager believes are
    running — what reconciliation diffs against after a crash). *)

(** {1 Domstore plumbing}

    These helpers never take the node lock themselves (the store has its
    own), so they are safe to call from inside either section kind;
    [lookup_by_name]/[lookup_by_uuid]/[list_defined] are complete
    read-classified operations and take the read lock. *)

val require_config :
  ?what:string -> 'p node -> string -> (Vmm.Vm_config.t, Verror.t) result
(** The stored definition, or [No_domain "no <what> named ..."]; [what]
    defaults to ["domain"]. *)

val domain_ref_of :
  ?what:string ->
  'p node ->
  dom_id:(string -> int option) ->
  string ->
  (Driver.domain_ref, Verror.t) result
(** Build the public domain reference from the stored config, asking
    [dom_id] for the hypervisor id iff the domain is active. *)

val lookup_by_name :
  'p node ->
  (string -> (Driver.domain_ref, Verror.t) result) ->
  string ->
  (Driver.domain_ref, Verror.t) result
(** [lookup_by_name node ref_of name]: [ref_of name] under the read
    lock. *)

val lookup_by_uuid :
  ?what:string ->
  'p node ->
  (string -> (Driver.domain_ref, Verror.t) result) ->
  Vmm.Uuid.t ->
  (Driver.domain_ref, Verror.t) result
(** Resolve the UUID in the store under the read lock, then [ref_of] the
    matching name; [No_domain] otherwise. *)

val list_defined :
  'p node -> active:(string -> bool) -> (string list, Verror.t) result
(** Stored names for which [active] is false, under the read lock. *)

val list_all :
  'p node ->
  ?prepare:(unit -> unit) ->
  dom_id:(string -> int option) ->
  info:(string -> Vmm.Vm_config.t -> (Driver.domain_info, Verror.t) result) ->
  unit ->
  (Driver.domain_record list, Verror.t) result
(** Native bulk listing: walk every stored domain under ONE read section
    and build {!Driver.domain_record}s — a consistent snapshot, the
    driver-side half of the wire protocol's [Proc_dom_list_all].
    [prepare] (e.g. a simulated hypervisor round trip) and [info] run
    with the read lock held, so they must not re-enter a lock section;
    rows whose [info] fails are skipped. *)

val set_autostart : 'p node -> string -> bool -> (unit, Verror.t) result
(** Persist the autostart flag (write lock + store). *)

val get_autostart : 'p node -> string -> (bool, Verror.t) result

(** {1 Registration} *)

val node_of_uri : ?default:string -> Vuri.t -> string
(** The URI's host, or [default] (["localhost"]). *)

val register :
  name:string ->
  ?schemes:string list ->
  ?probe:(Vuri.t -> bool) ->
  open_conn:(Vuri.t -> (Driver.ops, Verror.t) result) ->
  unit ->
  unit
(** Build and install the {!Driver.registration}.  The default probe
    accepts [schemes] (default [[name]]) with no [+transport] suffix —
    transported URIs fall through to the remote driver. *)
