(** Domain lifecycle events.

    Drivers publish lifecycle changes to a per-connection bus; management
    applications subscribe with callbacks (the "notify a third-party
    application when something happens" extension the thesis lists as
    future work — implemented here).  {!emit} runs the callbacks on the
    publishing thread.  A remote connection's callbacks run, in wire
    order, on its receiver, where they may block or call back through
    any connection (see [Drv_remote]). *)

type lifecycle =
  | Ev_defined
  | Ev_undefined
  | Ev_started
  | Ev_suspended
  | Ev_resumed
  | Ev_shutdown
  | Ev_stopped
  | Ev_crashed
  | Ev_migrated
  | Ev_adopted  (** running domain re-adopted after a manager restart *)
  | Ev_diverged
      (** hypervisor state found to disagree with the journal on recovery
          (guest died or appeared while the manager was down) *)
  | Ev_resync
      (** the remote event stream had a gap (the daemon's replay ring
          wrapped past this client's position, or the daemon was
          replaced): cached state was flushed and subscribers must
          re-read anything they track.  [domain_name] is [""]. *)

val lifecycle_name : lifecycle -> string
val lifecycle_of_int : int -> (lifecycle, string) result
val lifecycle_to_int : lifecycle -> int

type event = { domain_name : string; lifecycle : lifecycle; seq : int }
(** [seq] is the daemon-assigned position in a sequence-numbered remote
    event stream, or 0 for local (driver-bus) events.  A fleet's bus
    forwards its member's position: it rises within each member, with
    no order between two members' positions. *)

type bus
type subscription

val create_bus : unit -> bus

val publish :
  ?seq:int -> bus -> domain_name:string -> lifecycle -> (unit -> unit) option
(** Record the event in the history and return the run that hands it to
    every subscriber of the moment, or [None] when there is none.
    [?seq] defaults to 0 (unsequenced). *)

val emit : ?seq:int -> bus -> domain_name:string -> lifecycle -> unit
(** {!publish}, then the run on this thread. *)

val subscribe : bus -> (event -> unit) -> subscription
val unsubscribe : bus -> subscription -> unit
val subscriber_count : bus -> int
val history : bus -> event list
(** All events emitted so far, oldest first (bounded at 4096; older
    entries are discarded).  Lets late tools inspect recent activity. *)
