(** Federated control plane: a health-checked shard fleet behind the
    ordinary driver surface.

    A fleet is a named, process-global registry of member daemons.
    Reads scatter-gather across every live member with a per-shard
    slice of the request deadline; a failed or timed-out shard
    contributes a structured {!Ovirt_core.Driver.shard_error} marker
    instead of failing the whole reply.  Writes route to exactly one
    member — by consistent-hash placement for new domains, by a learned
    location table afterwards.  Cross-daemon migration is a journaled
    two-phase handshake (reserve → switchover → release) that rolls
    back to a running source on any crash before the switchover record
    and rolls forward after it. *)

open Ovirt_core

type t

val create :
  name:string ->
  ?members:(string * string) list ->
  ?place:(Vmm.Uuid.t -> string list -> string) ->
  ?shard_slice_s:float ->
  ?probe_interval_s:float ->
  ?probe_timeout_s:float ->
  ?down_threshold:int ->
  unit ->
  t
(** Create (or re-create) the fleet [name] with [members] given as
    [(member name, driver URI)] pairs.  Opens the migration journal at
    [/var/lib/ovirt/fleet/<name>.journal] (a {!Persist.Media} path) and
    replays it, converging any migration a previous controller
    incarnation left mid-flight — re-creating under the same name IS
    the controller-restart recovery path.  Registers the fleet in the
    process-global table (latest wins) and spawns the shared prober
    thread if it is not already running.

    [shard_slice_s] bounds each shard's share of a scatter (default
    1s); [probe_interval_s]/[probe_timeout_s] drive the keepalive
    prober; [down_threshold] consecutive failures open a member's
    breaker.  [place] overrides consistent-hash placement. *)

val name : t -> string

val find : string -> t option
(** Look up a fleet in the process-global registry. *)

val dissolve : string -> unit
(** Drop the fleet from the registry, close every member connection
    (its receiver stops, and its events no longer reach the fleet bus)
    and stop the prober watching the members.  Open connections built
    from the fleet keep working: their next call opens the member
    connections it needs afresh. *)

val add_member : t -> name:string -> uri:string -> (unit, Verror.t) result
(** [Dup_name] if a member with that name already exists. *)

val remove_member : t -> string -> unit
(** Also forgets every domain location owned by the member, and closes
    its connection: its events no longer reach the fleet bus. *)

val consistent_hash_place : Vmm.Uuid.t -> string list -> string
(** Default placement: 64 virtual nodes per member on a hash ring;
    adding or removing a member only moves the keys adjacent to its
    points.  @raise Invalid_argument on an empty member list. *)

val merge_records :
  (string * Driver.domain_record list) list -> Driver.domain_record list
(** One row per UUID across members; a running twin wins. *)

type repeat =
  | Same_lists  (** every member handed back the very ([==]) list *)
  | Same_names  (** else, every list names the same domains in order *)
  | Changed

val repeat_of :
  (string * Driver.domain_record list) list ->
  (string * Driver.domain_record list) list -> repeat
(** [repeat_of last l]: how the per-member lists [l] of a listing repeat
    [last]'s.  [Changed] unless [l] pairs the names of [last], in order.
    A listing reuses the last merge on [Same_lists], and skips learning
    locations and domain counts on either repeat while no location was
    written since [last] was learned. *)

val status : t -> Driver.fleet_status
(** Member health, probe/failure counters, last known domain counts and
    migration totals, as seen by the controller right now. *)

val probe_now : t -> unit
(** Synchronously probe every member once, off-schedule.  The shared
    prober thread does this on its own clock; tests call it to advance
    the health state machine deterministically. *)

val prober_thread_count : unit -> int
(** Number of prober threads ever spawned in this process — by design
    at most 1, shared by every fleet (the satellite invariant). *)

val shard_thread_count : unit -> int
(** Number of scatter shard threads ever spawned in this process.  Every
    fleet's scatters share them; it grows only when more shards run at
    once than ever before, or while abandoned shards still hold theirs. *)

val ops_of : t -> Driver.ops
(** The fleet as an ordinary driver connection: listings
    scatter-gather, mutations route by placement, [ops.fleet] carries
    the federation view ({!Ovirt_core.Driver.fleet_view}). *)

val fleet_migrate :
  t -> domain:string -> dest:string -> (unit, Verror.t) result
(** Journaled two-phase migration of [domain] to member [dest].  Any
    failure or crash before the switchover journal record rolls back to
    a running source; after it, recovery rolls forward to the
    destination.  [Operation_invalid] if the domain is already there. *)

val crash_hook : (string -> unit) ref
(** Crash-injection seam for the migration sweep: called with the phase
    label ("begin" | "reserved" | "switchover" | "finished" |
    "released" | "end") immediately after each journal append.  Raising
    from it aborts the handshake without rollback, exactly like a
    controller kill at that boundary. *)

type stats = {
  st_sub_errors : int;
  st_locations_learned : int;
      (** rows the fleet's listings wrote into its location table; a
          listing that repeats the last one writes none *)
}

val conn_stats : Driver.ops -> stats option
(** Cumulative counters of the fleet behind a fleet connection, or
    [None] if [ops] is not one.  The shard errors surfaced through its
    listings feed the CLI's partial-failure exit code, mirroring the
    remote driver's [conn_stats]. *)

val register : unit -> unit
(** Register the [fleet://] scheme with the driver registry:
    [fleet:///NAME] (no transport) opens the named in-process fleet.
    [fleet+unix:///NAME] is NOT matched here — the transport sends it
    through the remote driver to a daemon, which strips the transport
    and lands back on this driver controller-side. *)
