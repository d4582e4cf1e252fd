(** The remote program's daemon-side implementation.

    Each client may hold one open hypervisor connection (established by
    [Proc_open] with a URI whose transport suffix the daemon strips before
    handing it to the in-process driver registry — the "daemon invokes the
    very same library call with a stateful driver" step).  Lifecycle
    events of that connection can be streamed back as [Event] packets
    after [Proc_event_register]. *)

type t
(** Service state: per-client connections plus the per-node event replay
    rings (v1.6 resumable streams). *)

type event_totals = {
  evt_rings : int;
  evt_emitted : int;
  evt_replayed : int;
  evt_gaps : int;
  evt_resumes : int;
  evt_occupancy : int;
  evt_capacity : int;
  evt_subscribers : int;
  evt_head : int;  (** highest stream position across rings *)
}

type cache_totals = {
  rct_caches : int;
  rct_hits : int;
  rct_misses : int;
  rct_insertions : int;
  rct_invalidations : int;
  rct_evictions : int;
  rct_patched_sends : int;
  rct_unchanged : int;  (** conditional listings answered "unchanged" *)
  rct_entries : int;
  rct_bytes : int;
  rct_enabled : bool;  (** the daemon-level [reply_cache] knob *)
}

val make :
  ?minor:int ->
  ?event_ring_capacity:int ->
  ?reply_cache:bool ->
  ?reply_cache_entries:int ->
  ?reconcile:Reconcile.t ->
  logger:Vlog.t ->
  unit ->
  t
(** [minor] caps the protocol minor this daemon serves (default: the
    build's {!Protocol.Remote_protocol.minor}); procedures newer than it
    are rejected as unknown, making the daemon indistinguishable from an
    older build — the lever version-negotiation tests pull.
    [event_ring_capacity] bounds each per-node replay ring (default
    1024).  [reply_cache] (default [true]) enables the server reply
    cache for hot read procedures — pre-framed replies keyed by
    (procedure, argument bytes), validated against the driver write
    generation, served from the receiving thread with only the serial
    word patched; [reply_cache_entries] (default 512) bounds each
    per-node-URI cache (LRU).  Clients can opt a single connection out
    with a [replycache=0] URI parameter.  The same caches answer v1.8
    conditional listings: a token (this daemon's boot nonce, fixed at
    [make], plus a fill number) names the cached [fleet_list_all] frame
    a client holds, and while that entry lives the reply is 12 bytes of
    "unchanged".  [reconcile] is the daemon's
    policy reconciler; without it the v1.5 policy procedures answer
    [Operation_unsupported]. *)

val program_of : t -> Dispatch.program

val event_totals : t -> event_totals
(** Aggregated replay-ring counters, for the admin event-stats proc. *)

val reply_cache_totals : t -> cache_totals
(** Aggregated reply-cache counters across every per-URI cache, for the
    admin reply-cache-stats proc. *)

val program :
  ?minor:int ->
  ?event_ring_capacity:int ->
  ?reply_cache:bool ->
  ?reply_cache_entries:int ->
  ?reconcile:Reconcile.t ->
  logger:Vlog.t ->
  unit ->
  Dispatch.program
(** [make] + [program_of] for callers that don't need the stats handle. *)

val dispatch_ops :
  Ovirt_core.Driver.ops ->
  Protocol.Remote_protocol.procedure ->
  string ->
  (string, Ovirt_core.Verror.t) result
(** Run one connection-scoped procedure directly against an open [ops]
    handle — the same dispatch tail batch sub-calls use.  The daemon's
    reconciler applies its planned lifecycle operations through here, so
    a reconciled start/shutdown is byte-for-byte the RPC the client
    would have issued. *)
