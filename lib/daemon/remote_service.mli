(** The remote program's daemon-side implementation.

    Each client may hold one open hypervisor connection (established by
    [Proc_open] with a URI whose transport suffix the daemon strips before
    handing it to the in-process driver registry — the "daemon invokes the
    very same library call with a stateful driver" step).  Lifecycle
    events of that connection can be streamed back as [Event] packets
    after [Proc_event_register]. *)

type t
(** Service state: per-client connections plus the per-node event replay
    rings (v1.6 resumable streams) and reply caches. *)

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
    cache of the bulk listings ([Cached_listing] rows) — reply bodies
    keyed by (procedure, argument bytes), validated against the driver
    write generation, framed with the caller's serial and sent from the
    receiving thread; [reply_cache_entries] (default 512) bounds each
    per-node-URI cache, which holds at most two keys.  Clients can opt
    a single connection out with a [replycache=0] URI parameter.  Which
    cache serves a connection, if any, is resolved once, when it opens.
    A top-level listing, or the inner call of a deadline envelope, is
    looked up on the receiving thread only; on a miss the pool runs the
    handler and fills the cache.  Batch sub-calls, which the receiving
    thread never sees, look up and then fill.  The same caches answer
    v1.8 conditional listings: a token (this daemon's boot nonce, fixed
    at [make], plus a fill number) names the cached [fleet_list_all]
    body a client holds, and while that entry lives the reply is 12
    bytes of "unchanged".  An [Inline] row's call (a point read, a
    domain lifecycle write, an autostart or managed-save query), bare
    or in a deadline envelope, never touches the cache and takes one of
    two paths: on a local node (a driver with a write generation), the
    receiving thread runs it when the pool has no queued job and nothing
    in the call waits; otherwise the pool runs it (see {!run_stats}).
    Neither knob changes that.
    [reconcile] is the daemon's policy reconciler; without it the v1.5
    policy procedures answer [Operation_unsupported]. *)

val program_of : t -> Dispatch.program

val reply_cache_enabled : t -> bool
(** The daemon-level [reply_cache] knob. *)

val reply_cache_stats : t -> Reply_cache.stats list
(** The counters of every per-node-URI reply cache, as each cache keeps
    them: a top-level call is looked up once, on the receiving thread, so
    [hits + misses] counts the calls the caches were asked about. *)

val event_stats : t -> Eventring.stats list
(** The counters of every per-node replay ring. *)

type run_stats = {
  inline_runs : int;  (** [Inline] calls the receiving thread ran itself *)
  inline_fallbacks : int;
      (** inline attempts that would have waited (a node lock held or
          awaited by a writer, simulated hypervisor time) and went to the
          pool instead *)
  pool_runs : int;
      (** point reads on a local node and listing misses that a pool
          worker ran, bare, in a deadline envelope or in a batch; a
          write's pool run is an ordinary pool job, not counted here *)
}
(** Where the handlers of [Inline] calls on local nodes and of listing
    misses ran, counting each handler run that returned once: inline
    runs of reads and writes alike, pool runs of reads only.
    [inline_runs + pool_runs] equals the point-read calls, the writes
    run inline and the caches' misses.  Local only, never on a wire. *)

val run_stats : t -> run_stats

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
