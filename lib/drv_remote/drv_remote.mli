(** Remote driver: the hypervisor-agnostic tunnel through the daemon.

    Selected when a connection URI carries a [+transport] suffix
    ([qemu+tls://node/system], [xen+unix:///]) — exactly libvirt's rule
    that the remote driver accepts what no client-side driver claimed.
    Supported transports: [unix] (default for local daemons), [tcp],
    [tls], and [ssh] (modelled as a tunnel terminating at the daemon's
    unix socket).

    The daemon to contact is named by the [?daemon=<name>] URI parameter
    (default ["ovirtd"]); the URI forwarded to the daemon keeps its
    scheme, host and path, so the daemon opens the matching direct driver
    in-process.

    Lifecycle events stream back as RPC event packets and feed the
    connection's local event bus transparently.

    {1 Protocol negotiation}

    After the open handshake the driver probes the daemon's protocol
    minor ({!Protocol.Remote_protocol.minor}) with [Proc_proto_minor],
    which first appeared in v1.3.  A daemon that rejects the probe
    predates v1.3 and is refused: the open (or, on reconnect, the
    attempt) fails with [Operation_unsupported].  v1.3 is therefore the
    oldest daemon the driver talks to, and bulk listing
    ([Proc_dom_list_all]) and path-indexed volume lookup
    ([Proc_vol_lookup]) always go on the wire as one call.  Newer
    procedures (the v1.4 deadline envelope, the v1.6 resumable event
    stream, the v1.7 annotated fleet listing, the v1.8 conditional
    listing) are sent only to daemons that serve them.

    {1 Bulk listings}

    A bulk listing takes one wire path, picked by the negotiated minor:
    - v1.8: [Proc_fleet_list_since] carries the token of the listing
      the connection last decoded (kept across reconnects; the daemon's
      boot nonce tells incarnations apart).  An unchanged daemon
      answers in 12 bytes and the driver returns the very listing it
      holds; otherwise the reply is the full listing and its new token.
    - v1.7: [Proc_fleet_list_all]; v1.3–v1.6: [Proc_dom_list_all].
    On every path a reply byte-equal to the last one reuses the value
    decoded from it ({!decode_reusing}): that is what serves a daemon
    that answers every v1.8 call in full (its reply cache off, or a
    fleet controller).  Either way the rows refill the client cache,
    unless it holds that very listing and nothing has changed it since
    ({!Remote_cache.install_listing}).

    {1 Client-side caching}

    Domain metadata (refs, info, autostart, XML) answered by the daemon is
    cached per connection and invalidated by pushed lifecycle events,
    with a fill protocol that drops any reply raced by an event (see
    {!Remote_cache}).  URI parameters (stripped before forwarding):
    - [cache=0] disables the cache;
    - [events=0] skips event registration, switching the cache to pure
      TTL freshness;
    - [cache_ttl=<seconds>] bounds entry lifetime (default: unbounded
      with events, 1s without).

    {1 Resumable event streams (protocol v1.6)}

    Against a v1.6 daemon the event subscription is sequence-numbered:
    the daemon stamps every pushed event with its position in a bounded
    per-node replay ring, and the client remembers the last position it
    processed.  A reconnect then {e resumes} rather than re-registers —
    one [Proc_event_resume] call atomically re-arms the subscription and
    replays every retained event the client missed, each running through
    the normal delivery pipeline (cache invalidation first, then the
    local re-emit), so the cache survives the outage {e consistently}
    instead of being cleared wholesale.  Live pushes racing the resume
    are parked and delivered after the replay, preserving seq order with
    no duplicates and no losses.

    When the daemon cannot bridge the outage — the ring wrapped past the
    client's position, or the daemon restarted — the resume reply says
    so explicitly: the driver flushes the caches wholesale and emits a
    single {!Ovirt_core.Events.Ev_resync} pseudo-event telling
    subscribers to re-list.  There is no silent loss in either case.

    Against older daemons (or with [resume=0]) reconnects keep the
    pre-v1.6 behavior: plain re-registration and a wholesale cache
    clear.  URI parameters (stripped before forwarding):
    - [resume=0] disables resume (plain re-registration on reconnect);
    - [resume_from=<seq>] starts the very first subscription at the
      given position, replaying what the daemon retains beyond it —
      lets a fresh process (e.g. [ovirsh event --since]) continue a
      predecessor's stream.

    {1 Resilience}

    URI parameters (all stripped before the URI is forwarded):
    - [keepalive=<seconds>] enables libvirt-style keepalive pings with
      the given interval; [keepalive_count=<n>] overrides the default
      miss count (a count below 1 is refused with [Invalid_arg]).
    - [reconnect=<n>] enables auto-reconnect with a budget of [n]
      attempts per outage.  On connection death the driver re-establishes
      the transport (exponential backoff with deterministic jitter,
      tunable via [reconnect_delay], [reconnect_max_delay] and
      [reconnect_seed]), replays the open handshake, re-probes the
      protocol minor, resumes the event stream (see above; older
      daemons: re-registers and drops the cache), and
      transparently retries the interrupted call iff it is idempotent
      ({!Protocol.Remote_protocol.is_idempotent}); mutating calls
      surface [Rpc_failure] for the caller to decide.  After the budget
      is exhausted the connection is defunct and every call fails
      fast.

    {1 Overload protection}

    - [timeout=<seconds>] gives every call an end-to-end deadline.
      Against a v1.4 daemon the budget travels with the call as a
      deadline envelope, so the daemon refuses to start work whose
      deadline expired while queued and driver operations stop waiting
      for node locks once the budget runs out; against older daemons the
      parameter only bounds the client-side wait.
    - A daemon that sheds a call under admission control answers
      [Verror.Overloaded] with a [retry_after_ms] hint.  Shed calls are
      {e never} auto-retried (the daemon explicitly asked us to back
      off) and never treated as a transport failure.
    - [breaker=<k>] (default 3, [0] disables): after [k] {e consecutive}
      shed replies the per-connection circuit breaker opens and calls
      fail fast locally — also with [Overloaded] and the remaining wait
      as the hint — for the daemon's advertised retry_after window
      (deterministically jittered).  After the window one call probes
      the daemon (half-open); a served probe closes the breaker, another
      shed reopens it. *)

module Cache = Remote_cache
(** The cache machinery, exposed for unit tests. *)

val decode_reusing :
  (Protocol.Remote_protocol.procedure * string * 'a) option Atomic.t ->
  Protocol.Remote_protocol.procedure -> (string -> 'a) -> string ->
  ('a, Ovirt_core.Verror.t) result
(** Every connection's listing decode, exposed for unit tests: a body
    byte-equal to the one held for the same procedure reuses its value. *)

val register : unit -> unit
(** Register last: its probe accepts any transport-suffixed URI. *)

(** {1 Connection statistics}

    Counters are kept per connection so concurrent connections do not
    smear each other's numbers; {!stats} aggregates across every
    connection of the process (chaos experiments {!reset_stats} before a
    run and {!stats} after), while {!conn_stats} reads one connection's
    own counters. *)

type stats = {
  st_calls : int;
      (** request round trips put on the wire *)
  st_reconnect_attempts : int;  (** establishment attempts during outages *)
  st_reconnects : int;  (** outages successfully recovered *)
  st_retried_calls : int;  (** idempotent calls transparently re-issued *)
  st_giveups : int;  (** outages that exhausted the budget *)
  st_recovery_latencies : float list;
      (** seconds from outage detection to restored connection, most
          recent first *)
  st_overloaded : int;
      (** calls the daemon shed with [Overloaded] (admission control) *)
  st_breaker_opens : int;  (** circuit-breaker open transitions *)
  st_breaker_fastfails : int;
      (** calls failed locally, without touching the wire, while the
          breaker was open *)
  st_sub_errors : int;
      (** shard errors reported inside annotated (v1.7) fleet listings;
          a degraded listing omits those shards' rows, so this is how a
          caller detects a partially-failed listing *)
  st_events_replayed : int;
      (** events recovered through v1.6 resume replays after reconnects *)
  st_event_gaps : int;
      (** resume gap verdicts — each forced a wholesale cache flush and
          an [Ev_resync] emission *)
  st_listings : int;  (** bulk listing replies received *)
  st_listings_unchanged : int;
      (** of which v1.8 "unchanged" replies, answered with the listing
          the connection already held *)
  st_listing_bytes : int;  (** bytes of those replies' bodies *)
  st_rows_installed : int;
      (** client-cache rows those replies wrote, one per row and cache
          kind (ref, info, autostart); a listing the caches already hold
          writes none *)
}

val stats : unit -> stats
(** Sum over all connections ever opened by this process. *)

val reset_stats : unit -> unit
(** Zero every connection's counters (live ones included). *)

val conn_stats : Ovirt_core.Driver.ops -> stats option
(** The counters of the open connection behind [ops], identified by its
    event bus; [None] if [ops] does not come from this driver or its
    connection is closed (closing folds the counts into {!stats}). *)
