(** Event-invalidated, generation-counted client-side cache.

    Values are keyed by domain name (what lifecycle events carry) with a
    secondary UUID index.  Correctness under concurrency comes from the
    fill protocol: capture a {!fill} token {e before} issuing the remote
    read, {!install} the reply only if the name was not invalidated (and
    the cache not cleared) in between — an event that races an in-flight
    reply thus wins, and the stale reply is dropped instead of cached.

    All timestamps are supplied by the caller ([~now]), so TTL behaviour
    is deterministic under test.  Thread-safe. *)

type 'a t

val create : ?ttl:float -> unit -> 'a t
(** [ttl] bounds entry freshness in seconds for connections without an
    event stream; omitted, entries stay fresh until invalidated. *)

type fill
(** Token capturing cache time (epoch + invalidation sequence) at the
    moment a remote read was issued. *)

val begin_fill : 'a t -> fill

val install :
  'a t -> fill -> string -> ?uuid:string -> 'a -> now:float -> bool
(** [install c fill name ?uuid v ~now] caches [v] for [name] unless
    [name] was invalidated or the cache cleared after [fill] was taken;
    returns whether the value was installed.  When [name] already holds
    the same [uuid] and a structurally equal value, that entry is kept
    and only its stamp moves to [now]. *)

val install_bulk :
  'a t ->
  fill ->
  now:float ->
  ((string -> ?uuid:string -> 'a -> bool) -> 'b) ->
  'b
(** [install_bulk c fill ~now rows] runs [rows add] holding [c]'s lock
    once, where [add name ?uuid v] is {!install}[ c fill name ?uuid v
    ~now] for one row of a bulk reply.  The rows share [fill], so the
    reply degrades per name: only the rows raced by an event are refused.
    [add] must not escape [rows]. *)

val install_listing :
  'a t ->
  fill ->
  serial:int ->
  now:float ->
  ((string -> ?uuid:string -> 'a -> bool) -> unit) ->
  bool
(** {!install_bulk} for a decoded listing numbered [serial] (equal
    serials: the same rows), skipped when it would change nothing:
    the last bulk install into [c] was of [serial] and refused no row,
    nothing has changed [c] since, no invalidation happened since [fill]
    was taken, and [c] is untimed (a TTL cache always refreshes its
    stamps).  Returns whether [rows] ran. *)

val find : 'a t -> string -> now:float -> 'a option
val find_by_uuid : 'a t -> string -> now:float -> 'a option

val invalidate : 'a t -> string -> unit
(** Drop [name]'s entry and refuse any fill begun before this point.
    Its UUID stays indexed if a rename has pointed it at another name. *)

val clear : 'a t -> unit
(** Epoch bump: drop everything and void all outstanding fills — the
    reconnect path (event stream has a gap; nothing can be trusted). *)

val epoch : 'a t -> int
val size : 'a t -> int

val hits : 'a t -> int
(** Lookups served from cache (process lifetime). *)

val misses : 'a t -> int
(** Lookups that fell through to the wire. *)
