(** Event-invalidated, generation-counted client-side cache: one per
    remote connection.

    One row per domain name (what lifecycle events carry).  A row holds
    what the connection knows about that domain: its ref, info,
    autostart flag and XML, each optional and each stamped with the time
    it was written.  Refs are also indexed by UUID.  Correctness under
    concurrency comes from the fill protocol: capture a {!fill} token
    {e before} issuing the remote read, {!install} the reply only if the
    name was not invalidated (and the cache not cleared) in between — an
    event that races an in-flight reply thus wins, and the stale reply
    is dropped instead of cached.

    Every operation takes the cache's one lock once.  All timestamps are
    supplied by the caller ([~now]), so TTL behaviour is deterministic
    under test.  Thread-safe. *)

type t

val create : ?ttl:float -> unit -> t
(** [ttl] bounds each field's freshness in seconds for connections
    without an event stream; omitted, fields stay fresh until
    invalidated. *)

(** The fields of a row. *)
type _ field =
  | Ref : Ovirt_core.Driver.domain_ref field
      (** indexed by its [dom_uuid] ({!find_by_uuid}) *)
  | Info : Ovirt_core.Driver.domain_info field
  | Autostart : bool field
  | Xml : string field

type fill
(** Token capturing cache time (epoch + invalidation sequence) at the
    moment a remote read was issued. *)

val begin_fill : t -> fill

val install : t -> fill -> 'a field -> string -> 'a -> now:float -> bool
(** [install c fill field name v ~now] writes [v] into [name]'s [field]
    unless [name] was invalidated or the cache cleared after [fill] was
    taken; returns whether it was written.  The row's other fields are
    left as they are.  When the field already holds a structurally equal
    value, that value is kept and only its stamp moves to [now]. *)

val install_listing :
  t -> fill -> Ovirt_core.Driver.domain_record list -> now:float -> int
(** Writes each record's ref, info and autostart (when known) into its
    row, in one lock section and under one [fill]: the reply degrades
    per name, so only rows raced by an invalidation are refused.
    Returns the rows written.

    Skipped, returning 0, when it would change nothing: the last listing
    installed was this very list ([==]) and refused no row, nothing has
    changed the cache since in a way a repeated install could undo, no
    invalidation happened since [fill] was taken, and the cache is
    untimed (a TTL cache always refreshes its stamps). *)

val find : t -> 'a field -> string -> now:float -> 'a option

val find_by_uuid :
  t -> Vmm.Uuid.t -> now:float -> Ovirt_core.Driver.domain_ref option

val invalidate : t -> string -> unit
(** Drop [name]'s row and refuse any fill begun before this point.  Its
    UUID stays indexed if a rename has pointed it at another name. *)

val clear : t -> unit
(** Epoch bump: drop everything and void all outstanding fills — the
    reconnect path (event stream has a gap; nothing can be trusted). *)

val epoch : t -> int

val size : t -> int
(** Rows held. *)

val hits : t -> int
(** Lookups served from cache (process lifetime). *)

val misses : t -> int
(** Lookups that fell through to the wire. *)
