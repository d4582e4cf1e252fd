(** Thread-safe in-memory message channels.

    The whole network is simulated in-process: a {!t} is one direction of a
    duplex link, carrying whole messages (the RPC layer above frames its
    packets, so message orientation loses nothing).  Channels substitute
    for kernel sockets — see DESIGN.md, substitution table. *)

type t

exception Closed
(** Raised by {!send} on a closed channel, and by {!recv} once a closed
    channel has been fully drained. *)

val create : unit -> t
(** An unbounded channel. *)

val send : t -> string -> unit
(** Never blocks: the queue is unbounded.  @raise Closed on a closed
    channel. *)

val recv : t -> string
(** Blocks until a message arrives or the channel is closed and empty. *)

val try_recv : t -> string option
(** Non-blocking {!recv}: [None] when nothing is queued.
    @raise Closed once the channel is closed and drained, as {!recv}
    does.  This is the primitive a reactor drains from its readiness
    callback. *)

val recv_opt : t -> timeout_s:float -> string option
(** [None] on timeout.  Waits on a timed condition
    ({!Ovsync.Timedwait.wait}), not a poll loop.  @raise Closed as
    {!recv} does. *)

val close : t -> unit
(** Idempotent.  Wakes all blocked receivers. *)

val is_closed : t -> bool

val pending : t -> int
(** Messages queued but not yet received. *)

(** {1 Readiness hooks}

    The notification primitive under the reactor's simulated epoll: a
    hook fires after every enqueued message and on close — the moments
    a level-triggered poller would report the channel readable.  Hooks
    run outside the channel lock, may fire spuriously, and must not
    block; they should only mark readiness (e.g. enqueue a watch on a
    reactor's ready list). *)

type hook

val add_ready_hook : t -> (unit -> unit) -> hook
val remove_ready_hook : t -> hook -> unit

(** {1 Duplex endpoints} *)

type endpoint = { incoming : t; outgoing : t }

val pipe : unit -> endpoint * endpoint
(** A connected pair: what one side sends, the other receives. *)

val close_endpoint : endpoint -> unit
