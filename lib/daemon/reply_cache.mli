(** Server-side reply cache for hot read procedures.

    Stores XDR-encoded reply bodies keyed by [(procedure, canonical
    argument bytes)], each stamped with the driver write generation
    current when the reply was computed.  A hit hands back a body that
    the caller frames with its own serial ({!Ovrpc.Rpc_packet.encode})
    — no read lock, no body decode, no handler, no re-encode.

    Entry validity is the generation stamp: a lookup whose [gen]
    disagrees with the stored stamp removes the entry (counted as an
    invalidation) and reports a miss.  {!invalidate_all} is the
    proactive path, driven by the driver event bus; the stamp check is
    the correctness backstop for writes that emit no event.  Capacity is
    a strict LRU bound.

    Every insert also stamps its entry with a fill number from a
    per-cache counter that starts at 1 and only grows.  While an entry
    lives, its number names the body it holds: that is the validity a
    conditional listing ({!find_since}) asks about.

    All operations are thread-safe (one internal mutex per cache) and
    allocation-light; none of them block on anything but that mutex. *)

type t

type stats = {
  hits : int;
  misses : int;  (** includes stale-stamp lookups *)
  insertions : int;
  invalidations : int;  (** stale-stamp removals + proactive flush entries *)
  evictions : int;  (** LRU capacity evictions *)
  patched_sends : int;  (** cached replies sent from the receiving thread *)
  unchanged : int;
      (** conditional listings answered "unchanged" (sent on no wire) *)
  entries : int;  (** current *)
  bytes : int;  (** current sum of cached body lengths *)
}

val create : max_entries:int -> t
(** [max_entries] is clamped to at least 1. *)

val find : t -> proc:int -> args:string -> gen:int -> string option
(** Valid cached body for this key at generation [gen], refreshing its
    LRU position.  A present-but-stale entry is dropped and [None]
    returned. *)

val insert : t -> proc:int -> args:string -> gen:int -> string -> unit
(** Store a body computed at generation [gen], evicting the LRU entry
    when full.  Re-inserting an existing key replaces its body and
    stamp together. *)

val insert_numbered : t -> proc:int -> args:string -> gen:int -> string -> int
(** {!insert}, returning the fill number the entry now carries. *)

type since =
  | Unchanged  (** the live entry carries the caller's fill number *)
  | Changed of { frame : string; fill : int }
      (** the live entry holds another fill: its reply body and number *)
  | Absent  (** no live entry: evicted, flushed, stale or never filled *)

val find_since : t -> proc:int -> args:string -> gen:int -> fill:int -> since
(** {!find}, asked by a caller holding the body of fill [fill] (0 for
    none).  Counts as a hit or a miss exactly as {!find} does; an
    [Unchanged] answer also counts in [unchanged]. *)

val invalidate_all : t -> unit
(** Drop everything (the event-bus invalidation path). *)

val note_patched_send : t -> unit
(** Count one cached reply sent from the receiving thread. *)

val stats : t -> stats
