(** Server-side reply cache for the bulk listings.

    Stores XDR-encoded reply bodies keyed by [(procedure, canonical
    argument bytes)], each stamped with the driver write generation
    current when the reply was computed.  A hit hands back a body that
    the caller frames with its own serial ({!Ovrpc.Rpc_packet.encode})
    — no read lock, no body decode, no handler, no re-encode.

    Entry validity is the generation stamp: a lookup whose [gen]
    disagrees with the stored stamp removes the entry (counted as an
    invalidation) and reports a miss.  {!invalidate_all} is the
    proactive path, driven by the driver event bus; the stamp check is
    the correctness backstop for writes that emit no event.  A full
    cache drops its least recently filled entry; the daemon fills only
    [dom_list_all] and [fleet_list_all], so it holds at most two keys.

    Every insert also stamps its entry with a fill number from a
    per-cache counter that starts at 1 and only grows.  While an entry
    lives, its number names the body it holds: that is the validity a
    conditional listing asks about ({!find_since}).

    All operations are thread-safe (one internal mutex per cache) and
    allocation-light; none of them block on anything but that mutex. *)

type t

type stats = {
  hits : int;
  misses : int;  (** includes stale-stamp lookups *)
  insertions : int;
  invalidations : int;  (** stale-stamp removals + proactive flush entries *)
  evictions : int;  (** entries dropped to stay within [max_entries] *)
  patched_sends : int;  (** cached replies sent from the receiving thread *)
  unchanged : int;
      (** conditional listings answered "unchanged" (sent on no wire) *)
  entries : int;  (** current *)
  bytes : int;  (** current sum of cached body lengths *)
}

val create : max_entries:int -> t
(** [max_entries] is clamped to at least 1. *)

type since =
  | Unchanged  (** the live entry carries the caller's fill number *)
  | Changed of { frame : string; fill : int }
      (** the live entry holds another fill: its reply body and number *)
  | Absent  (** no live entry: evicted, flushed, stale or never filled *)

val find_since : t -> proc:int -> args:string -> gen:int -> fill:int -> since
(** The one lookup: the live entry for this key at generation [gen],
    asked by a caller holding the body of fill [fill].  A plain read
    holds none and passes 0, which no entry carries, so a live entry
    answers [Changed] with its body.  A present-but-stale entry is
    dropped (an invalidation) and the lookup is a miss.  An [Unchanged] answer also counts in
    [unchanged]. *)

val insert : t -> proc:int -> args:string -> gen:int -> string -> int
(** Store a body computed at generation [gen], evicting the least
    recently filled entry when full, and return the fill number the entry now carries.
    Re-inserting an existing key replaces its body, stamp and number
    together. *)

val invalidate_all : t -> unit
(** Drop everything (the event-bus invalidation path). *)

val note_patched_send : t -> unit
(** Count one cached reply sent from the receiving thread. *)

val stats : t -> stats
