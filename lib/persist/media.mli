(** Simulated durable medium (process-global path -> bytes table).

    Contents survive driver-node resets and daemon kills — this is the
    "disk" under the write-ahead journal.  A per-path write limit
    provides deterministic crash-point injection: bytes past the limit
    are dropped at append time, producing a torn tail exactly like a
    crash in the middle of a write. *)

val read : string -> string option
(** A copy of the image: later appends do not change it. *)

val exists : string -> bool
val size : string -> int

val write : string -> string -> unit
(** Atomic whole-file replace (used for snapshot compaction), cut at
    the write limit like an append. *)

val append : string -> string -> unit
(** Costs the appended bytes (amortised), not the image size. *)

val truncate : string -> int -> unit
val remove : string -> unit

val list : prefix:string -> string list
(** Paths under [prefix], sorted. *)

val set_write_limit : string -> int option -> unit
(** Cap the persisted size of [path]; writes and appends beyond the
    cap are cut.  [None] removes the cap (already-cut bytes stay
    lost). *)

val reset : unit -> unit
(** Wipe the medium (test isolation). *)
