(** Write-ahead journal: length-prefixed, checksummed records on
    {!Media}, with torn-tail truncation on replay and atomic rewrite
    for snapshot compaction. *)

type t

type replay = {
  rp_records : string list;  (** complete records, in append order *)
  rp_torn_bytes : int;  (** bytes of torn tail truncated on open *)
}

val open_ : string -> t * replay
(** Open (creating if absent) the journal at a media path, replaying
    the record prefix and truncating any torn tail. *)

val append : t -> string -> unit
val rewrite : t -> string list -> unit
(** Atomically replace the journal contents with the given records
    (snapshot compaction). *)

val path : t -> string
val record_count : t -> int

val encode_record : string -> string
(** Wire frame for one record (exposed for crash-sweep tests that need
    record boundaries). *)

val replay_throttle : float ref
(** Test hook: seconds of delay per replayed record in {!open_}. *)
