(** UUIDs in canonical 8-4-4-4-12 hex form, as used to identify domains,
    networks and storage pools. *)

type t

val generate : unit -> t
(** Fresh unique UUID (version-4 layout; uniqueness from a process-wide
    counter mixed with the clock — no cryptographic randomness needed for
    the simulation). *)

val derive : string -> t
(** The UUID named by a string: the same string always gives the same
    UUID, distinct strings distinct ones (up to a 64-bit hash).  For
    objects a simulated node creates on its own, so they keep one
    identity from run to run. *)

val of_string : string -> (t, string) result
(** Accepts exactly the canonical form, case-insensitive: dashes at
    offsets 8, 13, 18 and 23, hex digits everywhere else.  Any other
    string is an [Error]; it never raises. *)

val to_string : t -> string
(** Canonical lowercase form. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
