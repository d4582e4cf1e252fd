(** Guest memory image: the thing live migration actually moves.

    A running domain owns an image of page-granular memory with dirty
    tracking.  Migration experiments copy these pages for real, so
    "migration time grows with memory size and dirty rate" is a measured
    property, not a modeled one.

    Scale: one image byte represents 1 KiB of guest memory (a 1 GiB guest
    allocates a 1 MiB image), so benchmark sweeps stay laptop-sized while
    preserving linear-in-memory behaviour.  Page size is 4 KiB of guest
    memory = 4 image bytes × {!bytes_per_page} — kept as a named constant
    so the scaling is auditable. *)

type t

val bytes_per_page : int
(** Image bytes per tracked page (4: a 4 KiB guest page at 1:1024). *)

val create : memory_kib:int -> t
(** A zeroed image with every page clean.  Its memory is materialized on
    the first {!write_page}, {!install_page} or {!restore_from}; until
    then it reads, snapshots, checksums and compares as all zeros. *)

val memory_kib : t -> int
val page_count : t -> int

val write_page : t -> int -> unit
(** Guest-side write: fills the page with a pattern derived from its index
    and a generation counter, and marks it dirty.
    @raise Invalid_argument on out-of-range index. *)

val dirty_pages : t -> int list
(** Indexes of dirty pages, ascending. *)

val dirty_count : t -> int

val dirty_randomly : t -> rate:float -> seed:int -> unit
(** Deterministic workload: dirties [rate * page_count] distinct pages
    chosen by a seeded generator.  [rate] is clamped to [0, 1]. *)

val read_page : t -> int -> string
(** Copy of the page's bytes (does not clear the dirty bit). *)

val transfer_page : t -> int -> string
(** Copy the page's bytes {e and} clear its dirty bit — the migration
    source primitive. *)

val install_page : t -> int -> string -> unit
(** Migration destination primitive: write received bytes into the page.
    @raise Invalid_argument on size or index mismatch. *)

val snapshot : t -> string
(** All page bytes as one string — the managed-save serialization. *)

val restore_from : t -> string -> unit
(** Overwrite the image with a {!snapshot}'s bytes and mark every page
    clean.  @raise Invalid_argument on a size mismatch. *)

val checksum : t -> int64
(** Content hash of the whole image; equal checksums after migration show
    the copy was faithful. *)

val equal_contents : t -> t -> bool
