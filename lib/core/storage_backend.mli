(** Storage pool/volume backend.

    Mirrors libvirt's storage driver with a directory-pool-like backend:
    pools have a capacity budget, volumes allocate from it, and domain
    disks reference volumes by path.  Each stateful driver embeds one,
    pre-provisioned with the conventional ["default"] pool. *)

type pool_info = {
  pool_name : string;
  pool_uuid : Vmm.Uuid.t;
  target_path : string;
  capacity_b : int;  (** bytes *)
  allocation_b : int;  (** bytes currently allocated to volumes *)
  pool_active : bool;
  volume_count : int;
}

type vol_info = {
  vol_name : string;
  vol_key : string;  (** full path: <target_path>/<name> *)
  vol_capacity_b : int;
  vol_format : string;
}

type t

val create : ?scope:string -> unit -> t
(** With [scope], every pool's UUID is {!Vmm.Uuid.derive}d from the scope
    and its name, so a node rebuilt under the same scope names its pools
    alike; without it, UUIDs are generated. *)

val define_pool :
  t -> name:string -> target_path:string -> capacity_b:int -> (pool_info, Verror.t) result

val undefine_pool : t -> string -> (unit, Verror.t) result
(** Refused while active or non-empty. *)

val start_pool : t -> string -> (unit, Verror.t) result
val stop_pool : t -> string -> (unit, Verror.t) result
val lookup_pool : t -> string -> (pool_info, Verror.t) result
val list_pools : t -> pool_info list

val create_volume :
  t -> pool:string -> name:string -> capacity_b:int -> format:string ->
  (vol_info, Verror.t) result
(** Fails with [Resource_exhausted] when the pool budget is exceeded. *)

val delete_volume : t -> pool:string -> name:string -> (unit, Verror.t) result
val lookup_volume : t -> pool:string -> name:string -> (vol_info, Verror.t) result
val list_volumes : t -> pool:string -> (vol_info list, Verror.t) result

val volume_by_path : t -> string -> (vol_info, Verror.t) result
(** Resolve a disk's [source_path] to its volume across all pools. *)

val generation : t -> int
(** Monotonic count of completed mutations (pool and volume), bumped
    inside the locked section of every successful state change; see
    {!Net_backend.generation}. *)
