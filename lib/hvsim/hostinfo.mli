(** Physical-host model: the hardware every simulated hypervisor runs on.

    Tracks capacity (memory, logical CPUs) and current reservations so the
    simulators can refuse to start guests that would not fit — the same
    failure mode a real host exhibits. *)

type t

type node_info = {
  model : string;  (** CPU model string *)
  memory_kib : int;  (** total host memory *)
  cpus : int;  (** logical CPUs *)
  mhz : int;
  nodes : int;  (** NUMA cells *)
  sockets : int;
  cores : int;
  threads : int;
}

val create : ?hostname:string -> ?memory_kib:int -> ?cpus:int -> unit -> t
(** Defaults: 16 GiB, 8 CPUs, hostname "node01". *)

val shared : string -> t
(** The process-global host for a hostname (created with default
    capacity on first use).  Shared hosts — and their reservations —
    survive a simulated management-daemon crash, the way hardware
    survives a daemon restart. *)

val hostname : t -> string
val node_info : t -> node_info

val free_memory_kib : t -> int

val reserve : t -> memory_kib:int -> vcpus:int -> (unit, string) result
(** Claim resources for a starting guest.  Memory is strictly accounted;
    vCPUs may oversubscribe up to 8× the physical CPUs (the usual
    hypervisor default) before being refused. *)

val release : t -> memory_kib:int -> vcpus:int -> unit
(** Return resources on guest stop.  Over-release is a programming error
    and raises [Invalid_argument]. *)
