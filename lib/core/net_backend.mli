(** Virtual network backend.

    In libvirt, networks are handled by a dedicated driver living beside
    the hypervisor drivers in the daemon.  Each stateful driver here
    embeds one of these backends, created with the conventional
    ["default"] NAT network already defined and started. *)

type info = {
  net_name : string;
  net_uuid : Vmm.Uuid.t;
  bridge : string;
  ip_range : string;  (** CIDR, e.g. "192.168.122.0/24" *)
  active : bool;
  autostart : bool;
  connected_ifaces : int;  (** NICs of running domains on this network *)
}

type t

val create : ?scope:string -> unit -> t
(** With [scope], every network's UUID is {!Vmm.Uuid.derive}d from the scope
    and its name, so a node rebuilt under the same scope names its networks
    alike; without it, UUIDs are generated. *)

val define : t -> name:string -> bridge:string -> ip_range:string -> (info, Verror.t) result
val undefine : t -> string -> (unit, Verror.t) result
(** Refused while active or while interfaces are connected. *)

val start : t -> string -> (unit, Verror.t) result
val stop : t -> string -> (unit, Verror.t) result
val set_autostart : t -> string -> bool -> (unit, Verror.t) result
val lookup : t -> string -> (info, Verror.t) result
val list : t -> info list
(** Sorted by name. *)

val connect_iface : t -> string -> (unit, Verror.t) result
(** A domain NIC attaches (domain start); the network must be active. *)

val disconnect_iface : t -> string -> unit
(** A domain NIC detaches (domain stop); unknown networks are ignored so
    teardown never fails. *)

val generation : t -> int
(** Monotonic count of completed mutations, bumped inside the locked
    section of every successful state change.  Readers that snapshot it
    before a read and observe the same value afterwards know the read saw
    current state — the validity stamp the daemon's reply cache uses. *)
