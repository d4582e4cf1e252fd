(** Container host: shared-kernel virtualization substrate.

    Models the kernel facilities the LXC driver manipulates — a cgroup
    tree (hierarchical parameters under [/machine/<name>]) and per-
    container namespace sets — rather than a hypervisor.  Freezing uses
    the freezer cgroup, resource limits are plain cgroup parameters, and
    "starting" a container is assigning an init PID, exactly the
    management surface the driver needs. *)

type t

type container_state = Stopped | Running | Frozen

type container_info = {
  name : string;
  info_state : container_state;
  init_pid : int option;
  memory_limit_kib : int;
  namespaces : string list;  (** e.g. ["pid"; "net"; "ipc"; "uts"; "mnt"] *)
}

val create : Hostinfo.t -> t
val host : t -> Hostinfo.t

val attach : string -> t
(** The process-global container host for a hostname (created on the
    {!Hostinfo.shared} host on first use).  Kernel state — containers,
    cgroups — survives a simulated manager crash; a restarted LXC
    driver attaches instead of creating. *)

(** {1 Cgroup tree} *)

val cgroup_get : t -> string -> string -> string option
val cgroup_exists : t -> string -> bool

(** {1 Containers} *)

val define : t -> Vmm.Vm_config.t -> (unit, string) result
(** Register a container config (must be [Container_exe]); creates its
    cgroup with the memory limit parameter. *)

val undefine : t -> string -> (unit, string) result
val start : t -> string -> (unit, string) result
(** Clones namespaces, assigns an init PID, reserves host memory. *)

val stop : t -> string -> (unit, string) result
val freeze : t -> string -> (unit, string) result
val thaw : t -> string -> (unit, string) result

val info : t -> string -> (container_info, string) result
val list : t -> string list
(** All defined container names, sorted. *)

val set_memory_limit : t -> string -> int -> (unit, string) result
(** Live resize via the cgroup parameter; only the cgroup changes, the
    definition keeps its configured value (like cgroup edits do). *)
