(** QEMU-like emulator process simulator with a QMP (JSON) monitor.

    The QEMU driver never touches "KVM" directly: it formats a command
    line, spawns one of these per domain, and drives it exclusively
    through the monitor — the same control path libvirt uses.  Monitor
    traffic is real JSON text both ways, so every command pays genuine
    encode/parse cost.

    Processes start {e paused} (the [-S] flag is mandatory in the argv)
    and need a ["cont"] command, mirroring how libvirt starts QEMU. *)

type t

val spawn :
  Hostinfo.t -> argv:string list -> Vmm.Vm_config.t -> (t, string) result
(** Reserves host resources and allocates the guest memory image.
    Refused if the host lacks capacity, if [-S] is missing from [argv],
    or if the argv names no [-name] matching the config. *)

val pid : t -> int
val argv : t -> string list
val config : t -> Vmm.Vm_config.t
val state : t -> Vmm.Vm_state.state
val is_alive : t -> bool
(** False once the process has exited (powerdown/quit/destroy). *)

val image : t -> Vmm.Guest_image.t
(** Live memory image; migration transfers pages from/to it. *)

val monitor_command : t -> string -> string
(** One QMP exchange: a JSON line in, a JSON line out.  Replies are
    [{"return": ...}] or [{"error": {"class": ..., "desc": ...}}].
    Supported commands: [qmp_capabilities], [query-status], [cont],
    [stop], [system_powerdown], [quit], [query-migrate],
    [inject-crash] (testing aid). *)

val qmp : t -> cmd:string -> ?args:(string * Mini_json.t) list -> unit -> (Mini_json.t, string) result
(** Convenience wrapper over {!monitor_command}: builds the execute
    envelope, parses the reply, maps QMP errors to [Error desc]. *)

val running_on : string -> (string * t) list
(** Live emulator processes on a host, [(domain name, process)] sorted
    by name.  Processes belong to the host and survive a simulated
    manager crash; a restarted driver re-discovers its guests here the
    way libvirt scans for orphaned QEMU processes. *)
