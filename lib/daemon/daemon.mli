(** Daemon assembly: ovirtd.

    Hosts two servers, exactly as libvirtd does once the administration
    interface exists:

    - ["libvirtd"]: the hypervisor management server, reachable over
      unix/tcp/tls at the address {!mgmt_address};
    - ["admin"]: the administration server, unix-socket only (root-only
      in spirit) at {!admin_address}.

    Initial settings come from a {!Daemon_config.t}; everything the admin
    interface covers can then be changed at runtime. *)

type t

val start : ?name:string -> ?config:Daemon_config.t -> unit -> t
(** [name] defaults to ["ovirtd"]; it prefixes the simulated socket
    addresses, so tests can run isolated daemons.
    @raise Ovnet.Netsim.Address_in_use if a daemon of that name runs. *)

val stop : t -> unit
(** Close listeners and clients, stop workerpools.  Idempotent. *)

val kill : t -> unit
(** Simulated crash (SIGKILL): like {!stop} but never waits for a running
    drain and abandons in-flight work.  Pair with the driver registries'
    [reset_nodes] to model a full manager crash; a subsequent {!start}
    plus reconnect exercises journal replay and reconciliation. *)

val drain : t -> unit
(** Graceful shutdown: close listeners, mark every server draining (new
    calls refused with [Operation_invalid], keepalive pings still
    answered), wait for queued and in-flight dispatches to finish, then
    {!stop}.  Blocks until done; also reachable over the admin program
    ([Proc_daemon_drain]), which runs it in the background. *)

val name : t -> string

val reactors : t -> Ovreactor.Reactor.t array
(** The reactor loops that serve every connection — for stats. *)

val buffer_pool : t -> Ovreactor.Bufpool.t option
(** The shared receive-buffer pool; always [Some]. *)

val mgmt_address : t -> string
(** ["<name>-sock"] — connect here with any transport kind. *)

val admin_address : t -> string
(** ["<name>-admin-sock"]. *)

val logger : t -> Vlog.t
val servers : t -> (string * Server_obj.t) list
val find_server : t -> string -> Server_obj.t option
val uptime_s : t -> float

val reconciler : t -> Reconcile.t
(** The daemon's policy reconciler.  Its plan journal lives at
    [/var/lib/ovirt/reconcile/<name>.journal], so a restarted daemon of
    the same name resumes any plan its predecessor journaled but never
    finished applying. *)
