(** ESX driver (stateless, client-side).

    The hypervisor ships its own remote management endpoint and keeps VM
    registrations itself, so this driver holds {e no} domain state: every
    call is an XML exchange with {!Hvsim.Esx_host}, authenticated by a
    session established at [open].  This is the representative of the
    "proprietary hypervisor with native remote API" class that motivates
    libvirt's stateless/stateful driver split.

    URIs: [esx://[user@]<host>/[?password=...]] — credentials default to
    root/"esx".  There is no daemon in this path regardless of transport. *)

val register : unit -> unit

val get_host : string -> Hvsim.Esx_host.t
(** The simulated ESX server for a hostname (created on first use);
    exposed so tests can inspect the server side. *)
