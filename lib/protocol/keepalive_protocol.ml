(* The keepalive program, modelled on libvirt's virKeepAlive: its own
   program number (never colliding with REMOTE or ADMIN), two messages,
   empty bodies.  A PING is sent as a Call; the PONG is the Status_ok
   Reply to it.  Clients that stay silent are not probed by the daemon;
   like virsh, it is the client that measures the connection. *)

let program = 0x6b656570 (* "keep" *)
let version = 1
let proc_ping = 1

let default_count = 5
