(** Transport connections: framing and per-transport costs over {!Chan}.

    Three transport classes, mirroring libvirt's main remote transports:

    - [Unix_sock] — local socket: messages cross the channel untouched and
      the peer carries UNIX credentials (SO_PEERCRED equivalent);
    - [Tcp] — remote, unencrypted: every message is integrity-checksummed
      (one real pass over the bytes, standing in for kernel checksum work)
      and the peer carries a network address;
    - [Tls] — remote, encrypted: a {!Tlslike} handshake at accept time and
      seal/open on every message (keyed stream transform + MAC).

    The cost ordering unix < tcp < tls is therefore physically incurred,
    which is what experiments E3/E4 measure. *)

type kind = Unix_sock | Tcp | Tls

val kind_name : kind -> string
(** ["unix"], ["tcp"], ["tls"]. *)

val kind_of_name : string -> (kind, string) result
(** A URI's transport: {!kind_name}'s names, plus ["ssh"] and
    ["libssh2"] for [Unix_sock] (a tunnel to the daemon's unix socket).
    [Error "unknown transport ..."] otherwise. *)

val kind_to_int : kind -> int
(** The admin wire's transport code: 0 unix, 1 tcp, 2 tls. *)

val kind_of_int : int -> kind option
(** The inverse of {!kind_to_int}; [None] for any other code. *)

(** Peer identity, as the server side sees it. *)

type unix_identity = {
  uid : int;
  gid : int;
  pid : int;
  username : string;
  groupname : string;
}

type peer =
  | Local of unix_identity  (** unix-socket peer credentials *)
  | Remote of { sock_addr : string; x509_dname : string option }
      (** network peer; [x509_dname] present on TLS connections *)

type t

exception Closed
(** The underlying channel was closed. *)

exception Corrupt of string
(** Checksum or TLS authentication failure on a received message. *)

val kind : t -> kind
val peer : t -> peer
val send : t -> string -> unit
val recv : t -> string
val recv_opt : t -> timeout_s:float -> string option

val try_recv : t -> string option
(** Non-blocking {!recv}: [None] when no frame is queued.  Raises as
    {!recv} does ([Closed], [Corrupt]).  The reactor's drain primitive. *)

val pending : t -> bool
(** A receive would not block: a frame is queued, or the inbound side is
    closed. *)

val on_readable : t -> (unit -> unit) -> unit -> unit
(** [on_readable conn f] runs [f] whenever the inbound side turns
    readable (a frame queued, or a close), with {!Chan}'s ready-hook
    rules: outside any channel lock, possibly spuriously, never
    blocking.  Returns the function that removes the hook.  This lets a
    reader park on a condition of its own instead of in {!recv}. *)

val close : t -> unit
val is_closed : t -> bool

val bytes_tx : t -> int
(** Total payload bytes sent on this end. *)

val bytes_rx : t -> int

val rekey : t -> t -> unit
(** Rotate TLS key material on both ends of one TLS connection (ablation
    hook).  No-op on other kinds. *)

(** {1 Establishment} — used by {!Netsim}; exposed for direct tests. *)

val initiate : kind -> peer_sends:peer -> Chan.endpoint -> t
(** Client side: performs the client half of any handshake, transmitting
    [peer_sends] (the identity this client presents) to the server. *)

val accept : kind -> Chan.endpoint -> t
(** Server side: blocks for the client's handshake/identity. *)

(** {2 Non-blocking accept} — the same establishment as {!accept}, run as
    a state machine fed one inbound frame at a time, so a reactor can
    multiplex many handshakes on one thread.  [accept] is this machine
    driven from a blocking [Chan.recv]. *)

type accept_state

val accept_start : kind -> Chan.endpoint -> accept_state

val accept_feed : accept_state -> string -> [ `Again | `Conn of t ]
(** Feed the next raw inbound frame.  [`Again] wants more frames (TLS
    hello consumed, reply already sent); [`Conn] is the established
    connection.  Raises {!Corrupt} (or a {!Tlslike} handshake failure) on
    a bad frame, as the blocking accept would. *)
