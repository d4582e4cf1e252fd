(** Toy TLS-like record layer.

    Stand-in for the real TLS transport (see DESIGN.md): a nonce-mixing
    handshake derives a session key; every record is XORed with a keyed
    xorshift keystream and authenticated with a keyed 64-bit FNV-1a MAC.
    The point is {e not} cryptographic strength.  It is that TLS's two
    costs are really paid: one keystream pass plus one MAC pass over
    every record byte, and a handshake per connection.  The keystream is
    applied a 64-bit word at a time and each record is built in one
    buffer, so the per-byte cost is arithmetic, not allocation; the
    transport-overhead experiments (E3/E4) measure that cost.

    Wire format of a record: [seq] (8 bytes, big-endian), MAC tag
    (8 bytes, big-endian), then the ciphertext, as long as the payload. *)

type session

exception Auth_failure of string
(** Record MAC mismatch (tampering / key mismatch) or bad handshake. *)

val of_key : int64 -> session
(** A fresh session (both sequence numbers 0) over the given key, with
    no handshake.  For known-answer tests only: real connections get
    their key from the handshake below. *)

(** {1 Handshake}

    Classic three-value flow: the client sends a hello carrying its nonce,
    the server answers with its own, both derive the same session key. *)

type hello

val client_hello : unit -> hello * string
(** Fresh client nonce and its wire form. *)

val server_accept : string -> session * string
(** [server_accept client_hello_wire] derives the server session and the
    wire reply.  @raise Auth_failure on a malformed hello. *)

val client_finish : hello -> string -> session
(** [client_finish hello server_reply_wire] derives the client session.
    @raise Auth_failure on a malformed reply. *)

val handshake_pair : unit -> session * session
(** Both ends at once (for in-process tests): client session, server
    session. *)

(** {1 Records} *)

val seal : session -> string -> string
(** Encrypt-and-MAC one record.  Sessions are stateful: records must be
    opened in the order they were sealed (sequence numbers are part of the
    keystream, as in TLS). *)

val open_ : session -> string -> string
(** Decrypt and verify.  @raise Auth_failure on MAC mismatch, truncation,
    or out-of-order delivery. *)

val rekey : session -> session -> unit
(** [rekey a b] rotates both directions' key material in lockstep; the
    sessions must be the two ends of one connection.  Used by the
    admin-interface ablation experiment. *)
