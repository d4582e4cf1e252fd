(** The keepalive program (libvirt's virKeepAlive).

    Rides the ordinary {!Ovrpc.Rpc_packet} framing on an established
    connection under its own program number: the client sends a [PING]
    call whenever the connection has been silent for an interval, and the
    peer answers with the Status_ok reply ([PONG]).  After
    [interval × count] seconds with no traffic at all the peer is
    declared dead and the connection torn down — the signal the
    auto-reconnect logic in the remote driver acts on.  Bodies are
    empty. *)

val program : int
(** 0x6b656570, "keep". *)

val version : int
val proc_ping : int

val default_count : int
