(** RPC packet framing, libvirt-style.

    Every message on a connection is one packet: a 4-byte big-endian
    length (covering header + body), an XDR header
    [(program:u32, version:u32, procedure:i32, type:i32, serial:u32,
    status:i32)], then the XDR-encoded body.  Replies echo the call's
    serial; [status = Error] means the body is a serialized error. *)

type msg_type = Call | Reply | Event

type status = Status_ok | Status_error

type header = {
  program : int;
  version : int;
  procedure : int;
  msg_type : msg_type;
  serial : int;
  status : status;
}

exception Bad_packet of string

val max_packet_size : int
(** Upper bound on accepted packet length (4 MiB, like libvirt's
    [VIR_NET_MESSAGE_MAX]); oversized packets raise {!Bad_packet}. *)

val encode : header -> string -> string
(** [encode header body] produces the full framed packet. *)

val encode_into : Xdr.encoder -> header -> (Xdr.encoder -> unit) -> string
(** [encode_into enc header enc_body] builds the same framed packet as
    {!encode} but XDR-encodes the body in place behind a reserved
    length+header prefix inside [enc] (which is {!Xdr.reset} first and may
    be reused, or borrow pooled backing bytes).  This skips the body
    string allocation and body→frame blit of the [encode] path; the one
    remaining copy extracts the final immutable frame. *)

val prefix_bytes : int
(** Length prefix + header: the byte offset where a frame's body starts
    (28). *)

val with_serial : string -> int -> string
(** [with_serial frame serial] is a copy of the framed packet with its
    serial word (byte offset 20) replaced.  Reply bodies never depend on
    the serial, so a cached frame can be replayed for a different call
    by rewriting this word alone.  A copy, not an in-place patch:
    senders retain references to transmitted strings, so cached frames
    must never be mutated.  @raise Bad_packet if [frame] is shorter than
    a header. *)

val decode : string -> header * string
(** Inverse of {!encode}.  @raise Bad_packet on any malformation:
    truncation, length mismatch, unknown type/status, oversize. *)

(** {2 Byte-stream framing} — the reactor's per-connection state machine
    peels packets out of an accumulation buffer wherever frame boundaries
    fall (split or coalesced arbitrarily, like a real TCP stream). *)

val frame_length : string -> pos:int -> avail:int -> int option
(** Header-read step: with [avail] bytes available at [pos], [None] means
    the 4-byte length prefix is still incomplete; [Some n] is the full
    frame length (prefix included) to wait for.  @raise Bad_packet when
    the prefix declares an oversized or impossibly short packet. *)

val decode_sub : string -> pos:int -> len:int -> header * string
(** Payload-read step: decode the complete frame spanning
    [\[pos, pos+len)].  [decode wire] is
    [decode_sub wire ~pos:0 ~len:(String.length wire)].
    @raise Bad_packet as {!decode}. *)

val call_header : program:int -> version:int -> procedure:int -> serial:int -> header

val reply_ok : header -> header
(** Reply header echoing a call's identity. *)

val reply_error : header -> header

val event_header : program:int -> version:int -> procedure:int -> header
(** Events carry serial 0: they answer no call. *)
