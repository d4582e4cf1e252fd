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

let fail fmt = Format.kasprintf (fun s -> raise (Bad_packet s)) fmt

let max_packet_size = 4 * 1024 * 1024

let msg_type_to_int = function Call -> 0 | Reply -> 1 | Event -> 2

let msg_type_of_int = function
  | 0 -> Call
  | 1 -> Reply
  | 2 -> Event
  | n -> fail "unknown message type %d" n

let status_to_int = function Status_ok -> 0 | Status_error -> 1

let status_of_int = function
  | 0 -> Status_ok
  | 1 -> Status_error
  | n -> fail "unknown status %d" n

(* Framing runs once per RPC in both directions, so encode writes the
   length prefix and header straight into one exact-size buffer: no
   intermediate encoders, no string concatenation.  All six header
   fields are 4-byte XDR words. *)
let header_bytes = 24
let max_body_size = max_packet_size - header_bytes

let put_u32 buf off v =
  Bytes.set_uint8 buf off ((v lsr 24) land 0xff);
  Bytes.set_uint8 buf (off + 1) ((v lsr 16) land 0xff);
  Bytes.set_uint8 buf (off + 2) ((v lsr 8) land 0xff);
  Bytes.set_uint8 buf (off + 3) (v land 0xff)

let encode header body =
  let total = header_bytes + String.length body in
  if total > max_packet_size then fail "packet of %d bytes exceeds maximum" total;
  let buf = Bytes.create (4 + total) in
  put_u32 buf 0 total;
  put_u32 buf 4 header.program;
  put_u32 buf 8 header.version;
  put_u32 buf 12 header.procedure;
  put_u32 buf 16 (msg_type_to_int header.msg_type);
  put_u32 buf 20 header.serial;
  put_u32 buf 24 (status_to_int header.status);
  Bytes.blit_string body 0 buf 28 (String.length body);
  Bytes.unsafe_to_string buf

(* Absolute offset of the serial word in a framed packet: 4-byte length
   prefix, then program@4, version@8, procedure@12, type@16, serial@20. *)
let serial_offset = 20

let with_serial frame serial =
  if String.length frame < 4 + header_bytes then
    fail "with_serial: %d-byte frame is shorter than a header"
      (String.length frame);
  let buf = Bytes.of_string frame in
  put_u32 buf serial_offset serial;
  Bytes.unsafe_to_string buf

let u32_at s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

(* Byte-stream framing for the reactor path: a connection's inbound bytes
   accumulate in a buffer and packets are peeled off wherever frame
   boundaries happen to fall (coalesced, split — anything a real TCP
   stream does).  [frame_length] is the header-read step, [decode_sub]
   the payload-read step; [decode] is the aligned special case. *)

let frame_length wire ~pos ~avail =
  if avail < 4 then None
  else begin
    let total = u32_at wire pos in
    if total > max_packet_size then
      fail "packet of %d bytes exceeds maximum" total;
    if total < header_bytes then
      fail "bad header: packet of %d bytes is shorter than a header" total;
    Some (4 + total)
  end

let decode_sub wire ~pos ~len =
  if len < 4 then fail "packet shorter than its length prefix";
  let total = u32_at wire pos in
  if total > max_packet_size then fail "packet of %d bytes exceeds maximum" total;
  if len - 4 <> total then
    fail "length prefix says %d bytes, packet carries %d" total (len - 4);
  if total < header_bytes then
    fail "bad header: packet of %d bytes is shorter than a header" total;
  let program = u32_at wire (pos + 4) in
  let version = u32_at wire (pos + 8) in
  let procedure =
    (* signed i32, as the XDR header declares it *)
    let v = u32_at wire (pos + 12) in
    if v land 0x8000_0000 <> 0 then v - 0x1_0000_0000 else v
  in
  let msg_type = msg_type_of_int (u32_at wire (pos + 16)) in
  let serial = u32_at wire (pos + 20) in
  let status = status_of_int (u32_at wire (pos + 24)) in
  let body = String.sub wire (pos + 4 + header_bytes) (total - header_bytes) in
  ({ program; version; procedure; msg_type; serial; status }, body)

let decode wire = decode_sub wire ~pos:0 ~len:(String.length wire)

let call_header ~program ~version ~procedure ~serial =
  { program; version; procedure; msg_type = Call; serial; status = Status_ok }

let reply_ok header = { header with msg_type = Reply; status = Status_ok }
let reply_error header = { header with msg_type = Reply; status = Status_error }

let event_header ~program ~version ~procedure =
  { program; version; procedure; msg_type = Event; serial = 0; status = Status_ok }
