(* Length-prefixed, checksummed write-ahead journal on {!Media}.

   Record framing:  [len:u32be] [sum:u32be] [payload:len bytes]
   where [sum] is a 32-bit mix of the payload (same finalizer family as
   lib/transport/faults.ml).  Replay consumes records until the first
   frame that is short or fails its checksum; everything after that
   point is a torn tail from a crash mid-write and is truncated so the
   next append starts from a clean boundary. *)

let mix x =
  let x = x + 0x9e3779b9 in
  let x = (x lxor (x lsr 30)) * 0x4f6cdd1d in
  let x = (x lxor (x lsr 27)) * 0x2545f491 in
  (x lxor (x lsr 31)) land max_int

(* One mixing step per little-endian 32-bit word of the payload, then one
   per byte of its 0-3 byte tail, seeded with the length. *)
let checksum s =
  let n = String.length s in
  let h = ref n and i = ref 0 in
  while !i + 4 <= n do
    h := mix ((!h * 31) + (Int32.to_int (String.get_int32_le s !i) land 0xffffffff));
    i := !i + 4
  done;
  while !i < n do
    h := mix ((!h * 31) + Char.code s.[!i]);
    incr i
  done;
  !h land 0xffffffff

let get_u32 s off = Int32.to_int (String.get_int32_be s off) land 0xffffffff

let encode_record payload =
  let n = String.length payload in
  let frame = Bytes.create (n + 8) in
  Bytes.set_int32_be frame 0 (Int32.of_int n);
  Bytes.set_int32_be frame 4 (Int32.of_int (checksum payload));
  Bytes.blit_string payload 0 frame 8 n;
  Bytes.unsafe_to_string frame

type t = { path : string; mutable records : int; mutable bytes : int }

type replay = { rp_records : string list; rp_torn_bytes : int }

(* Test hook: per-record delay during replay, to make the recovery
   window wide enough to observe (keepalive-during-recovery test). *)
let replay_throttle = ref 0.0

let decode data =
  let len = String.length data in
  let rec loop off acc count =
    if off + 8 > len then (List.rev acc, off, count)
    else
      let plen = get_u32 data off in
      let sum = get_u32 data (off + 4) in
      if off + 8 + plen > len then (List.rev acc, off, count)
      else
        let payload = String.sub data (off + 8) plen in
        if checksum payload <> sum then (List.rev acc, off, count)
        else loop (off + 8 + plen) (payload :: acc) (count + 1)
  in
  loop 0 [] 0

let open_ path =
  let data = Option.value (Media.read path) ~default:"" in
  let records, consumed, count = decode data in
  let torn = String.length data - consumed in
  if torn > 0 then Media.truncate path consumed;
  if !replay_throttle > 0.0 then
    List.iter (fun _ -> Thread.delay !replay_throttle) records;
  ({ path; records = count; bytes = consumed },
   { rp_records = records; rp_torn_bytes = torn })

let append t payload =
  let frame = encode_record payload in
  Media.append t.path frame;
  t.records <- t.records + 1;
  t.bytes <- t.bytes + String.length frame

let rewrite t payloads =
  let buf = Buffer.create 256 in
  List.iter (fun p -> Buffer.add_string buf (encode_record p)) payloads;
  let data = Buffer.contents buf in
  Media.write t.path data;
  t.records <- List.length payloads;
  t.bytes <- String.length data

let path t = t.path
let record_count t = t.records
