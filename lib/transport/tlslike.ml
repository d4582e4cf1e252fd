exception Auth_failure of string

let fail fmt = Format.kasprintf (fun s -> raise (Auth_failure s)) fmt

(* FNV-1a 64-bit, used both as the MAC core and the key-derivation hash.
   Toy-grade on purpose; see the interface comment. *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv1a_update h byte =
  Int64.mul (Int64.logxor h (Int64.of_int byte)) fnv_prime

(* FNV-1a over [b.[off .. off + len - 1]].  A plain loop rather than a
   fold through a closure, so the accumulator stays unboxed. *)
let fnv1a_range h b off len =
  let acc = ref h in
  for i = off to off + len - 1 do
    acc := fnv1a_update !acc (Char.code (Bytes.get b i))
  done;
  !acc

let fnv1a_string h s = fnv1a_range h (Bytes.unsafe_of_string s) 0 (String.length s)

(* Like TLS proper, each direction keeps its own record counter: the
   sender numbers what it seals ([seq_tx]), the receiver checks what it
   opens ([seq_rx]).  A single shared counter only works when traffic is
   strict request-reply ping-pong; pipelined calls and server-pushed
   events interleave the directions arbitrarily. *)
type session = {
  mutable key : int64;
  mutable seq_tx : int64; (* next record sequence number to seal *)
  mutable seq_rx : int64; (* next record sequence number expected *)
}

let of_key key = { key; seq_tx = 0L; seq_rx = 0L }

(* ------------------------------------------------------------------ *)
(* Handshake                                                           *)
(* ------------------------------------------------------------------ *)

type hello = { client_nonce : int64 }

let nonce_counter = Atomic.make 0x5eed_0001

let fresh_nonce () =
  (* Mix a process-wide counter with the clock; uniqueness is all that
     matters here, not unpredictability. *)
  let c = Atomic.fetch_and_add nonce_counter 1 in
  let t = Int64.bits_of_float (Unix.gettimeofday ()) in
  fnv1a_string (fnv1a_update t c) "nonce"

let magic = "OTLS"

(* [magic] followed by the nonce, big-endian. *)
let hello_wire nonce =
  let b = Bytes.create (String.length magic + 8) in
  Bytes.blit_string magic 0 b 0 (String.length magic);
  Bytes.set_int64_be b (String.length magic) nonce;
  Bytes.unsafe_to_string b

let client_hello () =
  let n = fresh_nonce () in
  ({ client_nonce = n }, hello_wire n)

let derive_key client_nonce server_nonce =
  fnv1a_string (fnv1a_update (Int64.logxor client_nonce server_nonce) 0x42) "master"

let parse_hello what wire =
  if String.length wire <> String.length magic + 8 then
    fail "%s: bad length %d" what (String.length wire);
  if String.sub wire 0 4 <> magic then fail "%s: bad magic" what;
  String.get_int64_be wire 4

let server_accept client_wire =
  let client_nonce = parse_hello "client hello" client_wire in
  let server_nonce = fresh_nonce () in
  (of_key (derive_key client_nonce server_nonce), hello_wire server_nonce)

let client_finish hello server_wire =
  let server_nonce = parse_hello "server reply" server_wire in
  of_key (derive_key hello.client_nonce server_nonce)

let handshake_pair () =
  let hello, hello_wire = client_hello () in
  let server, reply_wire = server_accept hello_wire in
  let client = client_finish hello reply_wire in
  (client, server)

(* ------------------------------------------------------------------ *)
(* Records                                                             *)
(* ------------------------------------------------------------------ *)

(* A record is [seq : int64 be][tag : int64 be][ciphertext], where the
   ciphertext is the payload XORed with a keystream and the tag is
   FNV-1a over the ciphertext, keyed by the session key and the low
   byte of [seq].

   Keystream: a 64-bit xorshift generator seeded from (key, seq).  Each
   step yields one state word, and keystream byte [i] is byte [i land 7]
   of the word after step [i lsr 3 + 1], little-endian.  So a whole
   8-byte block is one 64-bit XOR.  Sealing or opening costs one
   keystream pass and one MAC pass over the record, with no per-byte
   allocation. *)
let keystream_init key seq =
  let s = Int64.logxor key (Int64.mul seq 0x9e3779b97f4a7c15L) in
  if s = 0L then 0x1234_5678L else s

(* [dst.[dst_off + i] <- src.[src_off + i] xor keystream byte i] for
   [i < n].  The xorshift step is written inline: without flambda a
   call would box the state word on every block. *)
let xor_keystream ~key ~seq src src_off dst dst_off n =
  let s = ref (keystream_init key seq) in
  for w = 0 to ((n + 7) lsr 3) - 1 do
    let x = !s in
    let x = Int64.logxor x (Int64.shift_left x 13) in
    let x = Int64.logxor x (Int64.shift_right_logical x 7) in
    let x = Int64.logxor x (Int64.shift_left x 17) in
    s := x;
    let off = w lsl 3 in
    if off + 8 <= n then
      Bytes.set_int64_le dst (dst_off + off)
        (Int64.logxor (String.get_int64_le src (src_off + off)) x)
    else
      for j = 0 to n - off - 1 do
        let k = Int64.to_int (Int64.shift_right_logical x (8 * j)) land 0xff in
        Bytes.set dst (dst_off + off + j)
          (Char.unsafe_chr (Char.code src.[src_off + off + j] lxor k))
      done
  done

let mac ~key ~seq b off len =
  let h = fnv1a_update (Int64.logxor fnv_offset key) (Int64.to_int seq land 0xff) in
  fnv1a_range h b off len

let header_len = 16

let seal session payload =
  let seq = session.seq_tx in
  session.seq_tx <- Int64.add seq 1L;
  let n = String.length payload in
  let record = Bytes.create (header_len + n) in
  Bytes.set_int64_be record 0 seq;
  xor_keystream ~key:session.key ~seq payload 0 record header_len n;
  Bytes.set_int64_be record 8 (mac ~key:session.key ~seq record header_len n);
  Bytes.unsafe_to_string record

let open_ session record =
  let len = String.length record in
  if len < header_len then fail "record too short (%d bytes)" len;
  let seq = String.get_int64_be record 0 in
  if not (Int64.equal seq session.seq_rx) then
    fail "out-of-order record: expected seq %Ld, got %Ld" session.seq_rx seq;
  let n = len - header_len in
  let tag = mac ~key:session.key ~seq (Bytes.unsafe_of_string record) header_len n in
  if not (Int64.equal tag (String.get_int64_be record 8)) then
    fail "MAC mismatch on seq %Ld" seq;
  session.seq_rx <- Int64.add seq 1L;
  let payload = Bytes.create n in
  xor_keystream ~key:session.key ~seq record header_len payload 0 n;
  Bytes.unsafe_to_string payload

let rekey a b =
  let next = fnv1a_string a.key "rekey" in
  if fnv1a_string b.key "rekey" <> next then
    fail "rekey: sessions do not share key material";
  a.key <- next;
  b.key <- next;
  a.seq_tx <- 0L;
  a.seq_rx <- 0L;
  b.seq_tx <- 0L;
  b.seq_rx <- 0L
