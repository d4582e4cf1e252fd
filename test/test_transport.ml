(* Transport stack: channels, the TLS-like record layer, per-transport
   framing/integrity, and the listener registry. *)

open Testutil
module Chan = Ovnet.Chan
module Tlslike = Ovnet.Tlslike
module Transport = Ovnet.Transport
module Netsim = Ovnet.Netsim

(* --- Chan -------------------------------------------------------------- *)

let test_chan_fifo () =
  let c = Chan.create () in
  Chan.send c "a";
  Chan.send c "b";
  Alcotest.(check string) "first" "a" (Chan.recv c);
  Alcotest.(check string) "second" "b" (Chan.recv c)

let test_chan_close_semantics () =
  let c = Chan.create () in
  Chan.send c "last";
  Chan.close c;
  Alcotest.(check string) "drains after close" "last" (Chan.recv c);
  (match Chan.recv c with
   | exception Chan.Closed -> ()
   | _ -> Alcotest.fail "recv on drained closed channel succeeded");
  match Chan.send c "x" with
  | exception Chan.Closed -> ()
  | () -> Alcotest.fail "send on closed channel succeeded"

let test_chan_recv_timeout () =
  let c = Chan.create () in
  let t0 = Unix.gettimeofday () in
  Alcotest.(check (option string)) "timeout" None (Chan.recv_opt c ~timeout_s:0.05);
  Alcotest.(check bool) "waited" true (Unix.gettimeofday () -. t0 >= 0.04)

let test_chan_cross_thread () =
  let c = Chan.create () in
  let producer =
    Thread.create
      (fun () ->
        for i = 1 to 100 do
          Chan.send c (string_of_int i)
        done)
      ()
  in
  let received = List.init 100 (fun _ -> Chan.recv c) in
  Thread.join producer;
  Alcotest.(check (list string)) "ordered across threads"
    (List.init 100 (fun i -> string_of_int (i + 1)))
    received

let test_chan_backpressure () =
  let c = Chan.create ~capacity:2 () in
  Chan.send c "1";
  Chan.send c "2";
  let third_sent = Atomic.make false in
  let sender =
    Thread.create
      (fun () ->
        Chan.send c "3";
        Atomic.set third_sent true)
      ()
  in
  Thread.delay 0.03;
  Alcotest.(check bool) "sender blocked at capacity" false (Atomic.get third_sent);
  ignore (Chan.recv c);
  Thread.join sender;
  Alcotest.(check bool) "sender released" true (Atomic.get third_sent)

let test_pipe_duplex () =
  let a, b = Chan.pipe () in
  Chan.send a.Chan.outgoing "to-b";
  Chan.send b.Chan.outgoing "to-a";
  Alcotest.(check string) "b receives" "to-b" (Chan.recv b.Chan.incoming);
  Alcotest.(check string) "a receives" "to-a" (Chan.recv a.Chan.incoming)

(* --- Tlslike ----------------------------------------------------------- *)

let test_tls_roundtrip () =
  let client, server = Tlslike.handshake_pair () in
  List.iter
    (fun msg ->
      let sealed = Tlslike.seal client msg in
      Alcotest.(check bool) "ciphertext differs" true
        (String.length msg < 1 || sealed <> msg);
      Alcotest.(check string) "opens to original" msg (Tlslike.open_ server sealed))
    [ ""; "x"; "hello world"; String.make 4096 'Q' ]

let flip_bit s i =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
  Bytes.to_string b

(* A record is [seq:8][tag:8][ciphertext]; the 13-byte payload leaves a
   5-byte tail after its one full keystream word. *)
let test_tls_tamper_detected () =
  let payload = "sensitive-13B" in
  List.iter
    (fun (what, tamper) ->
      let client, server = Tlslike.handshake_pair () in
      let sealed = Tlslike.seal client payload in
      (match Tlslike.open_ server (tamper sealed) with
       | exception Tlslike.Auth_failure _ -> ()
       | _ -> Alcotest.failf "tampered record accepted (%s)" what);
      Alcotest.(check string)
        ("genuine record still opens after " ^ what)
        payload (Tlslike.open_ server sealed))
    [
      ("seq field", fun r -> flip_bit r 7);
      ("tag field", fun r -> flip_bit r 8);
      ("first ciphertext byte", fun r -> flip_bit r 16);
      ("last tail byte", fun r -> flip_bit r (String.length r - 1));
      ("15-byte record", fun r -> String.sub r 0 15);
    ]

let test_tls_replay_and_reorder_detected () =
  let client, server = Tlslike.handshake_pair () in
  let r1 = Tlslike.seal client "one" in
  let r2 = Tlslike.seal client "two" in
  (* Out of order *)
  (match Tlslike.open_ server r2 with
   | exception Tlslike.Auth_failure _ -> ()
   | _ -> Alcotest.fail "out-of-order record accepted");
  (* In order still fine *)
  Alcotest.(check string) "r1" "one" (Tlslike.open_ server r1);
  Alcotest.(check string) "r2" "two" (Tlslike.open_ server r2);
  (* Replay *)
  match Tlslike.open_ server r1 with
  | exception Tlslike.Auth_failure _ -> ()
  | _ -> Alcotest.fail "replayed record accepted"

let test_tls_wrong_session_rejected () =
  let client, _server = Tlslike.handshake_pair () in
  let _other_client, other_server = Tlslike.handshake_pair () in
  let sealed = Tlslike.seal client "cross" in
  match Tlslike.open_ other_server sealed with
  | exception Tlslike.Auth_failure _ -> ()
  | _ -> Alcotest.fail "record accepted by a foreign session"

let test_tls_rekey () =
  let client, server = Tlslike.handshake_pair () in
  Alcotest.(check string) "pre-rekey" "a" (Tlslike.open_ server (Tlslike.seal client "a"));
  Tlslike.rekey client server;
  Alcotest.(check string) "post-rekey" "b" (Tlslike.open_ server (Tlslike.seal client "b"))

let prop_tls_roundtrip =
  qcheck_case "seal/open roundtrip over message sequences"
    QCheck.(small_list string)
    (fun msgs ->
      let client, server = Tlslike.handshake_pair () in
      List.for_all (fun m -> Tlslike.open_ server (Tlslike.seal client m) = m) msgs)

(* The record layer as it was when it worked a byte at a time, copied
   apart from taking the key and sequence number as arguments.  The
   wire-byte tests below hold the live layer to its output. *)
module Reference = struct
  let fnv_offset = 0xcbf29ce484222325L
  let fnv_prime = 0x100000001b3L

  let fnv1a_update h byte =
    Int64.mul (Int64.logxor h (Int64.of_int byte)) fnv_prime

  let fnv1a_string h s =
    let acc = ref h in
    String.iter (fun c -> acc := fnv1a_update !acc (Char.code c)) s;
    !acc

  let int64_to_wire v =
    String.init 8 (fun i ->
        Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * (7 - i))) land 0xff))

  let int64_of_wire s off =
    let acc = ref 0L in
    for i = 0 to 7 do
      acc := Int64.logor (Int64.shift_left !acc 8) (Int64.of_int (Char.code s.[off + i]))
    done;
    !acc

  let keystream_init key seq =
    let s = Int64.logxor key (Int64.mul seq 0x9e3779b97f4a7c15L) in
    if s = 0L then 0x1234_5678L else s

  let keystream_next s =
    let s = Int64.logxor s (Int64.shift_left s 13) in
    let s = Int64.logxor s (Int64.shift_right_logical s 7) in
    Int64.logxor s (Int64.shift_left s 17)

  let transform ~key ~seq payload =
    let n = String.length payload in
    let out = Bytes.create n in
    let state = ref (keystream_init key seq) in
    for i = 0 to n - 1 do
      if i land 7 = 0 then state := keystream_next !state;
      let ks_byte =
        Int64.to_int (Int64.shift_right_logical !state (8 * (i land 7))) land 0xff
      in
      Bytes.set out i (Char.chr (Char.code payload.[i] lxor ks_byte))
    done;
    Bytes.unsafe_to_string out

  let mac ~key ~seq data =
    let h = fnv1a_update (Int64.logxor fnv_offset key) (Int64.to_int seq land 0xff) in
    int64_to_wire (fnv1a_string h data)

  let seal ~key ~seq payload =
    let cipher = transform ~key ~seq payload in
    let tag = mac ~key ~seq cipher in
    int64_to_wire seq ^ tag ^ cipher

  (* [None] wherever the live layer raises [Auth_failure]. *)
  let open_ ~key ~seq record =
    if String.length record < 16 || int64_of_wire record 0 <> seq then None
    else
      let tag = String.sub record 8 8 in
      let cipher = String.sub record 16 (String.length record - 16) in
      if mac ~key ~seq cipher <> tag then None else Some (transform ~key ~seq cipher)
end

(* A session keyed with [key] that has sealed [prior] empty records,
   and its peer that has opened them: the next record has seq [prior]. *)
let sessions_at ~key ~prior =
  let tx = Tlslike.of_key key and rx = Tlslike.of_key key in
  for _ = 1 to prior do
    ignore (Tlslike.open_ rx (Tlslike.seal tx ""))
  done;
  (tx, rx)

(* Up to 300 prior records, so the MAC's [seq land 0xff] wraps; lengths
   mostly 0-70, where the word loop meets the byte tail. *)
let arb_record_case =
  let open QCheck.Gen in
  let len = frequency [ (3, int_range 0 70); (1, int_range 0 5000) ] in
  QCheck.make
    ~print:(fun (key, prior, payload) ->
      Printf.sprintf "key=%Lx prior=%d len=%d" key prior (String.length payload))
    (triple int64 (int_range 0 300) (string_size len))

let prop_tls_matches_reference =
  qcheck_case ~count:500 "records match the byte-at-a-time reference" arb_record_case
    (fun (key, prior, payload) ->
      let tx, rx = sessions_at ~key ~prior in
      let seq = Int64.of_int prior in
      let record = Tlslike.seal tx payload in
      record = Reference.seal ~key ~seq payload
      && Reference.open_ ~key ~seq record = Some payload
      && Tlslike.open_ rx record = payload)

let hex s =
  String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

(* Computed with the byte-at-a-time layer.  The first key and seq make
   the keystream seed 0, which the generator replaces; the third record
   has seq 257, whose low byte the MAC takes. *)
let test_tls_known_answers () =
  List.iter
    (fun (key, prior, payload, expected) ->
      let tx, rx = sessions_at ~key ~prior in
      let record = Tlslike.seal tx payload in
      Alcotest.(check string) (Printf.sprintf "seal %S" payload) expected (hex record);
      Alcotest.(check string) (Printf.sprintf "open %S" payload) payload
        (Tlslike.open_ rx record))
    [
      (0L, 0, "hello", "0000000000000000c3a188bf3ff93acebcc50e38b8");
      ( 0x0123456789abcdefL, 0, "The quick brown fox",
        "000000000000000019d1e7b031329360e069fb76a775415cdcf0894ef5e30140b0a5a4" );
      ( -0x5a5a5a5a5a5a5a5bL, 257, "virDomainGetInfo/13",
        "00000000000001015fa3c80a09dc54c3afb720d1c989ade04aaa39790046d576d1ac16" );
    ]

(* --- Transport --------------------------------------------------------- *)

let default_identity =
  Transport.{ uid = 0; gid = 0; pid = 42; username = "root"; groupname = "root" }

let connect_pair kind =
  let client_ep, server_ep = Chan.pipe () in
  let server_box = ref None in
  let accepter =
    Thread.create (fun () -> server_box := Some (Transport.accept kind server_ep)) ()
  in
  let peer_sends =
    match kind with
    | Transport.Unix_sock -> Transport.Local default_identity
    | Transport.Tcp | Transport.Tls ->
      Transport.Remote { sock_addr = "10.0.0.7:1234"; x509_dname = None }
  in
  let client = Transport.initiate kind ~peer_sends client_ep in
  Thread.join accepter;
  match !server_box with
  | Some server -> (client, server)
  | None -> Alcotest.fail "accept did not complete"

let test_transport_roundtrip_all_kinds () =
  List.iter
    (fun kind ->
      let client, server = connect_pair kind in
      Transport.send client "ping";
      Alcotest.(check string)
        (Transport.kind_name kind ^ " payload")
        "ping" (Transport.recv server);
      Transport.send server "pong";
      Alcotest.(check string) "reply" "pong" (Transport.recv client))
    [ Transport.Unix_sock; Transport.Tcp; Transport.Tls ]

let test_transport_peer_identity () =
  let _, server_unix = connect_pair Transport.Unix_sock in
  (match Transport.peer server_unix with
   | Transport.Local id ->
     Alcotest.(check string) "username" "root" id.Transport.username;
     Alcotest.(check int) "pid" 42 id.Transport.pid
   | Transport.Remote _ -> Alcotest.fail "unix peer is remote");
  let _, server_tls = connect_pair Transport.Tls in
  match Transport.peer server_tls with
  | Transport.Remote r ->
    Alcotest.(check string) "addr" "10.0.0.7:1234" r.sock_addr;
    Alcotest.(check bool) "tls has dname" true (r.x509_dname <> None)
  | Transport.Local _ -> Alcotest.fail "tls peer is local"

let test_tcp_peer_has_no_dname () =
  let _, server = connect_pair Transport.Tcp in
  match Transport.peer server with
  | Transport.Remote r ->
    Alcotest.(check bool) "no dname on tcp" true (r.x509_dname = None)
  | Transport.Local _ -> Alcotest.fail "tcp peer is local"

let test_transport_byte_accounting () =
  let client, server = connect_pair Transport.Unix_sock in
  let base_rx = Transport.bytes_rx server in
  Transport.send client "12345";
  ignore (Transport.recv server);
  Alcotest.(check int) "server rx grew by payload" 5
    (Transport.bytes_rx server - base_rx)

let test_kind_names () =
  Alcotest.(check string) "unix" "unix" (Transport.kind_name Transport.Unix_sock);
  Alcotest.(check bool) "parse tls" true
    (Transport.kind_of_name "tls" = Ok Transport.Tls);
  match Transport.kind_of_name "carrier-pigeon" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus transport accepted"

(* --- Netsim ------------------------------------------------------------ *)

let test_netsim_connect_refused () =
  match Netsim.connect (fresh_name "nowhere") Transport.Unix_sock with
  | exception Netsim.Connection_refused _ -> ()
  | _ -> Alcotest.fail "connected to unbound address"

let test_netsim_accept_loop () =
  let addr = fresh_name "srv" in
  let greeted = Atomic.make 0 in
  let listener =
    listen_threaded addr (fun conn ->
        Atomic.incr greeted;
        Transport.send conn "hello";
        Transport.close conn)
  in
  let c1 = Netsim.connect addr Transport.Unix_sock in
  let c2 = Netsim.connect addr Transport.Tls in
  Alcotest.(check string) "greeting 1" "hello" (Transport.recv c1);
  Alcotest.(check string) "greeting 2" "hello" (Transport.recv c2);
  Alcotest.(check bool) "handler ran per connection" true
    (eventually (fun () -> Atomic.get greeted = 2));
  Netsim.close_listener listener;
  match Netsim.connect addr Transport.Unix_sock with
  | exception Netsim.Connection_refused _ -> ()
  | _ -> Alcotest.fail "connected after close_listener"

let test_netsim_address_in_use () =
  let addr = fresh_name "dup" in
  let l = listen_threaded addr (fun _ -> ()) in
  (match listen_threaded addr (fun _ -> ()) with
   | exception Netsim.Address_in_use _ -> ()
   | _ -> Alcotest.fail "double bind accepted");
  Netsim.close_listener l

let test_netsim_identity_passthrough () =
  let addr = fresh_name "id" in
  let seen = ref None in
  let listener =
    listen_threaded addr (fun conn ->
        seen := Some (Transport.peer conn);
        Transport.close conn)
  in
  let identity =
    Transport.{ uid = 1000; gid = 1000; pid = 777; username = "alice"; groupname = "users" }
  in
  let conn = Netsim.connect ~identity addr Transport.Unix_sock in
  ignore (eventually (fun () -> !seen <> None));
  (match !seen with
   | Some (Transport.Local id) ->
     Alcotest.(check string) "username" "alice" id.Transport.username
   | _ -> Alcotest.fail "identity not seen");
  Transport.close conn;
  Netsim.close_listener listener

let () =
  Alcotest.run "transport"
    [
      ( "chan",
        [
          quick "fifo order" test_chan_fifo;
          quick "close semantics" test_chan_close_semantics;
          quick "recv timeout" test_chan_recv_timeout;
          quick "cross-thread ordering" test_chan_cross_thread;
          quick "capacity back-pressure" test_chan_backpressure;
          quick "duplex pipe" test_pipe_duplex;
        ] );
      ( "tls-like layer",
        [
          quick "seal/open roundtrip" test_tls_roundtrip;
          quick "tampering detected" test_tls_tamper_detected;
          quick "replay and reorder detected" test_tls_replay_and_reorder_detected;
          quick "foreign session rejected" test_tls_wrong_session_rejected;
          quick "rekey" test_tls_rekey;
          prop_tls_roundtrip;
          prop_tls_matches_reference;
          quick "known-answer records" test_tls_known_answers;
        ] );
      ( "transport",
        [
          quick "roundtrip on all kinds" test_transport_roundtrip_all_kinds;
          quick "peer identity" test_transport_peer_identity;
          quick "tcp peer lacks x509 dname" test_tcp_peer_has_no_dname;
          quick "byte accounting" test_transport_byte_accounting;
          quick "kind names" test_kind_names;
        ] );
      ( "netsim",
        [
          quick "connection refused" test_netsim_connect_refused;
          quick "accept loop" test_netsim_accept_loop;
          quick "address in use" test_netsim_address_in_use;
          quick "identity passthrough" test_netsim_identity_passthrough;
        ] );
    ]
