type kind = Unix_sock | Tcp | Tls

let kind_name = function Unix_sock -> "unix" | Tcp -> "tcp" | Tls -> "tls"

let kind_of_name = function
  | "unix" -> Ok Unix_sock
  | "tcp" -> Ok Tcp
  | "tls" -> Ok Tls
  | s -> Error (Printf.sprintf "unknown transport %S" s)

type unix_identity = {
  uid : int;
  gid : int;
  pid : int;
  username : string;
  groupname : string;
}

type peer =
  | Local of unix_identity
  | Remote of { sock_addr : string; x509_dname : string option }

type t = {
  kind : kind;
  ep : Chan.endpoint;
  tls : Tlslike.session option;
  peer : peer;
  tx_mutex : Mutex.t;
      (* TLS sealing is stateful (strict per-record sequence numbers), so
         seal order must equal wire order: wrap+send is one critical
         section.  Concurrent senders — pipelined replies from dispatcher
         workers, client keepalives — would otherwise interleave. *)
  mutable tx : int;
  mutable rx : int;
}

exception Closed
exception Corrupt of string

(* ------------------------------------------------------------------ *)
(* Per-kind wire transforms                                            *)
(* ------------------------------------------------------------------ *)

(* Position-mixed additive checksum: one real pass over the payload,
   standing in for the kernel's TCP checksum work.  The sum is taken
   modulo 2^30; native ints wrap modulo 2^63, so one mask at the end
   gives the same value as masking every step. *)
let checksum s =
  let acc = ref 0 in
  for i = 0 to String.length s - 1 do
    acc := !acc + ((Char.code (String.unsafe_get s i) + 1) * ((i land 0xff) + 1))
  done;
  !acc land 0x3fffffff

let checksum_to_wire v =
  String.init 4 (fun i -> Char.chr ((v lsr (8 * (3 - i))) land 0xff))

let checksum_of_wire s =
  ((Char.code s.[0] lsl 24) lor (Char.code s.[1] lsl 16) lor (Char.code s.[2] lsl 8)
  lor Char.code s.[3])
  land 0x3fffffff

let wrap conn msg =
  match conn.kind, conn.tls with
  | Unix_sock, _ -> msg
  | Tcp, _ -> checksum_to_wire (checksum msg) ^ msg
  | Tls, Some session -> Tlslike.seal session msg
  | Tls, None -> assert false

let unwrap conn wire =
  match conn.kind, conn.tls with
  | Unix_sock, _ -> wire
  | Tcp, _ ->
    if String.length wire < 4 then raise (Corrupt "tcp frame too short");
    let expected = checksum_of_wire wire in
    let payload = String.sub wire 4 (String.length wire - 4) in
    if checksum payload <> expected then raise (Corrupt "tcp checksum mismatch");
    payload
  | Tls, Some session ->
    (try Tlslike.open_ session wire
     with Tlslike.Auth_failure msg -> raise (Corrupt ("tls: " ^ msg)))
  | Tls, None -> assert false

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let kind conn = conn.kind
let peer conn = conn.peer

let send conn msg =
  Mutex.lock conn.tx_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.tx_mutex)
    (fun () ->
      conn.tx <- conn.tx + String.length msg;
      try Chan.send conn.ep.Chan.outgoing (wrap conn msg)
      with Chan.Closed -> raise Closed)

let recv conn =
  let wire = try Chan.recv conn.ep.Chan.incoming with Chan.Closed -> raise Closed in
  let msg = unwrap conn wire in
  conn.rx <- conn.rx + String.length msg;
  msg

let recv_opt conn ~timeout_s =
  match
    try Chan.recv_opt conn.ep.Chan.incoming ~timeout_s with Chan.Closed -> raise Closed
  with
  | None -> None
  | Some wire ->
    let msg = unwrap conn wire in
    conn.rx <- conn.rx + String.length msg;
    Some msg

let try_recv conn =
  match
    try Chan.try_recv conn.ep.Chan.incoming with Chan.Closed -> raise Closed
  with
  | None -> None
  | Some wire ->
    let msg = unwrap conn wire in
    conn.rx <- conn.rx + String.length msg;
    Some msg

let incoming_chan conn = conn.ep.Chan.incoming

let close conn = Chan.close_endpoint conn.ep
let is_closed conn = Chan.is_closed conn.ep.Chan.outgoing
let bytes_tx conn = conn.tx
let bytes_rx conn = conn.rx

let rekey a b =
  match a.tls, b.tls with
  | Some sa, Some sb -> Tlslike.rekey sa sb
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Establishment                                                       *)
(* ------------------------------------------------------------------ *)

(* Identity is presented by the connecting client at establishment time,
   simulating SO_PEERCRED (unix) and getpeername (tcp/tls). *)

let peer_to_wire = function
  | Local id ->
    Printf.sprintf "L:%d:%d:%d:%s:%s" id.uid id.gid id.pid id.username id.groupname
  | Remote r -> Printf.sprintf "R:%s" r.sock_addr

let peer_of_wire ~kind s =
  let corrupt () = raise (Corrupt (Printf.sprintf "bad peer identity %S" s)) in
  match String.split_on_char ':' s with
  | [ "L"; uid; gid; pid; username; groupname ] ->
    (match int_of_string_opt uid, int_of_string_opt gid, int_of_string_opt pid with
     | Some uid, Some gid, Some pid -> Local { uid; gid; pid; username; groupname }
     | _ -> corrupt ())
  | "R" :: rest when rest <> [] ->
    let sock_addr = String.concat ":" rest in
    let x509_dname =
      match kind with
      | Tls -> Some (Printf.sprintf "CN=%s,O=ovirt" sock_addr)
      | Unix_sock | Tcp -> None
    in
    Remote { sock_addr; x509_dname }
  | _ -> corrupt ()

let initiate kind ~peer_sends ep =
  let tls =
    match kind with
    | Unix_sock | Tcp -> None
    | Tls ->
      let hello, hello_wire = Tlslike.client_hello () in
      Chan.send ep.Chan.outgoing hello_wire;
      let reply = try Chan.recv ep.Chan.incoming with Chan.Closed -> raise Closed in
      Some (Tlslike.client_finish hello reply)
  in
  (* The client's view of its peer is the server; servers have no
     interesting identity, so record a synthetic one. *)
  let conn =
    { kind; ep; tls; peer = Remote { sock_addr = "server"; x509_dname = None }; tx_mutex = Mutex.create (); tx = 0; rx = 0 }
  in
  send conn (peer_to_wire peer_sends);
  conn

(* Server-side establishment as an explicit state machine, so a reactor
   can drive it one inbound frame at a time without a blocked accept
   thread.  The blocking [accept] below is the same machine fed from
   [Chan.recv]. *)

type accept_phase =
  | A_hello (* TLS only: awaiting the client hello *)
  | A_identity of Tlslike.session option (* awaiting the peer identity frame *)

type accept_state = {
  as_kind : kind;
  as_ep : Chan.endpoint;
  mutable as_phase : accept_phase;
}

let accept_start kind ep =
  {
    as_kind = kind;
    as_ep = ep;
    as_phase = (match kind with Tls -> A_hello | Unix_sock | Tcp -> A_identity None);
  }

let accept_feed st frame =
  match st.as_phase with
  | A_hello ->
    let session, reply = Tlslike.server_accept frame in
    Chan.send st.as_ep.Chan.outgoing reply;
    st.as_phase <- A_identity (Some session);
    `Again
  | A_identity tls ->
    let conn =
      {
        kind = st.as_kind;
        ep = st.as_ep;
        tls;
        peer = Remote { sock_addr = "pending"; x509_dname = None };
        tx_mutex = Mutex.create ();
        tx = 0;
        rx = 0;
      }
    in
    let identity = unwrap conn frame in
    conn.rx <- conn.rx + String.length identity;
    `Conn { conn with peer = peer_of_wire ~kind:st.as_kind identity }

let accept kind ep =
  let st = accept_start kind ep in
  let rec go () =
    let frame = try Chan.recv ep.Chan.incoming with Chan.Closed -> raise Closed in
    match accept_feed st frame with `Again -> go () | `Conn conn -> conn
  in
  go ()
