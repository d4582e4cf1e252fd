module Transport = Ovnet.Transport
module Tp = Ovrpc.Typed_params
module Ap = Protocol.Admin_protocol

type t = {
  id : int64;
  conn : Transport.t;
  connected_since : float;
  send_mutex : Mutex.t;
  mutable authenticated : bool;
  mutable closed : bool;
  mutable last_activity : float;
}

let create ~id ~conn =
  {
    id;
    conn;
    connected_since = Unix.gettimeofday ();
    send_mutex = Mutex.create ();
    authenticated = false;
    closed = false;
    last_activity = Unix.gettimeofday ();
  }

let id c = c.id
let conn c = c.conn
let connected_since c = c.connected_since

let peer c = Transport.peer c.conn
let is_authenticated c = c.authenticated
let mark_authenticated c = c.authenticated <- true
let touch c = c.last_activity <- Unix.gettimeofday ()
let is_closed c = c.closed || Transport.is_closed c.conn

let close c =
  c.closed <- true;
  Transport.close c.conn

let send_packet c packet =
  Mutex.lock c.send_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock c.send_mutex)
    (fun () ->
      if not c.closed then
        try Transport.send c.conn packet with Transport.Closed -> c.closed <- true)

let identity_params c =
  let base =
    [
      Tp.bool Ap.client_info_readonly false;
      ("last_activity", Tp.P_llong (Int64.of_float c.last_activity));
    ]
  in
  match Transport.peer c.conn with
  | Transport.Local unix_id ->
    base
    @ [
        Tp.int Ap.client_info_unix_user_id unix_id.Transport.uid;
        Tp.string Ap.client_info_unix_user_name unix_id.Transport.username;
        Tp.int Ap.client_info_unix_group_id unix_id.Transport.gid;
        Tp.string Ap.client_info_unix_group_name unix_id.Transport.groupname;
        Tp.int Ap.client_info_unix_process_id unix_id.Transport.pid;
      ]
  | Transport.Remote r ->
    base
    @ [ Tp.string Ap.client_info_sock_addr r.sock_addr ]
    @ (match r.x509_dname with
       | Some dn -> [ Tp.string Ap.client_info_x509_dname dn ]
       | None -> [])
