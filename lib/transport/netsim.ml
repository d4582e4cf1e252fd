exception Connection_refused of string
exception Address_in_use of string

(* The accept discipline: the raw server endpoint is handed to the sink on
   the connecting thread.  The sink must not block — it typically just
   registers the endpoint with a reactor, which then drives the server
   half of the handshake on readiness. *)
type sink = kind:Transport.kind -> Chan.endpoint -> unit

type listener = {
  addr : string;
  sink : sink;
  mutable open_ : bool;
  mutable faults : Faults.plan option;
}

let registry : (string, listener) Hashtbl.t = Hashtbl.create 8
let registry_mutex = Mutex.create ()

let with_registry f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

(* Chaos-test failures must be diagnosable: sink exceptions go here
   rather than vanishing.  Warn-level stderr by default; the daemon (or a
   test) may swap in its own logger. *)
let logger =
  ref (Vlog.create ~level:Vlog.Warn ())

let set_logger l = logger := l

let listen_direct ?faults addr sink =
  with_registry (fun () ->
      (match Hashtbl.find_opt registry addr with
       | Some l when l.open_ -> raise (Address_in_use addr)
       | Some _ | None -> ());
      let l = { addr; sink; open_ = true; faults } in
      Hashtbl.replace registry addr l;
      l)

let close_listener l =
  with_registry (fun () ->
      l.open_ <- false;
      match Hashtbl.find_opt registry l.addr with
      | Some current when current == l -> Hashtbl.remove registry l.addr
      | Some _ | None -> ())

let set_listener_faults addr faults =
  with_registry (fun () ->
      match Hashtbl.find_opt registry addr with
      | Some l when l.open_ ->
        l.faults <- faults;
        true
      | Some _ | None -> false)

let default_identity =
  Transport.{ uid = 0; gid = 0; pid = 1; username = "root"; groupname = "root" }

let addr_counter = Atomic.make 1

let fresh_sock_addr () =
  let n = Atomic.fetch_and_add addr_counter 1 in
  Printf.sprintf "192.168.%d.%d:%d" ((n lsr 8) land 0xff) (n land 0xff)
    (10000 + (n mod 50000))

let connect ?identity ?sock_addr ?faults addr kind =
  let l, listener_faults =
    with_registry (fun () ->
        match Hashtbl.find_opt registry addr with
        | Some l when l.open_ -> (l, l.faults)
        | Some _ | None -> raise (Connection_refused addr))
  in
  let refused plan =
    match plan with Some p -> Faults.refuses_connect p | None -> false
  in
  if refused listener_faults || refused faults then raise (Connection_refused addr);
  let client_ep, server_ep = Chan.pipe () in
  let server_ep =
    match listener_faults with Some p -> Faults.wrap p server_ep | None -> server_ep
  in
  let client_ep =
    match faults with Some p -> Faults.wrap p client_ep | None -> client_ep
  in
  (try l.sink ~kind server_ep
   with exn ->
     Vlog.logf !logger ~module_:"netsim" Vlog.Warn
       "listener %s: direct sink raised %s" addr (Printexc.to_string exn);
     Chan.close_endpoint server_ep);
  let peer_sends =
    match kind with
    | Transport.Unix_sock ->
      Transport.Local (Option.value identity ~default:default_identity)
    | Transport.Tcp | Transport.Tls ->
      let sock_addr =
        match sock_addr with Some a -> a | None -> fresh_sock_addr ()
      in
      Transport.Remote { sock_addr; x509_dname = None }
  in
  Transport.initiate kind ~peer_sends client_ep

let reset () = with_registry (fun () -> Hashtbl.reset registry)
