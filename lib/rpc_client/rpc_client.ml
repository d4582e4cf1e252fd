module Transport = Ovnet.Transport
module Netsim = Ovnet.Netsim
module Rpc_packet = Ovrpc.Rpc_packet
module Verror = Ovirt_core.Verror
module Ka = Protocol.Keepalive_protocol

type slot = {
  slot_mutex : Mutex.t;
  slot_cond : Condition.t;
  mutable outcome : (string, Verror.t) result option;
}

type keepalive = { ka_interval : float; ka_count : int }

type t = {
  conn : Transport.t;
  program : int;
  version : int;
  on_event : procedure:int -> string -> unit;
  mutex : Mutex.t;
  pending : (int, slot) Hashtbl.t;
  mutable next_serial : int;
  mutable free_slots : slot list; (* guarded by [mutex] *)
  mutable closed : bool;
  mutable on_raw_reply : (string -> unit) option;
      (* test observer: every framed reply packet, exactly as received *)
}

(* A future: one in-flight call.  [await] blocks on the slot until its
   deadline ([infinity] for an untimed call), caches the outcome (so
   awaiting twice is harmless) and recycles the slot. *)
type future = {
  fut_client : t;
  fut_slot : slot;
  fut_serial : int;
  fut_procedure : int;
  fut_timeout : float;
  fut_until : float;
  mutable fut_result : (string, Verror.t) result option;
}

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let deliver slot outcome =
  with_lock slot.slot_mutex (fun () ->
      slot.outcome <- Some outcome;
      Condition.broadcast slot.slot_cond)

(* Slot pool: a slot is a Mutex+Condition pair, allocated per call before
   this existed.  Pipelined fan-out makes that allocation hot, so consumed
   slots are recycled instead.  A slot is only ever released by the single
   consumer that removed it from circulation (await / failed send), never
   while it can still be delivered to. *)
let max_pooled_slots = 64

let alloc_slot_locked client =
  match client.free_slots with
  | slot :: rest ->
    client.free_slots <- rest;
    slot
  | [] ->
    { slot_mutex = Mutex.create (); slot_cond = Condition.create (); outcome = None }

let release_slot client slot =
  slot.outcome <- None;
  with_lock client.mutex (fun () ->
      if List.length client.free_slots < max_pooled_slots then
        client.free_slots <- slot :: client.free_slots)

(* Idempotent: the first closer (local close, receiver failure, keepalive
   death) delivers the error to every pending call and marks the client
   closed; later closers find nothing to do.  All under [client.mutex], so
   the close path cannot race a concurrent [call] registering a slot. *)
let fail_all_pending client err =
  let slots =
    with_lock client.mutex (fun () ->
        if client.closed then []
        else begin
          client.closed <- true;
          let slots =
            Hashtbl.fold (fun _ slot acc -> slot :: acc) client.pending []
          in
          Hashtbl.reset client.pending;
          slots
        end)
  in
  List.iter (fun slot -> deliver slot (Error err)) slots

(* Take [serial] back from the receiver: true if it was still pending, so
   nobody else will deliver to its slot. *)
let claim client serial =
  with_lock client.mutex (fun () ->
      let present = Hashtbl.mem client.pending serial in
      Hashtbl.remove client.pending serial;
      present)

let send_ping client =
  let serial =
    with_lock client.mutex (fun () ->
        let serial = client.next_serial in
        client.next_serial <- serial + 1;
        serial)
  in
  let header =
    Rpc_packet.call_header ~program:Ka.program ~version:Ka.version
      ~procedure:Ka.proc_ping ~serial
  in
  try Transport.send client.conn (Rpc_packet.encode header "") with
  | Transport.Closed -> ()

exception Peer_silent of string

(* [recv] with keepalive folded in: wait no longer than the next keepalive
   event (a ping that is due, or death), and declare death only when no
   frame has arrived by then.  Any frame counts as liveness.  The ping is
   sent from the receiver; it cannot block, since the channels under a
   transport are unbounded. *)
let keepalive_recv client ka =
  let death_after = ka.ka_interval *. float_of_int ka.ka_count in
  let last_rx = ref (Unix.gettimeofday ()) in
  let last_ping = ref !last_rx in
  let rec next () =
    let ping_at = Float.max !last_rx !last_ping +. ka.ka_interval in
    let until = Float.min (!last_rx +. death_after) ping_at in
    match
      Transport.recv_opt client.conn ~timeout_s:(until -. Unix.gettimeofday ())
    with
    | Some wire ->
      last_rx := Unix.gettimeofday ();
      wire
    | None ->
      let now = Unix.gettimeofday () in
      if now -. !last_rx > death_after then
        raise
          (Peer_silent
             (Printf.sprintf "keepalive: peer silent for %.2fs (interval %.2fs x %d)"
                (now -. !last_rx) ka.ka_interval ka.ka_count));
      if now >= ping_at then begin
        last_ping := now;
        send_ping client
      end;
      next ()
  in
  next

(* The client's only thread: demultiplexes replies to their callers by
   serial, hands events to [on_event] and, with keepalive, pings a silent
   peer and declares it dead. *)
let receiver_loop client keepalive =
  let recv =
    match keepalive with
    | None -> fun () -> Transport.recv client.conn
    | Some ka -> keepalive_recv client ka
  in
  let rec loop () =
    match recv () with
    | exception Transport.Closed ->
      fail_all_pending client (Verror.make Verror.Rpc_failure "connection closed")
    | exception Transport.Corrupt msg ->
      (* A corrupt frame poisons the stream: close the transport so the
         peer reaps its side, then fail every caller. *)
      Transport.close client.conn;
      fail_all_pending client
        (Verror.make Verror.Rpc_failure ("corrupt frame: " ^ msg))
    | exception Peer_silent msg ->
      (* Blame keepalive before closing the transport, as [close] does. *)
      fail_all_pending client (Verror.make Verror.Rpc_failure msg);
      Transport.close client.conn
    | wire ->
      (match Rpc_packet.decode wire with
       | exception Rpc_packet.Bad_packet msg ->
         Transport.close client.conn;
         fail_all_pending client
           (Verror.make Verror.Rpc_failure ("bad packet from server: " ^ msg))
       | header, body ->
         (match header.Rpc_packet.msg_type with
          | Rpc_packet.Event ->
            (try client.on_event ~procedure:header.Rpc_packet.procedure body
             with _ -> ());
            loop ()
          | Rpc_packet.Reply ->
            (match client.on_raw_reply with
             | None -> ()
             | Some observe -> (try observe wire with _ -> ()));
            let slot =
              with_lock client.mutex (fun () ->
                  let slot = Hashtbl.find_opt client.pending header.Rpc_packet.serial in
                  Hashtbl.remove client.pending header.Rpc_packet.serial;
                  slot)
            in
            (match slot with
             | None -> () (* timed-out call or keepalive pong: drop *)
             | Some slot ->
               let outcome =
                 match header.Rpc_packet.status with
                 | Rpc_packet.Status_ok -> Ok body
                 | Rpc_packet.Status_error ->
                   (match Protocol.Remote_protocol.dec_error body with
                    | err -> Error err
                    | exception Xdr.Error msg ->
                      Error
                        (Verror.make Verror.Rpc_failure
                           ("undecodable error reply: " ^ msg)))
               in
               deliver slot outcome);
            loop ()
          | Rpc_packet.Call ->
            (* Servers do not call clients; ignore and carry on. *)
            loop ()))
  in
  loop ()

let connect ~address ~kind ~program ~version ?identity ?faults ?keepalive
    ?(on_event = fun ~procedure:_ _ -> ()) () =
  match Netsim.connect ?identity ?faults address kind with
  | exception Netsim.Connection_refused addr ->
    Verror.error Verror.Rpc_failure "connection refused at %S" addr
  | conn ->
    let client =
      {
        conn;
        program;
        version;
        on_event;
        mutex = Mutex.create ();
        pending = Hashtbl.create 8;
        next_serial = 1;
        free_slots = [];
        closed = false;
        on_raw_reply = None;
      }
    in
    ignore (Thread.create (fun () -> receiver_loop client keepalive) ());
    Ok client

let set_raw_reply_hook client hook = client.on_raw_reply <- hook

(* Issue a call without waiting: the returned future lets one thread keep
   as many calls in flight on the connection as it likes (pipelining) —
   the receiver thread demultiplexes replies by serial as before. *)
let call_async client ~procedure ?(body = "") ?timeout_s () =
  let slot_or_err =
    with_lock client.mutex (fun () ->
        if client.closed then
          Verror.error Verror.Rpc_failure "connection is closed"
        else begin
          let serial = client.next_serial in
          client.next_serial <- serial + 1;
          let slot = alloc_slot_locked client in
          Hashtbl.replace client.pending serial slot;
          Ok (serial, slot)
        end)
  in
  match slot_or_err with
  | Error e -> Error e
  | Ok (serial, slot) ->
    let header =
      Rpc_packet.call_header ~program:client.program ~version:client.version
        ~procedure ~serial
    in
    let timeout, until =
      match timeout_s with
      | None -> (0., infinity)
      | Some t -> (t, Unix.gettimeofday () +. t)
    in
    (match Transport.send client.conn (Rpc_packet.encode header body) with
     | exception Transport.Closed ->
       (* Nothing was sent: if the slot is still pending nobody else can
          deliver to it, so reclaim it directly.  When a concurrent
          [fail_all_pending] already took it, that closer delivers and an
          eventual await would consume — but we never built a future, so
          leave the slot to the GC in that (already-fatal) case. *)
       if claim client serial then release_slot client slot;
       (* Dead even if the receiver has not noticed yet: close now, so a
          caller that retries when [is_closed] holds sees it. *)
       fail_all_pending client
         (Verror.make Verror.Rpc_failure "connection closed");
       Verror.error Verror.Rpc_failure "connection is closed"
     | () ->
       Ok
         {
           fut_client = client;
           fut_slot = slot;
           fut_serial = serial;
           fut_procedure = procedure;
           fut_timeout = timeout;
           fut_until = until;
           fut_result = None;
         })

(* Wait on [slot] until it is delivered or [until] passes ([None]).  The
   slot may be a recycled one that a timekeeper entry from an earlier
   call still names; its late broadcast is one more spurious wake-up. *)
let wait_slot slot ~until =
  with_lock slot.slot_mutex (fun () ->
      while
        Option.is_none slot.outcome
        && (until = infinity || Unix.gettimeofday () < until)
      do
        Ovsync.Timedwait.wait slot.slot_mutex slot.slot_cond ~until
      done;
      slot.outcome)

let await fut =
  match fut.fut_result with
  | Some outcome -> outcome
  | None ->
    let client = fut.fut_client and slot = fut.fut_slot in
    (* The receiver always delivers — a reply, or a failure when the
       connection dies.  A timed call that outlives its deadline claims
       its serial back; if the serial is gone, a delivery is under way
       and wins. *)
    let outcome =
      match wait_slot slot ~until:fut.fut_until with
      | Some outcome -> outcome
      | None ->
        if claim client fut.fut_serial then
          Error
            (Verror.make Verror.Rpc_failure
               (Printf.sprintf "call %d timed out after %.1fs" fut.fut_procedure
                  fut.fut_timeout))
        else Option.get (wait_slot slot ~until:infinity)
    in
    fut.fut_result <- Some outcome;
    release_slot client slot;
    outcome

let call client ~procedure ?body ?timeout_s () =
  match call_async client ~procedure ?body ?timeout_s () with
  | Error e -> Error e
  | Ok fut -> await fut

let close client =
  (* Same ordering as the keepalive death: deliver the precise error,
     then close (the receiver's generic one must not win the race). *)
  fail_all_pending client (Verror.make Verror.Rpc_failure "connection closed locally");
  Transport.close client.conn

let is_closed client = with_lock client.mutex (fun () -> client.closed)
let pending_calls client = with_lock client.mutex (fun () -> Hashtbl.length client.pending)
let bytes_tx client = Transport.bytes_tx client.conn
let bytes_rx client = Transport.bytes_rx client.conn
