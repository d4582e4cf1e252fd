module Transport = Ovnet.Transport
module Netsim = Ovnet.Netsim
module Rpc_packet = Ovrpc.Rpc_packet
module Verror = Ovirt_core.Verror
module Ka = Protocol.Keepalive_protocol

type keepalive = { ka_interval : float; ka_count : int }

type slot = {
  slot_mutex : Mutex.t;
  slot_cond : Condition.t;
  mutable outcome : (string, Verror.t) result option;
}

(* A fan-out: the connections whose read sides one thread took to send
   calls from inside {!fan_out}.  While that thread waits for any reply
   it reads all of them, so a frame on any — another caller's reply, an
   event, a reply of its own — is handled when it comes. *)
and fan = {
  fan_ready : bool Atomic.t;
      (* a connection turned readable since the fan last looked *)
  fan_dirty : t list Atomic.t;
      (* the connections to look at: taken, or turned readable, since
         the fan last looked *)
  fan_asleep : slot option Atomic.t;
      (* the slot whose condition the fan's thread sleeps on, or is about
         to: the first poke since wakes it; later ones touch no lock *)
  mutable fan_clients : t list;  (* touched only by the fan's thread *)
  mutable fan_live : bool;  (* until its [fan_out] returns *)
}

and t = {
  conn : Transport.t;
  program : int;
  version : int;
  on_event : procedure:int -> string -> unit;
  keepalive : keepalive option;
  mutex : Mutex.t;
  pending : (int, slot) Hashtbl.t;
  mutable next_serial : int;
  mutable free_slots : slot list; (* guarded by [mutex] *)
  mutable n_free : int; (* [List.length free_slots] *)
  mutable closed : bool;
  mutable on_raw_reply : (string -> unit) option;
      (* test observer: every framed reply packet, exactly as received *)
  (* The read side, guarded by [mutex]: one thread at a time reads
     frames, an awaiting caller (the leader) or the receiver. *)
  mutable reading : bool;
  mutable reader : int;
      (* the id of the thread that holds the read side, -1 when none; read
         without [mutex] by the wait-for check below *)
  mutable held_by : fan option;
      (* the fan that holds the read side, if a fan does: readiness then
         wakes that fan's thread *)
  mutable rx_wanted : bool;
      (* the receiver should read once the read side is free: the channel
         turned readable while nobody read, or keepalive needs re-timing *)
  rx_cond : Condition.t; (* the receiver parks here *)
  (* Keepalive clock, touched only by the thread that holds the read
     side. *)
  mutable last_rx : float;
  mutable last_ping : float;
}

(* How a caller awaits its reply: it takes the read side ([Lead]; inside
   a fan-out, the fan takes it), it already holds it, running a callback
   of this connection ([Nested]), or another thread reads for it
   ([Follow]). *)
type role = Lead | Nested | Follow

(* A future: one in-flight call.  [await] reads the connection itself
   when nobody else does, otherwise blocks on the slot, until its
   deadline ([infinity] for an untimed call); it caches the outcome (so
   awaiting twice is harmless) and recycles the slot.  [fut_role] is the
   role {!send} took before sending; [None] for {!call_async}, whose
   awaiter takes its role when it awaits.  [fut_fan] is the fan-out it
   was sent in, whose thread awaits it reading the whole fan. *)
type future = {
  fut_client : t;
  fut_slot : slot;
  fut_serial : int;
  fut_procedure : int;
  fut_timeout : float;
  fut_until : float;
  fut_role : role option;
  fut_fan : fan option;
  mutable fut_result : (string, Verror.t) result option;
}

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* The critical sections that every call passes through lock and unlock
   by hand: they cannot raise, and [with_lock]'s closures would be
   allocated per call. *)

(* Note that [client] may have something to read, and wake the fan's
   thread if it sleeps.  Readiness hooks of every connection of the fan
   land here, on their senders' threads: only the first since the fan's
   thread went to sleep touches a lock, so no sender queues behind a
   woken fan's thread. *)
let poke fan client =
  let rec push () =
    let dirty = Atomic.get fan.fan_dirty in
    if not (List.memq client dirty || Atomic.compare_and_set fan.fan_dirty dirty (client :: dirty))
    then push ()
  in
  push ();
  Atomic.set fan.fan_ready true;
  match Atomic.exchange fan.fan_asleep None with
  | None -> ()
  | Some slot ->
    (* Once the fan's thread has let go of the slot's mutex it waits on
       the slot's condition; broadcast after the unlock, so that it
       wakes to a free lock. *)
    Mutex.lock slot.slot_mutex;
    Mutex.unlock slot.slot_mutex;
    Condition.broadcast slot.slot_cond

(* Broadcast after the unlock, as [Chan.send] signals: the waiter
   re-checks [outcome] under the lock.  The slot may by then be recycled
   for another call, whose waiter takes this as a spurious wake-up. *)
let deliver slot outcome =
  Mutex.lock slot.slot_mutex;
  slot.outcome <- Some outcome;
  Mutex.unlock slot.slot_mutex;
  Condition.broadcast slot.slot_cond

let outcome_of slot =
  Mutex.lock slot.slot_mutex;
  let outcome = slot.outcome in
  Mutex.unlock slot.slot_mutex;
  outcome

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
    client.n_free <- client.n_free - 1;
    slot
  | [] ->
    { slot_mutex = Mutex.create (); slot_cond = Condition.create (); outcome = None }

let release_slot client slot =
  slot.outcome <- None;
  with_lock client.mutex (fun () ->
      if client.n_free < max_pooled_slots then begin
        client.free_slots <- slot :: client.free_slots;
        client.n_free <- client.n_free + 1
      end)

(* Idempotent: the first closer (local close, read failure, keepalive
   death) delivers the error to every pending call and marks the client
   closed; later closers find nothing to do.  All under [client.mutex], so
   the close path cannot race a concurrent [call] registering a slot.
   The parked receiver is woken to end: a failed client handles no more
   frames, even ones queued behind the frame that killed it. *)
let fail_all_pending client err =
  let slots =
    with_lock client.mutex (fun () ->
        if client.closed then None
        else begin
          client.closed <- true;
          let slots =
            Hashtbl.fold (fun _ slot acc -> slot :: acc) client.pending []
          in
          Hashtbl.reset client.pending;
          Some slots
        end)
  in
  match slots with
  | None -> ()
  | Some slots ->
    Condition.broadcast client.rx_cond;
    List.iter (fun slot -> deliver slot (Error err)) slots

(* Take [serial] out of the pending table: [Some slot] if it was still
   there, so nobody else will deliver to that slot. *)
let take_pending client serial =
  Mutex.lock client.mutex;
  let slot = Hashtbl.find_opt client.pending serial in
  Hashtbl.remove client.pending serial;
  Mutex.unlock client.mutex;
  slot

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

let death_after ka = ka.ka_interval *. float_of_int ka.ka_count
let ping_due client ka = Float.max client.last_rx client.last_ping +. ka.ka_interval

(* The next keepalive event: a ping that is due, or death. *)
let keepalive_due client ka =
  Float.min (client.last_rx +. death_after ka) (ping_due client ka)

(* The next frame, waiting until [until] at most ([infinity]: no limit;
   a past instant: only look) and, with keepalive, no later than the next
   ping or death; [None] when no frame came.  Any frame counts as
   liveness; death is declared only when none has arrived by then.  The
   ping cannot block: the channels under a transport are unbounded.
   Only the holder of the read side calls this. *)
let next_frame client ~until =
  match client.keepalive with
  | None ->
    if until = infinity then Some (Transport.recv client.conn)
    else Transport.recv_opt client.conn ~timeout_s:(until -. Unix.gettimeofday ())
  | Some ka ->
    let wake = Float.min until (keepalive_due client ka) in
    (match
       Transport.recv_opt client.conn ~timeout_s:(wake -. Unix.gettimeofday ())
     with
     | Some wire ->
       client.last_rx <- Unix.gettimeofday ();
       Some wire
     | None ->
       let now = Unix.gettimeofday () in
       let silent = now -. client.last_rx in
       if silent > death_after ka then
         raise
           (Peer_silent
              (Printf.sprintf "keepalive: peer silent for %.2fs (interval %.2fs x %d)"
                 silent ka.ka_interval ka.ka_count));
       if now >= ping_due client ka then begin
         client.last_ping <- now;
         send_ping client
       end;
       None)

(* One frame, whoever read it: replies go to their callers by serial,
   events to [on_event].  Only the holder of the read side calls this,
   so frames are handled in wire order.  Raises [Bad_packet]. *)
let handle_frame client wire =
  let header, body = Rpc_packet.decode wire in
  match header.Rpc_packet.msg_type with
  | Rpc_packet.Event ->
    (try client.on_event ~procedure:header.Rpc_packet.procedure body with _ -> ())
  | Rpc_packet.Reply ->
    (match client.on_raw_reply with
     | None -> ()
     | Some observe -> (try observe wire with _ -> ()));
    (match take_pending client header.Rpc_packet.serial with
     | None -> () (* timed-out call or keepalive pong: drop *)
     | Some slot ->
       let outcome =
         match header.Rpc_packet.status with
         | Rpc_packet.Status_ok -> Ok body
         | Rpc_packet.Status_error ->
           (match Xdr.decode Protocol.Remote_protocol.error body with
            | err -> Error err
            | exception Xdr.Error msg ->
              Error
                (Verror.make Verror.Rpc_failure ("undecodable error reply: " ^ msg)))
       in
       deliver slot outcome)
  | Rpc_packet.Call -> () (* servers do not call clients *)

type step = Frame | Idle | Dead

(* Read and handle one frame ([next_frame]'s wait).  [Dead] once the
   connection has died: every pending call is then failed. *)
let fail client msg = fail_all_pending client (Verror.make Verror.Rpc_failure msg)

let step client ~until =
  match
    match next_frame client ~until with
    | None -> Idle
    | Some wire ->
      handle_frame client wire;
      Frame
  with
  | step -> step
  | exception Transport.Closed ->
    fail client "connection closed";
    Dead
  | exception Transport.Corrupt msg ->
    (* A corrupt frame poisons the stream: close the transport so the
       peer reaps its side, then fail every caller. *)
    Transport.close client.conn;
    fail client ("corrupt frame: " ^ msg);
    Dead
  | exception Peer_silent msg ->
    (* Blame keepalive before closing the transport, as [close] does. *)
    fail client msg;
    Transport.close client.conn;
    Dead
  | exception Rpc_packet.Bad_packet msg ->
    Transport.close client.conn;
    fail client ("bad packet from server: " ^ msg);
    Dead

let self_id () = Thread.id (Thread.self ())

let take_read_side client =
  let self = self_id () in
  Mutex.lock client.mutex;
  let role =
    if not client.reading then begin
      client.reading <- true;
      client.reader <- self;
      Lead
    end
    else if client.reader = self then Nested
    else Follow
  in
  Mutex.unlock client.mutex;
  role

(* Hand the read side back, and wake the receiver if something is left
   for it: frames or a close that arrived while the side was taken (their
   hooks found it taken), or a keepalive re-timing it asked for. *)
let release_read_side client =
  Mutex.lock client.mutex;
  client.reading <- false;
  client.reader <- -1;
  client.held_by <- None;
  let wake = client.rx_wanted || Transport.pending client.conn in
  client.rx_wanted <- wake;
  Mutex.unlock client.mutex;
  if wake then Condition.signal client.rx_cond

(* The channel's readiness hook: wake the receiver, unless some thread
   holds the read side and will see the frame itself — a fan's thread,
   which may be waiting on another of its connections, is poked. *)
let on_readable client () =
  Mutex.lock client.mutex;
  let wake = not client.reading in
  if wake then client.rx_wanted <- true;
  let fan = client.held_by in
  Mutex.unlock client.mutex;
  if wake then Condition.signal client.rx_cond
  else match fan with Some fan -> poke fan client | None -> ()

(* Park until there is something to read and nobody else reads it, or a
   keepalive event is due; [true] holding the read side.  [false] once
   the client has failed: the receiver then ends without reading. *)
let park client =
  with_lock client.mutex (fun () ->
      let rec wait () =
        if client.closed then ()
        else if client.reading then begin
          (* The reader keeps keepalive while it reads; have its release
             wake us to re-time the next ping. *)
          if Option.is_some client.keepalive then client.rx_wanted <- true;
          Condition.wait client.rx_cond client.mutex;
          wait ()
        end
        else if not client.rx_wanted then
          match client.keepalive with
          | None ->
            Condition.wait client.rx_cond client.mutex;
            wait ()
          | Some ka ->
            let due = keepalive_due client ka in
            if Unix.gettimeofday () < due then begin
              Ovsync.Timedwait.wait client.mutex client.rx_cond ~until:due;
              wait ()
            end
      in
      wait ();
      client.rx_wanted <- false;
      if client.closed then false
      else begin
        client.reading <- true;
        client.reader <- self_id ();
        true
      end)

(* The client's only thread.  It never blocks in a receive: it parks
   until the channel turns readable while no caller reads it (calls that
   overlap, events between calls, a close) or keepalive is due, then
   reads what is queued without waiting and parks again.  It ends with
   the connection. *)
let receiver_loop client =
  let rec drain () =
    match step client ~until:neg_infinity with
    | Frame -> drain ()
    | Idle -> true
    | Dead -> false
  in
  let rec loop () =
    if park client then begin
      let alive = drain () in
      release_read_side client;
      if alive then loop ()
    end
  in
  loop ()

let connect ~address ~kind ~program ~version ?identity ?faults ?keepalive
    ?(on_event = fun ~procedure:_ _ -> ()) () =
  match Netsim.connect ?identity ?faults address kind with
  | exception Netsim.Connection_refused addr ->
    Verror.error Verror.Rpc_failure "connection refused at %S" addr
  | conn ->
    let now = Unix.gettimeofday () in
    let client =
      {
        conn;
        program;
        version;
        on_event;
        keepalive;
        mutex = Mutex.create ();
        pending = Hashtbl.create 8;
        next_serial = 1;
        free_slots = [];
        n_free = 0;
        closed = false;
        on_raw_reply = None;
        reading = false;
        reader = -1;
        held_by = None;
        rx_wanted = false;
        rx_cond = Condition.create ();
        last_rx = now;
        last_ping = now;
      }
    in
    let unhook = Transport.on_readable conn (on_readable client) in
    (* A first look for anything queued before the hook existed. *)
    with_lock client.mutex (fun () ->
        if Transport.pending conn then client.rx_wanted <- true);
    ignore
      (Thread.create
         (fun () ->
           receiver_loop client;
           unhook ())
         ());
    Ok client

let set_raw_reply_hook client hook = client.on_raw_reply <- hook

(* Issue a call without waiting: the returned future lets one thread keep
   as many calls in flight on the connection as it likes (pipelining);
   whoever reads demultiplexes replies by serial. *)
let issue client ~role ~fan ~procedure ?(body = "") ?timeout_s () =
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
    match Rpc_packet.encode header body with
    | exception Rpc_packet.Bad_packet msg ->
      (* Too large to frame: nothing was sent and the connection stays
         usable; only this call's slot goes back. *)
      if Option.is_some (take_pending client serial) then release_slot client slot;
      Verror.error Verror.Rpc_failure "call %d not sent: %s" procedure msg
    | packet -> (
      match Transport.send client.conn packet with
      | exception Transport.Closed ->
        (* Nothing was sent: if the slot is still pending nobody else can
           deliver to it, so reclaim it directly.  When a concurrent
           [fail_all_pending] already took it, that closer delivers and an
           eventual await would consume — but we never built a future, so
           leave the slot to the GC in that (already-fatal) case. *)
        if Option.is_some (take_pending client serial) then release_slot client slot;
        (* Dead even if no reader has noticed yet: close now, so a caller
           that retries when [is_closed] holds sees it, and a leader
           blocked reading wakes. *)
        fail_all_pending client
          (Verror.make Verror.Rpc_failure "connection closed");
        Transport.close client.conn;
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
            fut_role = role;
            fut_fan = fan;
            fut_result = None;
          })

let call_async client = issue client ~role:None ~fan:None

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

(* Read frames (ours and anyone else's) until our slot is filled,
   [until] passes or the connection dies.  The connection is looked at
   once even when [until] has passed: a reply that came in time is not
   left unread. *)
let rec read_until client slot ~until =
  if Option.is_none (outcome_of slot) then
    match step client ~until with
    | Frame -> read_until client slot ~until
    | Idle ->
      if until = infinity || Unix.gettimeofday () < until then
        read_until client slot ~until
    | Dead -> ()

(* Lead: read, then hand the read side back. *)
let lead client slot ~until =
  match read_until client slot ~until with
  | () -> release_read_side client
  | exception exn ->
    release_read_side client;
    raise exn

(* Handle every frame queued on [client]; a look at a connection whose
   keepalive is due pings it or declares it dead. *)
let drain client =
  let rec go () =
    match step client ~until:neg_infinity with
    | Frame -> go ()
    | Idle | Dead -> ()
  in
  go ()

(* Look at the connections of [fan] that turned readable since the
   last look, and at any whose keepalive is due. *)
let look fan =
  Atomic.set fan.fan_ready false;
  let dirty = Atomic.exchange fan.fan_dirty [] in
  List.iter drain dirty;
  List.iter
    (fun client ->
      match client.keepalive with
      | Some ka
        when keepalive_due client ka <= Unix.gettimeofday ()
             && not (List.memq client dirty) ->
        drain client
      | _ -> ())
    fan.fan_clients

(* The fan's next keepalive event, or [until]. *)
let fan_wake fan ~until =
  List.fold_left
    (fun wake client ->
      match client.keepalive with
      | Some ka -> Float.min wake (keepalive_due client ka)
      | None -> wake)
    until fan.fan_clients

(* Read the connections of [fan] until [slot] is filled — by a frame
   read here, or by another reader when the call is followed — or
   [until] passes.  Every frame that landed is read once more when
   [until] has passed, as [read_until] looks once more.  A connection's
   readiness hook marks it for the next look, so only connections with
   something queued are read.  The thread sleeps on the slot's own
   condition, which a delivery by another reader broadcasts too. *)
let rec fan_read fan slot ~until =
  if Option.is_none (outcome_of slot) then begin
    look fan;
    if Unix.gettimeofday () < until then begin
      let wake = fan_wake fan ~until in
      Mutex.lock slot.slot_mutex;
      (* Asleep before ready is read: a poke that comes later sees it. *)
      Atomic.set fan.fan_asleep (Some slot);
      while
        Option.is_none slot.outcome
        && (not (Atomic.get fan.fan_ready))
        && (wake = infinity || Unix.gettimeofday () < wake)
      do
        Ovsync.Timedwait.wait slot.slot_mutex slot.slot_cond ~until:wake
      done;
      Atomic.set fan.fan_asleep None;
      Mutex.unlock slot.slot_mutex;
      fan_read fan slot ~until
    end
  end

(* The threads that wait for another thread to read their reply, each
   with the connection it waits on: the wait-for graph.  A thread that
   holds one connection's read side (it runs that connection's callback,
   or reads it for a fan-out) and follows on a second connection whose
   reader, through a chain of such waits, waits for the first would wait
   for good; it fails at once instead. *)
let waits_mutex = Mutex.create ()
let waits : (int, t) Hashtbl.t = Hashtbl.create 16

(* Caller holds [waits_mutex].  Every link but the threads' read sides
   is read under it; a read side that changes hands meanwhile belongs to
   no thread that waits. *)
let closes_cycle client self =
  let rec walk c hops =
    let r = c.reader in
    r = self
    || hops > 0
       && match Hashtbl.find_opt waits r with
          | Some next -> walk next (hops - 1)
          | None -> false
  in
  walk client (Hashtbl.length waits)

let not_awaited_text = "not awaited: the reader of its connection waits for this thread"

let not_awaited (e : Verror.t) =
  e.Verror.code = Verror.Rpc_failure
  && String.ends_with ~suffix:not_awaited_text e.Verror.message

(* Run [f], which waits for another thread to read [client]'s reply,
   unless that wait would close a cycle.  A fan's thread follows while
   it reads its fan, whose callbacks may follow in turn: the wait they
   replace is restored when they return. *)
let following client ~procedure f =
  let self = self_id () in
  Mutex.lock waits_mutex;
  let cycle = closes_cycle client self in
  let outer = Hashtbl.find_opt waits self in
  if not cycle then Hashtbl.replace waits self client;
  Mutex.unlock waits_mutex;
  if cycle then Verror.error Verror.Rpc_failure "call %d %s" procedure not_awaited_text
  else
    Fun.protect
      ~finally:(fun () ->
        Mutex.lock waits_mutex;
        (match outer with
         | Some c -> Hashtbl.replace waits self c
         | None -> Hashtbl.remove waits self);
        Mutex.unlock waits_mutex)
      f

(* Collect [fut]'s outcome, reading first unless another thread reads
   the connection ([Follow]): a [Nested] caller reads for its own call
   and leaves the read side to the frame handler it runs inside, and a
   call sent in a fan-out is awaited reading the whole fan, followed or
   not.  Otherwise the reader delivers to the slot.  Either way the slot
   is filled — a reply, or a failure when the connection dies — unless
   the call's deadline or [until] passes first.  A timed call that
   outlives its deadline claims its serial back, and so does one the
   caller gives up on at [until] ([None]); if the serial is gone, a
   delivery is under way and wins. *)
let finish fut role ~until =
  let client = fut.fut_client and slot = fut.fut_slot in
  let stop = Float.min fut.fut_until until in
  (match (fut.fut_fan, role) with
   | Some fan, (Lead | Follow) ->
     if not fan.fan_live then invalid_arg "Rpc_client: a fan-out's call awaited after it";
     fan_read fan slot ~until:stop
   | None, Lead -> lead client slot ~until:stop
   | _, Nested -> read_until client slot ~until:stop
   | None, Follow -> ());
  let outcome =
    match wait_slot slot ~until:stop with
    | Some outcome -> Some outcome
    | None ->
      if Option.is_some (take_pending client fut.fut_serial) then
        if fut.fut_until <= until then
          Some
            (Error
               (Verror.make Verror.Rpc_failure
                  (Printf.sprintf "call %d timed out after %.1fs" fut.fut_procedure
                     fut.fut_timeout)))
        else None
      else wait_slot slot ~until:infinity
  in
  fut.fut_result <-
    Some
      (match outcome with
       | Some outcome -> outcome
       | None ->
         Verror.error Verror.Rpc_failure "call %d given up by its caller"
           fut.fut_procedure);
  release_slot client slot;
  outcome

let await_until fut ~until =
  match fut.fut_result with
  | Some outcome -> Some outcome
  | None -> (
    let client = fut.fut_client in
    let role =
      match fut.fut_role with Some role -> role | None -> take_read_side client
    in
    match role with
    | Follow -> (
      match
        following client ~procedure:fut.fut_procedure (fun () ->
            Ok (finish fut Follow ~until))
      with
      | Ok outcome -> outcome
      | Error _ as cycle ->
        (* Claim the serial back, as a timed-out call does. *)
        let outcome =
          if Option.is_some (take_pending client fut.fut_serial) then cycle
          else Option.get (wait_slot fut.fut_slot ~until:infinity)
        in
        fut.fut_result <- Some outcome;
        release_slot client fut.fut_slot;
        Some outcome)
    | role -> finish fut role ~until)

let await fut = Option.get (await_until fut ~until:infinity)

(* Issue a call holding the read side [role] took: a call that is not
   sent, or whose send raises, hands it straight back — unless a fan
   holds it, which hands it back when its [fan_out] returns. *)
let issue_holding client role ~fan ~procedure ?body ?timeout_s () =
  let hand_back () = if role = Lead && Option.is_none fan then release_read_side client in
  match issue client ~role:(Some role) ~fan ~procedure ?body ?timeout_s () with
  | Ok _ as sent -> sent
  | Error _ as err ->
    hand_back ();
    err
  | exception exn ->
    hand_back ();
    raise exn

(* The read side is taken before the send: a reply that came back before
   the caller got round to reading would otherwise wake the receiver.  A
   follower that would close a wait-for cycle sends nothing. *)
let call client ~procedure ?body ?timeout_s () =
  let send role =
    match issue_holding client role ~fan:None ~procedure ?body ?timeout_s () with
    | Ok fut -> Option.get (finish fut role ~until:infinity)
    | Error _ as err -> err
  in
  match take_read_side client with
  | Follow -> following client ~procedure (fun () -> send Follow)
  | role -> send role

type _ Effect.t += Current_fan : fan option Effect.t

let current_fan () =
  try Effect.perform Current_fan with Effect.Unhandled _ -> None

(* Inside a fan-out the fan takes a free read side, and keeps it: [Lead]
   also when this thread took it for the fan before.  A side this thread
   holds otherwise is [Nested]. *)
let take_for_fan client fan =
  let self = self_id () in
  Mutex.lock client.mutex;
  let role =
    if not client.reading then begin
      client.reading <- true;
      client.reader <- self;
      client.held_by <- Some fan;
      fan.fan_clients <- client :: fan.fan_clients;
      Lead
    end
    else if client.reader <> self then Follow
    else match client.held_by with Some f when f == fan -> Lead | _ -> Nested
  in
  Mutex.unlock client.mutex;
  (* Frames queued before the fan took the connection: look at it. *)
  if role = Lead && Transport.pending client.conn then poke fan client;
  role

(* [call]'s first half, for a caller that sends to several connections
   before it reads any reply: a follower's wait-for check comes when it
   awaits, after the send. *)
let send client ~procedure ?body ?timeout_s () =
  match current_fan () with
  | None ->
    issue_holding client (take_read_side client) ~fan:None ~procedure ?body ?timeout_s ()
  | Some fan as in_fan ->
    issue_holding client (take_for_fan client fan) ~fan:in_fan ~procedure ?body ?timeout_s
      ()

let fan_out f =
  match current_fan () with
  | Some _ -> f ()
  | None ->
    let fan =
      {
        fan_ready = Atomic.make false;
        fan_dirty = Atomic.make [];
        fan_asleep = Atomic.make None;
        fan_clients = [];
        fan_live = true;
      }
    in
    let hand_back () =
      fan.fan_live <- false;
      List.iter release_read_side fan.fan_clients;
      fan.fan_clients <- []
    in
    let effc (type a) (e : a Effect.t) =
      match e with
      | Current_fan ->
        Some (fun (k : (a, _) Effect.Deep.continuation) -> Effect.Deep.continue k (Some fan))
      | _ -> None
    in
    match Effect.Deep.try_with f () { Effect.Deep.effc } with
    | v ->
      hand_back ();
      v
    | exception exn ->
      hand_back ();
      raise exn

let close client =
  (* Same ordering as the keepalive death: deliver the precise error,
     then close (the reader's generic one must not win the race). *)
  fail_all_pending client (Verror.make Verror.Rpc_failure "connection closed locally");
  Transport.close client.conn

let is_closed client = with_lock client.mutex (fun () -> client.closed)
let pending_calls client = with_lock client.mutex (fun () -> Hashtbl.length client.pending)
let bytes_tx client = Transport.bytes_tx client.conn
let bytes_rx client = Transport.bytes_rx client.conn
