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

(* A fan: the read sides one thread holds while it waits for replies.
   Every call belongs to one: inside {!fan_out}, the fan it scopes;
   outside, a fan of one made for the call, which holds the read side it
   took or borrowed, or none when another thread reads (a follower).
   While its thread waits for any reply it reads all of them, so a frame
   on any — another caller's reply, an event, a reply of its own — is
   handled when it comes. *)
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
  mutable fan_live : bool;  (* until it hands its read sides back *)
  fan_lone : bool;
      (* made by {!send} outside {!fan_out} for one call, whose await
         hands back what the fan took: a read side, or a follower's
         wait-for entry *)
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
     frames, an awaiting caller's fan or the receiver. *)
  mutable reading : bool;
  mutable reader : int;
      (* the id of the thread that holds the read side, -1 when none; read
         without [mutex] by the wait-for check below *)
  mutable held_by : fan option;
      (* the {!fan_out} that holds the read side, if one does: readiness
         then pokes its thread.  A fan of one reads its connection in the
         channel's own read, which needs no poke. *)
  mutable rx_wanted : bool;
      (* the receiver should read once the read side is free: the channel
         turned readable while nobody read, or keepalive needs re-timing *)
  rx_cond : Condition.t; (* the receiver parks here *)
  (* Keepalive clock, touched only by the thread that holds the read
     side. *)
  mutable last_rx : float;
  mutable last_ping : float;
}

(* A future: one in-flight call, in the fan [fut_fan].  [await] waits
   in the fan until the call's deadline ([infinity] for an untimed
   call); it caches the outcome (so awaiting twice is harmless) and
   recycles the slot. *)
type future = {
  fut_client : t;
  fut_slot : slot;
  fut_serial : int;
  fut_procedure : int;
  fut_timeout : float;
  fut_until : float;
  fut_fan : fan;
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

(* Handle every frame queued on [client]: [false] once it has died.  A
   look at a connection whose keepalive is due pings it or declares it
   dead. *)
let rec drain client =
  match step client ~until:neg_infinity with
  | Frame -> drain client
  | Idle -> true
  | Dead -> false

let self_id () = Thread.id (Thread.self ())

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
   holds the read side and will see the frame itself — a fan-out's
   thread, which may be waiting on another of its connections, is
   poked. *)
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
  let rec loop () =
    if park client then begin
      let alive = drain client in
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

(* Issue a call in [fan] without waiting: the returned future lets one
   thread keep as many calls in flight as it likes (pipelining); whoever
   reads demultiplexes replies by serial. *)
let issue client ~fan ~procedure ?(body = "") ?timeout_s () =
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
           that retries when [is_closed] holds sees it, and a caller
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
            fut_fan = fan;
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

(* A connection's keepalive while it is alive: a dead one's clock has
   stopped, and a fan that timed its sleep by it would read in a loop.
   [closed] is read without [mutex]; the fan's thread set it, or saw it
   set, under [mutex] when a look found the connection dead. *)
let live_keepalive client = if client.closed then None else client.keepalive

(* Look at the connections of [fan] that turned readable since the
   last look, and at any whose keepalive is due. *)
let look fan =
  Atomic.set fan.fan_ready false;
  let dirty = Atomic.exchange fan.fan_dirty [] in
  List.iter (fun client -> ignore (drain client)) dirty;
  List.iter
    (fun client ->
      match live_keepalive client with
      | Some ka
        when keepalive_due client ka <= Unix.gettimeofday ()
             && not (List.memq client dirty) ->
        ignore (drain client)
      | _ -> ())
    fan.fan_clients

(* The fan's next keepalive event, or [until]. *)
let fan_wake fan ~until =
  List.fold_left
    (fun wake client ->
      match live_keepalive client with
      | Some ka -> Float.min wake (keepalive_due client ka)
      | None -> wake)
    until fan.fan_clients

(* Wait in [fan] until [slot], the slot of a call on [client], is filled
   — by a frame read here, or by another reader — or [until] passes.
   Each round picks its sleep from what the fan holds.  Exactly
   [client]: the channel's own timed read ([next_frame], keepalive
   included), handling each frame as it comes.  Anything else (several
   connections, or none while another thread reads [client]): read the
   connections whose readiness hooks marked them, and any whose
   keepalive is due, then sleep on the slot's own condition, which a
   delivery by another reader broadcasts and the first poke since the
   sleep began wakes.  Either way the connections are looked at once
   more when [until] has passed: a reply that came in time is not left
   unread. *)
let rec wait fan client slot ~until =
  if Option.is_none (outcome_of slot) then
    match fan.fan_clients with
    | [ c ] when c == client -> (
      match step client ~until with
      | Frame -> wait fan client slot ~until
      | Idle ->
        if until = infinity || Unix.gettimeofday () < until then wait fan client slot ~until
      | Dead -> ())
    | _ ->
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
        wait fan client slot ~until
      end

(* The threads that wait for another thread to read their reply, each
   with the connections it waits on and the fans it waits in, the wait
   it is in now first: the wait-for graph.  A thread that holds one
   connection's read side and does not read it while it waits (it runs
   that connection's callback outside any fan that reads it) and
   follows on a second connection whose reader, through a chain of such
   waits, waits for the first would wait for good; it fails at once
   instead.  A thread that waits in a fan reads the fan's connections
   meanwhile, so a chain through one of them ends there. *)
let waits_mutex = Mutex.create ()
let waits : (int, (t * fan) list) Hashtbl.t = Hashtbl.create 16

(* Caller holds [waits_mutex]; [fan] is the fan this thread would wait
   in.  Every link but the threads' read sides and their fans'
   connections is read under it; a read side that changes hands
   meanwhile belongs to no thread that waits, and a fan's connections
   only grow until it hands them back. *)
let closes_cycle client fan self =
  let rec walk c hops =
    let r = c.reader in
    if r = self then not (List.memq c fan.fan_clients)
    else
      hops > 0
      && match Hashtbl.find_opt waits r with
         | Some ((next, by) :: _) -> (not (List.memq c by.fan_clients)) && walk next (hops - 1)
         | Some [] | None -> false
  in
  walk client (Hashtbl.length waits)

let not_awaited_text = "not awaited: the reader of its connection waits for this thread"

let not_awaited (e : Verror.t) =
  e.Verror.code = Verror.Rpc_failure
  && String.ends_with ~suffix:not_awaited_text e.Verror.message

(* Enter this thread in the wait-for graph as waiting in [fan] for
   [client]'s reader, unless that wait would close a cycle. *)
let follow client fan ~procedure =
  let self = self_id () in
  Mutex.lock waits_mutex;
  let cycle = closes_cycle client fan self in
  if not cycle then
    Hashtbl.replace waits self
      ((client, fan) :: Option.value (Hashtbl.find_opt waits self) ~default:[]);
  Mutex.unlock waits_mutex;
  if cycle then Verror.error Verror.Rpc_failure "call %d %s" procedure not_awaited_text
  else Ok ()

(* Take one wait for [client] back out: a callback that followed while
   its thread followed another connection leaves that wait in place. *)
let unfollow client =
  let self = self_id () in
  let rec drop = function
    | [] -> []
    | ((c, _) as wait) :: rest -> if c == client then rest else wait :: drop rest
  in
  Mutex.lock waits_mutex;
  (match drop (Option.value (Hashtbl.find_opt waits self) ~default:[]) with
   | [] -> Hashtbl.remove waits self
   | cs -> Hashtbl.replace waits self cs);
  Mutex.unlock waits_mutex

let hand_back fan =
  fan.fan_live <- false;
  List.iter release_read_side fan.fan_clients;
  fan.fan_clients <- []

(* Done with a call on [client] in [fan], sent or not: a follower leaves
   the wait-for graph, and a fan of one hands back its read side. *)
let ended fan client ~follower =
  if follower then unfollow client;
  if fan.fan_lone then hand_back fan

(* Collect [fut]'s outcome, waiting in its fan.  The slot is filled — a
   reply, or a failure when the connection dies — unless the call's
   deadline or [until] passes first.  A timed call that outlives its
   deadline claims its serial back, and so does one the caller gives up
   on at [until] ([None]); if the serial is gone, a delivery is under
   way and wins. *)
let finish fut ~until =
  let client = fut.fut_client and slot = fut.fut_slot in
  if not fut.fut_fan.fan_live then invalid_arg "Rpc_client: a fan-out's call awaited after it";
  let stop = Float.min fut.fut_until until in
  wait fut.fut_fan client slot ~until:stop;
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

(* A follower in a fan-out is checked against the wait-for graph here;
   a lone one was checked before it sent. *)
let await_until fut ~until =
  match fut.fut_result with
  | Some outcome -> Some outcome
  | None -> (
    let fan = fut.fut_fan and client = fut.fut_client in
    let follower = not (List.memq client fan.fan_clients) in
    match
      if follower && not fan.fan_lone then follow client fan ~procedure:fut.fut_procedure
      else Ok ()
    with
    | Error _ as cycle ->
      (* Claim the serial back, as a timed-out call does. *)
      let outcome =
        if Option.is_some (take_pending client fut.fut_serial) then cycle
        else Option.get (wait_slot fut.fut_slot ~until:infinity)
      in
      fut.fut_result <- Some outcome;
      release_slot client fut.fut_slot;
      Some outcome
    | Ok () -> (
      match finish fut ~until with
      | outcome ->
        ended fan client ~follower;
        outcome
      | exception exn ->
        ended fan client ~follower;
        raise exn))

let await fut = Option.get (await_until fut ~until:infinity)

type _ Effect.t += Current_fan : fan option Effect.t

let current_fan () =
  try Effect.perform Current_fan with Effect.Unhandled _ -> None

let new_fan ~lone clients =
  {
    fan_ready = Atomic.make false;
    fan_dirty = Atomic.make [];
    fan_asleep = Atomic.make None;
    fan_clients = clients;
    fan_live = true;
    fan_lone = lone;
  }

(* The fan a call on [client] belongs to, taking the read side when it
   is free, before the send: a reply that came back before the caller
   got round to reading would otherwise wake the receiver.  Inside a
   fan-out ([in_fan]) that is the fan-out's fan: it takes a free read
   side and keeps it, and a follower's wait-for check comes when it
   awaits.  Outside, it is a fan of one that takes the free read side,
   or holds none: a follower is checked against the wait-for graph and
   entered in it now, before anything is sent, so a call that would
   close a cycle sends nothing.  A read side this thread holds otherwise
   (a callback's own connection) is borrowed by a fan of one, which
   reads it for the call and leaves it to its holder. *)
let fan_for client in_fan ~procedure =
  let self = self_id () in
  Mutex.lock client.mutex;
  let free = not client.reading in
  let mine = client.reader = self in
  if free then begin
    client.reading <- true;
    client.reader <- self;
    client.held_by <- in_fan
  end;
  let held_by = client.held_by in
  Mutex.unlock client.mutex;
  match in_fan with
  | Some fan when free ->
    fan.fan_clients <- client :: fan.fan_clients;
    (* Frames queued before the fan took the connection: look at it. *)
    if Transport.pending client.conn then poke fan client;
    Ok fan
  | Some fan when (not mine) || (match held_by with Some f -> f == fan | None -> false) ->
    Ok fan
  | _ when free -> Ok (new_fan ~lone:true [ client ])
  | _ when mine -> Ok (new_fan ~lone:false [ client ])
  | _ ->
    let fan = new_fan ~lone:true [] in
    Result.map (fun () -> fan) (follow client fan ~procedure)

let send client ~procedure ?body ?timeout_s () =
  match fan_for client (current_fan ()) ~procedure with
  | Error _ as cycle -> cycle
  | Ok fan ->
    let sent = issue client ~fan ~procedure ?body ?timeout_s () in
    (* Nothing was sent: a fan of one hands back what it took. *)
    if Result.is_error sent && fan.fan_lone then
      ended fan client ~follower:(not (List.memq client fan.fan_clients));
    sent

let call client ~procedure ?body ?timeout_s () =
  Result.bind (send client ~procedure ?body ?timeout_s ()) await

let fan_out f =
  match current_fan () with
  | Some _ -> f ()
  | None -> (
    let fan = new_fan ~lone:false [] in
    let effc (type a) (e : a Effect.t) =
      match e with
      | Current_fan ->
        Some (fun (k : (a, _) Effect.Deep.continuation) -> Effect.Deep.continue k (Some fan))
      | _ -> None
    in
    match Effect.Deep.try_with f () { Effect.Deep.effc } with
    | v ->
      hand_back fan;
      v
    | exception exn ->
      hand_back fan;
      raise exn)

let close client =
  (* Same ordering as the keepalive death: deliver the precise error,
     then close (the reader's generic one must not win the race). *)
  fail_all_pending client (Verror.make Verror.Rpc_failure "connection closed locally");
  Transport.close client.conn

let is_closed client = with_lock client.mutex (fun () -> client.closed)
let pending_calls client = with_lock client.mutex (fun () -> Hashtbl.length client.pending)
let bytes_tx client = Transport.bytes_tx client.conn
let bytes_rx client = Transport.bytes_rx client.conn
