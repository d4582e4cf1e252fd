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
   took, or none when another thread reads (a follower).  While its
   thread waits for any reply it reads all of them, so a frame on any —
   another caller's reply, an event, a reply of its own — is handled
   when it comes.  A fan that follows a connection takes its read side
   as soon as it is free. *)
and fan = {
  fan_ready : bool Atomic.t;
      (* a connection turned readable since the fan last looked *)
  fan_dirty : t list Atomic.t;
      (* the connections to look at: taken, turned readable, or handed
         back with frames queued since the fan last looked *)
  fan_asleep : slot option Atomic.t;
      (* the slot whose condition the fan's thread sleeps on, or is about
         to: the first poke since wakes it; later ones touch no lock *)
  mutable fan_clients : t list;  (* touched only by the fan's thread *)
  mutable fan_live : bool;  (* until it hands its read sides back *)
  fan_lone : bool;
      (* made by {!send} outside {!fan_out} for one call, whose await
         hands back the read side the fan took *)
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
  mutable held_by : fan option;
      (* the {!fan_out} that holds the read side, if one does: readiness
         then pokes its thread.  A fan of one reads its connection in the
         channel's own read, which needs no poke. *)
  mutable followers : fan list;
      (* fans awaiting a call here without the read side: readiness and a
         hand-back with frames queued poke them while the side is free *)
  deferred : (unit -> unit) Queue.t;
      (* runs handed to the receiver ({!defer}), in the order given *)
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
   The parked receiver is woken to end, once it has run what was
   deferred: a failed client handles no more frames, even ones queued
   behind the frame that killed it. *)
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
   events to [on_event], which hands anything that may block to the
   receiver ({!defer}).  Only the holder of the read side calls this,
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

let poke_all fans client = List.iter (fun fan -> poke fan client) fans

(* Hand the read side back, and wake the receiver and the followers if
   something is left to read: frames or a close that arrived while the
   side was taken (their hooks found it taken), or a keepalive re-timing
   the receiver asked for. *)
let release_read_side client =
  Mutex.lock client.mutex;
  client.reading <- false;
  client.held_by <- None;
  let wake = client.rx_wanted || Transport.pending client.conn in
  client.rx_wanted <- wake;
  let followers = if wake then client.followers else [] in
  Mutex.unlock client.mutex;
  if wake then begin
    Condition.signal client.rx_cond;
    poke_all followers client
  end

(* The channel's readiness hook: while nobody holds the read side, wake
   the receiver and the followers, whichever takes it first reads;
   otherwise the holder sees the frame itself — a fan-out's thread, which
   may be waiting on another of its connections, is poked. *)
let on_readable client () =
  Mutex.lock client.mutex;
  let free = not client.reading in
  if free then client.rx_wanted <- true;
  let fan = client.held_by and followers = if free then client.followers else [] in
  Mutex.unlock client.mutex;
  if free then begin
    Condition.signal client.rx_cond;
    poke_all followers client
  end
  else match fan with Some fan -> poke fan client | None -> ()

type wake = Read | Deliver | End

(* Park until there are runs to deliver, or something to read and nobody
   else reads it, or a keepalive event is due.  [Deliver] moves the runs
   into [runs]; [Read] holds the read side.  [End] once the client has
   failed and nothing is left to deliver. *)
let park client runs =
  with_lock client.mutex (fun () ->
      let rec wait () =
        if client.closed || not (Queue.is_empty client.deferred) then ()
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
      if not (Queue.is_empty client.deferred) then begin
        Queue.transfer client.deferred runs;
        Deliver
      end
      else if client.closed then End
      else begin
        client.rx_wanted <- false;
        client.reading <- true;
        Read
      end)

(* The client's only thread.  It never blocks in a receive: it parks
   until the channel turns readable while no caller reads it (calls that
   overlap, events between calls, a close) or keepalive is due, then
   reads what is queued without waiting, hands the read side back and
   parks again.  It runs what {!defer} hands it holding no read side, in
   order.  It ends with the connection, once it has run everything
   deferred before then. *)
let receiver_loop client =
  let runs = Queue.create () in
  let rec loop () =
    match park client runs with
    | Deliver ->
      Queue.iter (fun run -> try run () with _ -> ()) runs;
      Queue.clear runs;
      loop ()
    | Read ->
      ignore (drain client);
      release_read_side client;
      loop ()
    | End -> ()
  in
  loop ()

let defer client run =
  Mutex.lock client.mutex;
  Queue.push run client.deferred;
  Mutex.unlock client.mutex;
  Condition.signal client.rx_cond

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
        held_by = None;
        followers = [];
        deferred = Queue.create ();
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

(* Take [client]'s read side for [fan] if nobody holds it: [true] if
   it did.  A fan-out's readiness then pokes its thread. *)
let take fan client =
  Mutex.lock client.mutex;
  let free = not client.reading in
  if free then begin
    client.reading <- true;
    client.held_by <- (if fan.fan_lone then None else Some fan)
  end;
  Mutex.unlock client.mutex;
  if free then fan.fan_clients <- client :: fan.fan_clients;
  free

(* Look at the connections of [fan] that turned readable since the
   last look, taking the read side of a followed one that is free, and
   at any whose keepalive is due. *)
let look fan =
  Atomic.set fan.fan_ready false;
  let dirty = Atomic.exchange fan.fan_dirty [] in
  List.iter
    (fun client ->
      if List.memq client fan.fan_clients || take fan client then ignore (drain client))
    dirty;
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
    | clients ->
      look fan;
      (* A look that took a followed side chooses again. *)
      if fan.fan_clients != clients then wait fan client slot ~until
      else if Unix.gettimeofday () < until then begin
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

(* A fan that follows [client] while it waits: readiness pokes it while
   the read side is free, and a look then takes the side, so the
   follower never waits for a reader that has stopped reading — the
   receiver running deferred work included.  A side already free when it
   starts to follow is looked at at once. *)
let with_follower client fan f =
  Mutex.lock client.mutex;
  client.followers <- fan :: client.followers;
  let free = not client.reading in
  Mutex.unlock client.mutex;
  if free then poke fan client;
  f ();
  Mutex.lock client.mutex;
  client.followers <- List.filter (( != ) fan) client.followers;
  Mutex.unlock client.mutex

let hand_back fan =
  fan.fan_live <- false;
  List.iter release_read_side fan.fan_clients;
  fan.fan_clients <- []

(* Collect [fut]'s outcome, waiting in its fan.  The slot is filled — a
   reply, or a failure when the connection dies — unless the call's
   deadline or [until] passes first.  A timed call that outlives its
   deadline claims its serial back, and so does one the caller gives up
   on at [until] ([None]); if the serial is gone, a delivery is under
   way and wins. *)
let finish fut ~until =
  let client = fut.fut_client and slot = fut.fut_slot and fan = fut.fut_fan in
  if not fan.fan_live then invalid_arg "Rpc_client: a fan-out's call awaited after it";
  let stop = Float.min fut.fut_until until in
  if List.memq client fan.fan_clients then wait fan client slot ~until:stop
  else with_follower client fan (fun () -> wait fan client slot ~until:stop);
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

(* A fan of one hands back its read side once its call is awaited. *)
let await_until fut ~until =
  match fut.fut_result with
  | Some outcome -> Some outcome
  | None -> (
    let fan = fut.fut_fan in
    match finish fut ~until with
    | outcome ->
      if fan.fan_lone then hand_back fan;
      outcome
    | exception exn ->
      if fan.fan_lone then hand_back fan;
      raise exn)

let await fut = Option.get (await_until fut ~until:infinity)

type _ Effect.t += Current_fan : fan option Effect.t

let current_fan () =
  try Effect.perform Current_fan with Effect.Unhandled _ -> None

let new_fan ~lone =
  {
    fan_ready = Atomic.make false;
    fan_dirty = Atomic.make [];
    fan_asleep = Atomic.make None;
    fan_clients = [];
    fan_live = true;
    fan_lone = lone;
  }

(* The fan a call on [client] belongs to, taking the read side when it
   is free, before the send: a reply that came back before the caller
   got round to reading would otherwise wake the receiver.  Inside a
   fan-out that is the fan-out's fan, which keeps what it takes;
   outside, a fan of one, which holds the side it took, or none (a
   follower). *)
let fan_for client = function
  | Some fan ->
    if (not (List.memq client fan.fan_clients)) && take fan client then
      (* Frames queued before the fan took the connection: look at it. *)
      if Transport.pending client.conn then poke fan client;
    fan
  | None ->
    let fan = new_fan ~lone:true in
    ignore (take fan client);
    fan

let send client ~procedure ?body ?timeout_s () =
  let fan = fan_for client (current_fan ()) in
  let sent = issue client ~fan ~procedure ?body ?timeout_s () in
  (* Nothing was sent: a fan of one hands back what it took. *)
  if Result.is_error sent && fan.fan_lone then hand_back fan;
  sent

let call client ~procedure ?body ?timeout_s () =
  Result.bind (send client ~procedure ?body ?timeout_s ()) await

let fan_out f =
  match current_fan () with
  | Some _ -> f ()
  | None -> (
    let fan = new_fan ~lone:false in
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

