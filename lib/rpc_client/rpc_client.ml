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

(* Deadline heap: array-backed binary min-heap ordered by expiry time.
   One per client, owned by the shared timer thread; entries whose serial
   is no longer pending are skipped on expiry (lazy deletion), so a reply
   arriving before the deadline costs nothing extra. *)
module Heap = struct
  type entry = { at : float; serial : int; procedure : int; timeout : float }
  type t = { mutable a : entry array; mutable n : int }

  let dummy = { at = 0.; serial = 0; procedure = 0; timeout = 0. }
  let create () = { a = Array.make 8 dummy; n = 0 }

  let push h e =
    if h.n = Array.length h.a then begin
      let a = Array.make (2 * h.n) dummy in
      Array.blit h.a 0 a 0 h.n;
      h.a <- a
    end;
    let i = ref h.n in
    h.n <- h.n + 1;
    h.a.(!i) <- e;
    while
      !i > 0
      &&
      let p = (!i - 1) / 2 in
      if h.a.(p).at > h.a.(!i).at then begin
        let t = h.a.(p) in
        h.a.(p) <- h.a.(!i);
        h.a.(!i) <- t;
        i := p;
        true
      end
      else false
    do
      ()
    done

  let peek h = if h.n = 0 then None else Some h.a.(0)

  let pop h =
    let top = h.a.(0) in
    h.n <- h.n - 1;
    h.a.(0) <- h.a.(h.n);
    h.a.(h.n) <- dummy;
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.n && h.a.(l).at < h.a.(!smallest).at then smallest := l;
      if r < h.n && h.a.(r).at < h.a.(!smallest).at then smallest := r;
      if !smallest <> !i then begin
        let t = h.a.(!smallest) in
        h.a.(!smallest) <- h.a.(!i);
        h.a.(!i) <- t;
        i := !smallest
      end
      else continue := false
    done;
    top
end

type keepalive = { ka_interval : float; ka_count : int }

let default_keepalive =
  { ka_interval = Ka.default_interval_s; ka_count = Ka.default_count }

type t = {
  conn : Transport.t;
  program : int;
  version : int;
  on_event : procedure:int -> string -> unit;
  mutex : Mutex.t;
  pending : (int, slot) Hashtbl.t;
  deadlines : Heap.t; (* guarded by [mutex] *)
  keepalive : keepalive option;
  timer_cv : Condition.t;
      (* wakes the timer thread when its earliest event moves: a new
         front-of-heap deadline armed, or the client closed *)
  mutable next_serial : int;
  mutable free_slots : slot list; (* guarded by [mutex] *)
  mutable closed : bool;
  mutable last_rx : float; (* any packet counts as liveness *)
  mutable last_ping : float;
  mutable on_raw_reply : (string -> unit) option;
      (* test observer: every framed reply packet, exactly as received *)
}

(* A future: one in-flight call.  [await] blocks on the slot, caches the
   outcome (so awaiting twice is harmless) and recycles the slot. *)
type future = { fut_client : t; fut_slot : slot; mutable fut_result : (string, Verror.t) result option }

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
          Condition.broadcast client.timer_cv;
          let slots =
            Hashtbl.fold (fun _ slot acc -> slot :: acc) client.pending []
          in
          Hashtbl.reset client.pending;
          slots
        end)
  in
  List.iter (fun slot -> deliver slot (Error err)) slots

let receiver_loop client =
  let rec loop () =
    match Transport.recv client.conn with
    | exception Transport.Closed ->
      fail_all_pending client (Verror.make Verror.Rpc_failure "connection closed")
    | exception Transport.Corrupt msg ->
      (* A corrupt frame poisons the stream: close the transport so the
         peer reaps its side, then fail every caller. *)
      Transport.close client.conn;
      fail_all_pending client
        (Verror.make Verror.Rpc_failure ("corrupt frame: " ^ msg))
    | wire ->
      client.last_rx <- Unix.gettimeofday ();
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

(* One timer thread per client replaces the per-call watchdog threads: it
   owns the deadline heap (call timeouts) and the keepalive ticker.  It
   sleeps ({!Ovsync.Timedwait.wait}) until the earliest armed event —
   front-of-heap deadline, keepalive death, next ping — and with no
   keepalive and no armed deadlines it blocks indefinitely until
   [call_async] or the close path signals [timer_cv]: zero wakeups on an
   idle connection. *)
let timer_loop client =
  let rec loop () =
    let todo =
      with_lock client.mutex (fun () ->
          let rec decide () =
            if client.closed then `Exit
            else begin
              let now = Unix.gettimeofday () in
              let heap_at =
                match Heap.peek client.deadlines with
                | Some e -> e.Heap.at
                | None -> infinity
              in
              let ka_death, ka_ping =
                match client.keepalive with
                | None -> (infinity, infinity)
                | Some ka ->
                  ( client.last_rx +. (ka.ka_interval *. float_of_int ka.ka_count),
                    Float.max client.last_rx client.last_ping +. ka.ka_interval )
              in
              let next = Float.min heap_at (Float.min ka_death ka_ping) in
              if next > now then begin
                Ovsync.Timedwait.wait client.mutex client.timer_cv ~until:next;
                decide ()
              end
              else begin
                let rec collect acc =
                  match Heap.peek client.deadlines with
                  | Some e when e.Heap.at <= now ->
                    let e = Heap.pop client.deadlines in
                    (match Hashtbl.find_opt client.pending e.Heap.serial with
                     | Some slot ->
                       Hashtbl.remove client.pending e.Heap.serial;
                       collect ((e, slot) :: acc)
                     | None -> collect acc (* reply won the race: stale entry *))
                  | _ -> acc
                in
                let expired = collect [] in
                let ka_action =
                  match client.keepalive with
                  | None -> `None
                  | Some ka ->
                    let silent = now -. client.last_rx in
                    if silent > ka.ka_interval *. float_of_int ka.ka_count then
                      `Die (silent, ka)
                    else if
                      silent >= ka.ka_interval
                      && now -. client.last_ping >= ka.ka_interval
                    then begin
                      client.last_ping <- now;
                      `Ping
                    end
                    else `None
                in
                `Work (expired, ka_action)
              end
            end
          in
          decide ())
    in
    (* Deliveries, pings and closes happen outside [client.mutex]. *)
    match todo with
    | `Exit -> ()
    | `Work (expired, ka_action) ->
      List.iter
        (fun ((e : Heap.entry), slot) ->
          deliver slot
            (Error
               (Verror.make Verror.Rpc_failure
                  (Printf.sprintf "call %d timed out after %.1fs" e.Heap.procedure
                     e.Heap.timeout))))
        expired;
      (match ka_action with
       | `None -> ()
       | `Ping -> send_ping client
       | `Die (silent, ka) ->
         (* Blame keepalive before closing the transport: closing first
            wakes the receiver, whose generic connection-closed error
            would race this one to the pending callers. *)
         fail_all_pending client
           (Verror.make Verror.Rpc_failure
              (Printf.sprintf
                 "keepalive: peer silent for %.2fs (interval %.2fs x %d)" silent
                 ka.ka_interval ka.ka_count));
         Transport.close client.conn);
      loop ()
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
        mutex = Mutex.create ();
        pending = Hashtbl.create 8;
        deadlines = Heap.create ();
        keepalive;
        timer_cv = Condition.create ();
        next_serial = 1;
        free_slots = [];
        closed = false;
        last_rx = now;
        last_ping = now;
        on_raw_reply = None;
      }
    in
    ignore (Thread.create (fun () -> receiver_loop client) ());
    ignore (Thread.create (fun () -> timer_loop client) ());
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
          (match timeout_s with
           | None -> ()
           | Some t ->
             let at = Unix.gettimeofday () +. t in
             let was_earliest =
               match Heap.peek client.deadlines with
               | None -> true
               | Some e -> at < e.Heap.at
             in
             Heap.push client.deadlines
               { Heap.at; serial; procedure; timeout = t };
             (* a new front-of-heap deadline shortens the timer thread's
                sleep: wake it to re-derive its next event *)
             if was_earliest then Condition.signal client.timer_cv);
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
    (match Transport.send client.conn (Rpc_packet.encode header body) with
     | exception Transport.Closed ->
       (* Nothing was sent: if the slot is still pending nobody else can
          deliver to it, so reclaim it directly.  When a concurrent
          [fail_all_pending] already took it, that closer delivers and an
          eventual await would consume — but we never built a future, so
          leave the slot to the GC in that (already-fatal) case. *)
       let reclaimed =
         with_lock client.mutex (fun () ->
             let present = Hashtbl.mem client.pending serial in
             Hashtbl.remove client.pending serial;
             present)
       in
       if reclaimed then release_slot client slot;
       (* Dead even if the receiver has not noticed yet: close now, so a
          caller that retries when [is_closed] holds sees it. *)
       fail_all_pending client
         (Verror.make Verror.Rpc_failure "connection closed");
       Verror.error Verror.Rpc_failure "connection is closed"
     | () -> Ok { fut_client = client; fut_slot = slot; fut_result = None })

let await fut =
  match fut.fut_result with
  | Some outcome -> outcome
  | None ->
    let slot = fut.fut_slot in
    (* The receiver always delivers — a reply, or a failure when the
       connection dies — and the shared timer thread delivers the timeout
       error for calls registered in the deadline heap. *)
    let outcome =
      with_lock slot.slot_mutex (fun () ->
          let rec wait () =
            match slot.outcome with
            | Some outcome -> outcome
            | None ->
              Condition.wait slot.slot_cond slot.slot_mutex;
              wait ()
          in
          wait ())
    in
    fut.fut_result <- Some outcome;
    release_slot fut.fut_client slot;
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
