open Ovirt_core
module Rp = Protocol.Remote_protocol
module Transport = Ovnet.Transport
module Cache = Remote_cache

let ( let* ) = Result.bind

(* Local (client-side) URI parameters, stripped before forwarding. *)
let local_params =
  [
    "daemon"; "keepalive"; "keepalive_count"; "reconnect"; "reconnect_delay";
    "reconnect_max_delay"; "reconnect_seed"; "cache"; "cache_ttl"; "events";
    "timeout"; "breaker"; "resume"; "resume_from";
  ]

(* The URI handed to the daemon: transport stripped, local parameters
   removed. *)
let daemon_side_uri uri =
  {
    uri with
    Vuri.transport = None;
    params = List.filter (fun (k, _) -> not (List.mem k local_params)) uri.Vuri.params;
  }

(* ------------------------------------------------------------------ *)
(* Resilience policy and statistics                                    *)
(* ------------------------------------------------------------------ *)

type resilience = {
  res_budget : int;  (** reconnect attempts per outage before giving up *)
  res_base_delay : float;
  res_max_delay : float;
  res_jitter : float;  (** fraction of the delay, +/- *)
  res_seed : int;
}

type stats = {
  st_calls : int;
  st_reconnect_attempts : int;
  st_reconnects : int;
  st_retried_calls : int;
  st_giveups : int;
  st_recovery_latencies : float list;  (** seconds, most recent first *)
  st_overloaded : int;  (** calls the daemon shed with [Overloaded] *)
  st_breaker_opens : int;  (** circuit-breaker open transitions *)
  st_breaker_fastfails : int;  (** calls failed locally while open *)
  st_sub_errors : int;  (** shard errors inside annotated fleet listings *)
  st_events_replayed : int;
      (** events recovered through resume replays after reconnects *)
  st_event_gaps : int;  (** gap verdicts (each forced a cache flush + resync) *)
  st_listings : int;
  st_listings_unchanged : int;
  st_listing_bytes : int;
  st_rows_installed : int;
}

(* Counters live per connection: concurrent connections (a chaos run
   against several daemons, the recovery bench) must not smear each
   other's numbers.  Every connection registers its record — keyed by
   its event bus, the one connection-identifying value visible through
   [Driver.ops] — so [stats] can still aggregate process-wide and
   [conn_stats] can single one connection out.  Each count is one atomic
   slot, so counting takes no lock. *)
module Slot = struct
  let calls = 0
  let reconnect_attempts = 1
  let reconnects = 2
  let retried_calls = 3
  let giveups = 4
  let overloaded = 5
  let breaker_opens = 6
  let breaker_fastfails = 7
  let sub_errors = 8
  let events_replayed = 9
  let event_gaps = 10
  let listings = 11
  let listings_unchanged = 12
  let listing_bytes = 13
  let rows_installed = 14
  let count = 15
end

type counters = {
  cn_bus : Events.bus;
  cn_counts : int Atomic.t array;  (** indexed by {!Slot} *)
  mutable cn_latencies : float list;  (** guarded by [stats_mutex] *)
}

let count c slot n = ignore (Atomic.fetch_and_add c.cn_counts.(slot) n)

let stats_of (n : int array) latencies =
  {
    st_calls = n.(Slot.calls);
    st_reconnect_attempts = n.(Slot.reconnect_attempts);
    st_reconnects = n.(Slot.reconnects);
    st_retried_calls = n.(Slot.retried_calls);
    st_giveups = n.(Slot.giveups);
    st_recovery_latencies = latencies;
    st_overloaded = n.(Slot.overloaded);
    st_breaker_opens = n.(Slot.breaker_opens);
    st_breaker_fastfails = n.(Slot.breaker_fastfails);
    st_sub_errors = n.(Slot.sub_errors);
    st_events_replayed = n.(Slot.events_replayed);
    st_event_gaps = n.(Slot.event_gaps);
    st_listings = n.(Slot.listings);
    st_listings_unchanged = n.(Slot.listings_unchanged);
    st_listing_bytes = n.(Slot.listing_bytes);
    st_rows_installed = n.(Slot.rows_installed);
  }

(* The open connections' records, and the summed counts and recovery
   latencies of the closed ones: closing a connection folds its record
   into [retired] and drops it, event bus included.  [stats_mutex] guards
   the live list, the retired sums and every latency list. *)
type registry = {
  mutable live : counters list;
  retired : int array;
  mutable retired_latencies : float list;
}

let stats_mutex = Mutex.create ()

let registry =
  { live = []; retired = Array.make Slot.count 0; retired_latencies = [] }

let with_stats f =
  Mutex.lock stats_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock stats_mutex) f

(* Add [c]'s counts into [sums] and return its latencies in front of
   [latencies]. *)
let add_counts sums latencies c =
  Array.iteri (fun i a -> sums.(i) <- sums.(i) + Atomic.get a) c.cn_counts;
  c.cn_latencies @ latencies

let fresh_counters bus =
  let c =
    {
      cn_bus = bus;
      cn_counts = Array.init Slot.count (fun _ -> Atomic.make 0);
      cn_latencies = [];
    }
  in
  with_stats (fun () -> registry.live <- c :: registry.live);
  c

let reset_stats () =
  with_stats (fun () ->
      Array.fill registry.retired 0 Slot.count 0;
      registry.retired_latencies <- [];
      List.iter
        (fun c ->
          Array.iter (fun a -> Atomic.set a 0) c.cn_counts;
          c.cn_latencies <- [])
        registry.live)

(* Idempotent: a record no longer registered was retired already. *)
let retire_counters c =
  with_stats (fun () ->
      if List.memq c registry.live then begin
        registry.retired_latencies <-
          add_counts registry.retired registry.retired_latencies c;
        registry.live <- List.filter (fun c' -> c' != c) registry.live
      end)

let stats () =
  with_stats (fun () ->
      let sums = Array.copy registry.retired in
      stats_of sums
        (List.fold_left (add_counts sums) registry.retired_latencies registry.live))

let conn_stats (ops : Driver.ops) =
  with_stats (fun () ->
      List.find_opt (fun c -> c.cn_bus == ops.Driver.events) registry.live
      |> Option.map (fun c ->
             let sums = Array.make Slot.count 0 in
             stats_of sums (add_counts sums [] c)))

(* ------------------------------------------------------------------ *)
(* Connection state                                                    *)
(* ------------------------------------------------------------------ *)

(* Client-side position in the daemon's sequence-numbered event stream
   (protocol v1.6), and the subscriber runs not yet delivered.  Guarded
   by its own mutex, never [rc_mutex]: the thread that reads a pushed
   event (the connection's receiver, or a caller reading its own reply)
   must be able to advance the position while a reconnecting caller
   holds [rc_mutex] — and that thread may be the reconnecting caller
   itself, reading its handshake replies. *)
type seq_state = {
  sq_mutex : Mutex.t;
  mutable sq_last : int;  (** last seq processed; -1 = no position yet *)
  mutable sq_buffering : bool;
      (** a resume is in flight: park live pushes until the replay is
          applied, preserving seq order across the boundary *)
  sq_pending : Events.event Queue.t;
  sq_runs : (unit -> unit) Queue.t;
      (** subscriber runs not yet delivered, in stream order: one queue
          for every client the connection has had, so live pushes, a
          replay and a dead client's leftovers keep one order *)
  mutable sq_delivering : bool;  (** a thread is running [sq_runs] *)
}

let with_sq sq f =
  Mutex.lock sq.sq_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock sq.sq_mutex) f

(* Record [ev] on the bus and queue its subscriber run, if it has a
   subscriber; the caller holds [sq_mutex], which fixes their order. *)
let publish_locked events sq (ev : Events.event) =
  Option.iter
    (fun run -> Queue.push run sq.sq_runs)
    (Events.publish events ~seq:ev.seq ~domain_name:ev.domain_name ev.lifecycle)

(* Run the queued subscriber runs in order.  One thread at a time claims
   them ([sq_delivering]) and runs them until it finds none, letting go
   in the same critical section; a thread that finds them claimed leaves
   them to the holder.  So no run is stranded, and no thread waits for
   another's deliveries — nor for its own, when a subscriber's call
   reconnects and queues the replay behind the run it is in. *)
let rec deliver ?(holding = false) sq =
  match
    with_sq sq (fun () ->
        if sq.sq_delivering && not holding then None
        else begin
          let run = Queue.take_opt sq.sq_runs in
          sq.sq_delivering <- Option.is_some run;
          run
        end)
  with
  | Some run ->
    (try run () with _ -> ());
    deliver ~holding:true sq
  | None -> ()

(* Subscribers run on a receiver of the connection, which holds no read
   side while it runs them. *)
let hand_off sq rpc = Rpc_client.defer rpc (fun () -> deliver sq)

(* The reader's part of a pushed event: it runs on whichever thread read
   the frame, so it neither blocks nor calls.  Invalidate before
   publishing: a subscriber reacting to the event must never read the
   pre-event cache entry, and no later reply is handed back before the
   cache has forgotten it.  [true] if subscriber runs are queued. *)
let on_pushed ~cache ~events sq ~procedure body =
  let sequenced = procedure = Rp.proc_to_int Rp.Proc_event_lifecycle_seq in
  match
    if sequenced then Xdr.decode Rp.event_lifecycle_seq.Rp.sg_args body
    else if procedure = Rp.proc_to_int Rp.Proc_event_lifecycle then
      Xdr.decode Rp.event_lifecycle.Rp.sg_args body
    else raise (Xdr.Error "not a lifecycle event")
  with
  | exception Xdr.Error _ -> false
  | ev ->
    Option.iter (fun c -> Cache.invalidate c ev.Events.domain_name) cache;
    with_sq sq (fun () ->
        if not sequenced then publish_locked events sq ev
        else if sq.sq_buffering then
          (* A resume is applying its replay: park the push so it is
             published after the replay, in seq order. *)
          Queue.push ev sq.sq_pending
        else if ev.Events.seq > sq.sq_last then begin
          (* An older one is a duplicate of a replayed event. *)
          sq.sq_last <- ev.Events.seq;
          publish_locked events sq ev
        end;
        not (Queue.is_empty sq.sq_runs))

(* What the event half of a completed handshake yielded.  [`Plain] is the
   pre-v1.6 registration (or [resume=0]): the stream restarts with no
   replay.  [`Seq reply] is a v1.6 resume. *)
type event_mode =
  [ `No_events | `Plain | `Seq of Rp.resume_reply ]

(* Cache side of a freshly (re)established event stream.  Runs with
   [rc_mutex] held (or before the connection is shared, on the initial
   open) so no caller can read the cache between the connection swap and
   this reconciliation — but performs only cache-lock work.  Returns the
   events to publish once [rc_mutex] is released. *)
let absorb_event_mode ~cache ~counters sq (mode : event_mode) =
  match mode with
  | `No_events | `Plain ->
    (* No replay on this path: the stream has a silent gap and nothing
       cached survives — exactly the pre-v1.6 behavior. *)
    with_sq sq (fun () ->
        sq.sq_last <- -1;
        sq.sq_buffering <- false;
        Queue.clear sq.sq_pending);
    Option.iter Cache.clear cache;
    []
  | `Seq reply ->
    let to_emit =
      if reply.Rp.rr_gap then begin
        (* The ring wrapped past our position (or the daemon is a new
           incarnation): flush everything and tell subscribers to
           resync.  The position jumps to the head — the flush covers
           all state up to it, the live stream everything after. *)
        Option.iter Cache.clear cache;
        count counters Slot.event_gaps 1;
        [ Events.{ domain_name = ""; lifecycle = Ev_resync; seq = reply.Rp.rr_head } ]
      end
      else begin
        (* Replayed events run through the normal pipeline: invalidate
           here (cache locks only), publish after the release. *)
        Option.iter
          (fun c ->
            List.iter
              (fun (ev : Events.event) -> Cache.invalidate c ev.domain_name)
              reply.Rp.rr_events)
          cache;
        count counters Slot.events_replayed (List.length reply.Rp.rr_events);
        reply.Rp.rr_events
      end
    in
    with_sq sq (fun () -> sq.sq_last <- max sq.sq_last reply.Rp.rr_head);
    to_emit

(* Runs outside [rc_mutex]: publish the replay, then hand the stream
   back to live delivery.  The pushes parked while the resume was in
   flight follow the replay, less those it already covered, in one
   critical section: subscribers observe strict seq order with no
   duplicates.  (Parked pushes invalidated the cache when they came.)
   The runs go to [rpc]'s receiver. *)
let replay_and_release ~events sq rpc to_emit =
  let queued =
    with_sq sq (fun () ->
        List.iter (publish_locked events sq) to_emit;
        Queue.iter
          (fun (ev : Events.event) ->
            if ev.seq > sq.sq_last then begin
              sq.sq_last <- ev.seq;
              publish_locked events sq ev
            end)
          sq.sq_pending;
        Queue.clear sq.sq_pending;
        sq.sq_buffering <- false;
        not (Queue.is_empty sq.sq_runs))
  in
  if queued then hand_off sq rpc

(* The last listing reply a connection decoded: its procedure, the v1.8
   token it carried ([Rp.no_token] below v1.8), its body bytes and its
   listing. *)
type held = {
  h_proc : Rp.procedure;
  h_token : Rp.fleet_token;
  h_body : string;
  h_listing : Driver.fleet_listing;
}

type remote_conn = {
  rc_mutex : Mutex.t;
  mutable rpc : Rpc_client.t;
  mutable defunct : bool;  (** closed, or reconnect budget exhausted *)
  mutable rc_reconnecting : bool;  (** a thread is rebuilding [rpc] *)
  rc_rebuilt : Condition.t;  (** broadcast when that thread is done *)
  mutable rc_minor : int;  (** negotiated protocol minor, re-probed on reconnect *)
  events : Events.bus;
  rc_cache : Cache.t option;
  rc_address : string;
  rc_kind : Transport.kind;
  rc_forwarded : string;  (** URI replayed as Proc_open on reconnect *)
  rc_keepalive : Rpc_client.keepalive option;
  rc_register_events : bool;
  rc_use_resume : bool;  (** v1.6 resumable subscription wanted ([resume=1]) *)
  rc_seq : seq_state;
  rc_resilience : resilience option;
  rc_stats : counters;
  mutable rc_prng : int;
  rc_timeout_s : float option;
      (** default per-call budget; wrapped as a deadline envelope when
          the daemon speaks v1.4, and always bounds the client-side wait *)
  rc_breaker_k : int;  (** consecutive sheds that open the breaker; 0 = off *)
  mutable rc_consec_rejects : int;
  mutable rc_breaker_until : float;  (** 0. = breaker closed *)
  mutable rc_probing : bool;  (** a half-open probe is in flight *)
  rc_held : held option Atomic.t;
      (** kept across reconnects, since a v1.8 token's nonce tells
          incarnations apart *)
}

let with_conn conn f =
  Mutex.lock conn.rc_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock conn.rc_mutex) f

let serves conn proc =
  with_conn conn (fun () -> conn.rc_minor) >= Rp.proc_min_minor proc

let tick conn = count conn.rc_stats Slot.calls 1

let guarded decoder reply =
  match decoder reply with
  | v -> Ok v
  | exception Xdr.Error msg -> Verror.error Verror.Rpc_failure "bad reply: %s" msg

let decode codec reply = guarded (Xdr.decode codec) reply

(* The handshake's calls: on the bare connection, without the retry
   policy of {!call}. *)
let raw_call rpc (s : (_, _) Rp.signature) args =
  Rpc_client.call rpc ~procedure:(Rp.proc_to_int s.Rp.sg_proc)
    ~body:(Xdr.encode s.Rp.sg_args args) ()

let raw_rpc rpc (s : (_, _) Rp.signature) args =
  let* reply = raw_call rpc s args in
  decode s.Rp.sg_ret reply

(* Version probe.  [Proc_proto_minor] first appeared in v1.3, the oldest
   minor this client speaks: a daemon that rejects it as an unknown
   procedure is an older build, and is refused rather than guessed at. *)
let negotiate rpc =
  match raw_call rpc Rp.proto_minor () with
  | Ok reply ->
    let* m = decode Rp.proto_minor.Rp.sg_ret reply in
    Ok (min m Rp.minor)
  | Error _ when not (Rpc_client.is_closed rpc) ->
    let oldest = Rp.proc_min_minor Rp.Proc_proto_minor in
    Verror.error Verror.Operation_unsupported
      "daemon predates protocol v1.%d; this client needs v1.%d or newer" oldest
      oldest
  | Error e -> Error e

(* Transport + handshake: what both the initial open and every reconnect
   perform — establish, Proc_open the forwarded URI, probe the protocol
   minor the daemon speaks, then re-arm the event stream (the daemon
   side starts from a clean slate each time): against a v1.6 daemon a
   single Proc_event_resume atomically re-subscribes and replays what we
   missed; otherwise the old registration, which replays nothing.  The
   negotiation moved ahead of the registration (same frame count) so the
   right variant can be chosen. *)
let establish ~address ~kind ~keepalive ~cache ~events ~register_events
    ~use_resume ~sq ~forwarded =
  (* Set before the first call: the daemon pushes no event before the
     handshake registers for them. *)
  let reader = ref None in
  let* rpc =
    Rpc_client.connect ~address ~kind ~program:Rp.program ~version:Rp.version
      ?keepalive
      ~on_event:(fun ~procedure body ->
        if on_pushed ~cache ~events sq ~procedure body then
          Option.iter (hand_off sq) !reader)
      ()
  in
  reader := Some rpc;
  let handshake =
    let* () = raw_rpc rpc Rp.open_ forwarded in
    let* minor = negotiate rpc in
    let* mode =
      if not register_events then Ok `No_events
      else if use_resume && minor >= Rp.proc_min_minor Rp.Proc_event_resume then begin
        (* Park live pushes before the daemon can arm the subscription: a
           push may hit the wire ahead of the resume reply. *)
        let last =
          with_sq sq (fun () ->
              sq.sq_buffering <- true;
              sq.sq_last)
        in
        let* r = raw_rpc rpc Rp.event_resume last in
        Ok (`Seq r)
      end
      else
        let* () = raw_rpc rpc Rp.event_register () in
        Ok `Plain
    in
    Ok (minor, (mode : event_mode))
  in
  match handshake with
  | Ok (minor, mode) -> Ok (rpc, minor, mode)
  | Error e ->
    Rpc_client.close rpc;
    Error e

let next_unit_float conn =
  (* Same mixer family as Faults: deterministic jitter under a seed. *)
  let x = conn.rc_prng + 0x9e3779b9 in
  let x = (x lxor (x lsr 30)) * 0x4f6cdd1d in
  let x = (x lxor (x lsr 27)) * 0x2545f491 in
  let x = (x lxor (x lsr 31)) land max_int in
  conn.rc_prng <- x;
  float_of_int (x land 0xffffff) /. float_of_int 0x1000000

let backoff_delay conn r attempt =
  let d = min r.res_max_delay (r.res_base_delay *. (2. ** float_of_int (attempt - 1))) in
  let j = (2. *. next_unit_float conn) -. 1. in
  Float.max 0. (d *. (1. +. (r.res_jitter *. j)))

(* Single-flight reconnect: the first caller to find [rpc] dead claims
   the rebuild; callers that lost the race wait on [rc_rebuilt] until it
   is done, then observe the fresh client (or the defunct mark), or give
   up at their own [deadline].  [rc_mutex] is not held across the
   rebuild, so a caller that only reads the connection's fields — a
   fleet listing sending to every member — never waits for a peer being
   re-dialled.  Exponential backoff with jitter between attempts; the
   budget bounds the outage.

   The cache reconciliation ([absorb_event_mode]) runs inside the same
   critical section that swaps [conn.rpc]: no caller can read the cache
   between the swap and the flush/replay-invalidation.  The replay is
   published after the lock is released, and its subscriber runs go to
   the fresh client's receiver: the reconnecting thread runs none, so a
   reconnect started from inside a subscriber never waits for its own
   thread.  Only the winning reconnector carries a batch to publish
   ([Ok (Some _)]); losers observe [Ok None] and must not touch the
   stream, or they would release the buffering latch prematurely.  A
   back-off never sleeps past the calling [call]'s [deadline]; once that
   has passed the call fails, and the connection is not made defunct.
   A connection closed during the rebuild stays closed: the fresh client
   is closed too. *)
let ensure_connected conn ~dead ~bound ~deadline =
  let spent () =
    Verror.error Verror.Rpc_failure "call budget of %gs spent reconnecting" bound
  in
  let rec claim () =
    if conn.defunct then `Done (Verror.error Verror.Rpc_failure "remote connection is closed")
    else if conn.rpc != dead then `Done (Ok None) (* somebody already reconnected *)
    else if not conn.rc_reconnecting then begin
      conn.rc_reconnecting <- true;
      `Mine
    end
    else if Unix.gettimeofday () >= deadline then `Done (spent ())
    else begin
      Ovsync.Timedwait.wait conn.rc_mutex conn.rc_rebuilt ~until:deadline;
      claim ()
    end
  in
  let r = Option.get conn.rc_resilience in
  let rec rebuild i =
    if i > r.res_budget then `Exhausted
    else if Unix.gettimeofday () >= deadline then `Spent
    else begin
      count conn.rc_stats Slot.reconnect_attempts 1;
      let delay = with_conn conn (fun () -> backoff_delay conn r i) in
      Thread.delay (Float.min delay (deadline -. Unix.gettimeofday ()));
      match
        establish ~address:conn.rc_address ~kind:conn.rc_kind
          ~keepalive:conn.rc_keepalive ~cache:conn.rc_cache ~events:conn.events
          ~register_events:conn.rc_register_events ~use_resume:conn.rc_use_resume
          ~sq:conn.rc_seq ~forwarded:conn.rc_forwarded
      with
      | Ok up -> `Up up
      | Error _ -> rebuild (i + 1)
    end
  in
  let settle rebuilt =
    with_conn conn (fun () ->
        conn.rc_reconnecting <- false;
        Condition.broadcast conn.rc_rebuilt;
        match rebuilt with
        | `Spent -> spent ()
        | `Exhausted ->
          conn.defunct <- true;
          count conn.rc_stats Slot.giveups 1;
          Verror.error Verror.Rpc_failure "reconnect budget of %d attempts exhausted"
            r.res_budget
        | `Up (rpc, _, _) when conn.defunct ->
          Rpc_client.close rpc;
          Verror.error Verror.Rpc_failure "remote connection is closed"
        | `Up (rpc, minor, mode) ->
          conn.rpc <- rpc;
          conn.rc_minor <- minor;
          let to_emit =
            absorb_event_mode ~cache:conn.rc_cache ~counters:conn.rc_stats conn.rc_seq
              mode
          in
          count conn.rc_stats Slot.reconnects 1;
          Ok (Some (rpc, to_emit)))
  in
  let outcome =
    match with_conn conn claim with
    | `Done outcome -> outcome
    | `Mine ->
      let outage_start = Unix.gettimeofday () in
      let outcome =
        match rebuild 1 with
        | rebuilt -> settle rebuilt
        | exception exn ->
          ignore (settle `Spent);
          raise exn
      in
      if Result.is_ok outcome then
        with_stats (fun () ->
            let c = conn.rc_stats in
            c.cn_latencies <- (Unix.gettimeofday () -. outage_start) :: c.cn_latencies);
      outcome
  in
  match outcome with
  | Ok (Some (rpc, to_emit)) ->
    replay_and_release ~events:conn.events conn.rc_seq rpc to_emit;
    Ok ()
  | Ok None -> Ok ()
  | Error _ as err -> err

(* ------------------------------------------------------------------ *)
(* Overload handling: shed replies and the circuit breaker             *)
(* ------------------------------------------------------------------ *)

(* When the daemon's retry_after hint fails to parse. *)
let default_retry_after_ms = 50

(* Fail fast while the breaker is open; once the retry_after window has
   passed, exactly one call goes through as the half-open probe while
   everyone else keeps failing fast until it reports back. *)
let breaker_admit conn =
  if conn.rc_breaker_k = 0 then Ok ()
  else
    with_conn conn (fun () ->
        if conn.rc_breaker_until = 0. then Ok ()
        else
          let now = Unix.gettimeofday () in
          if now >= conn.rc_breaker_until && not conn.rc_probing then begin
            conn.rc_probing <- true;
            Ok ()
          end
          else begin
            count conn.rc_stats Slot.breaker_fastfails 1;
            let remaining_ms =
              int_of_float
                (Float.max 1. ((conn.rc_breaker_until -. now) *. 1000.))
            in
            Verror.overloaded ~retry_after_ms:remaining_ms
              "circuit breaker open (server overloaded)"
          end)

(* The server answered (successfully or with an application error):
   it is responsive, so the breaker closes and the reject streak ends. *)
let breaker_responsive conn =
  if conn.rc_breaker_k > 0 then
    with_conn conn (fun () ->
        conn.rc_consec_rejects <- 0;
        conn.rc_breaker_until <- 0.;
        conn.rc_probing <- false)

(* A transport failure proves nothing about overload either way: the
   probe slot is released, the breaker state kept. *)
let breaker_inconclusive conn =
  if conn.rc_breaker_k > 0 then
    with_conn conn (fun () -> conn.rc_probing <- false)

let breaker_shed conn err =
  count conn.rc_stats Slot.overloaded 1;
  if conn.rc_breaker_k > 0 then
    with_conn conn (fun () ->
        conn.rc_probing <- false;
        conn.rc_consec_rejects <- conn.rc_consec_rejects + 1;
        if conn.rc_consec_rejects >= conn.rc_breaker_k then begin
          let retry_ms =
            Option.value (Verror.retry_after_ms err)
              ~default:default_retry_after_ms
          in
          let was_closed = conn.rc_breaker_until = 0. in
          (* Jittered: clients whose breakers all opened on the same shed
             wave must not close and re-stampede in lockstep. *)
          let jitter = 1. +. (0.5 *. next_unit_float conn) in
          conn.rc_breaker_until <-
            Unix.gettimeofday () +. (float_of_int retry_ms /. 1000. *. jitter);
          if was_closed then count conn.rc_stats Slot.breaker_opens 1
        end)

(* Resilient call: a connection-death failure triggers reconnection (any
   call type pays for the rebuild), but only idempotent procedures are
   re-issued; a mutating call surfaces the failure, leaving the restored
   connection for its caller's own retry decision.

   With a [timeout=<s>] URI parameter each call carries its budget to the
   daemon as a v1.4 deadline envelope (old daemons: client-side wait
   bound only) so the server can drop it if it expires while queued.
   [Overloaded] shed replies are handled distinctly: never auto-retried,
   never treated as a transport failure, and K consecutive ones open the
   per-connection circuit breaker.

   A call is sent ([attempt], {!Rpc_client.send}) and then finished
   ([finish], which awaits it): a lone call at once, a listing a fleet
   fans out later, by the same thread, up to the caller's [until].  Such
   a reader never waits for a reconnect: a call whose connection died
   raises {!Driver.Reopen} instead, and the caller lists that member
   where it may wait. *)
type plan = {
  p_proc : Rp.procedure;
  p_body : string;
  p_timeout_s : float option;  (** the client-side wait *)
  p_bound : float;
  p_deadline : float;  (** the call's own, for reconnecting *)
}

type step =
  | Refused of Verror.t  (** the open breaker failed it; nothing was sent *)
  | Sent of Rpc_client.t * (Rpc_client.future, Verror.t) result

type sent = { s_conn : remote_conn; s_plan : plan; s_attempt : int; s_step : step }

let plan conn proc body =
  (* Client-side wait generously outlasts the server budget: the
     daemon's authoritative "expired in queue" reply (sent when a worker
     finally pops the stale job) should win over the local timeout
     whenever the connection is alive; the local bound only covers a
     server that never answers at all. *)
  let timeout_s = Option.map (fun t -> t +. 1.0) conn.rc_timeout_s in
  let bound = Option.value timeout_s ~default:Float.infinity in
  {
    p_proc = proc;
    p_body = body;
    p_timeout_s = timeout_s;
    p_bound = bound;
    p_deadline = Unix.gettimeofday () +. bound;
  }

let attempt conn p n =
  let step =
    match breaker_admit conn with
    | Error e -> Refused e
    | Ok () ->
      let rpc = with_conn conn (fun () -> conn.rpc) in
      tick conn;
      let wproc, body =
        match conn.rc_timeout_s with
        | Some t when serves conn Rp.Proc_call_deadline ->
          ( Rp.Proc_call_deadline,
            Xdr.encode Rp.call_deadline.Rp.sg_args
              (max 1 (int_of_float (t *. 1000.)), Rp.proc_to_int p.p_proc, p.p_body) )
        | _ -> (p.p_proc, p.p_body)
      in
      let procedure = Rp.proc_to_int wproc and timeout_s = p.p_timeout_s in
      Sent (rpc, Rpc_client.send rpc ~procedure ~body ?timeout_s ())
  in
  { s_conn = conn; s_plan = p; s_attempt = n; s_step = step }

(* The outcome of a sent call, read until [until] at the latest: [None]
   when it passed before the reply.  A dead resilient connection is
   rebuilt and an idempotent call retried only for a reader with no
   deadline; any other raises {!Driver.Reopen}. *)
let rec finish s ~until =
  let conn = s.s_conn and p = s.s_plan in
  let settle rpc = function
    | None ->
      breaker_inconclusive conn;
      None
    | Some (Ok _ as ok) ->
      breaker_responsive conn;
      Some ok
    | Some (Error e as err) when e.Verror.code = Verror.Overloaded ->
      breaker_shed conn e;
      Some err
    | Some (Error e)
      when e.Verror.code = Verror.Rpc_failure
           && conn.rc_resilience <> None
           && Rpc_client.is_closed rpc -> (
      breaker_inconclusive conn;
      if until < Float.infinity then raise Driver.Reopen;
      match ensure_connected conn ~dead:rpc ~bound:p.p_bound ~deadline:p.p_deadline with
      | Error _ as err -> Some err
      | Ok () ->
        let idempotent = Rp.is_idempotent p.p_proc in
        let budget = (Option.get conn.rc_resilience).res_budget in
        if idempotent && s.s_attempt <= budget then begin
          count conn.rc_stats Slot.retried_calls 1;
          finish (attempt conn p (s.s_attempt + 1)) ~until
        end
        else if idempotent then Some (Error e)
        else
          Some
            (Verror.error Verror.Rpc_failure
               "connection dropped during non-idempotent call %d (reconnected, \
                not retried): %s"
               (Rp.proc_to_int p.p_proc) e.Verror.message))
    | Some (Error e as err) ->
      if e.Verror.code = Verror.Rpc_failure then breaker_inconclusive conn
      else breaker_responsive conn;
      Some err
  in
  match s.s_step with
  | Refused e -> Some (Error e)
  | Sent (rpc, Error e) -> settle rpc (Some (Error e))
  | Sent (rpc, Ok fut) -> settle rpc (Rpc_client.await_until fut ~until)

let call conn proc body =
  Option.get (finish (attempt conn (plan conn proc body) 1) ~until:Float.infinity)

let send conn proc body = attempt conn (plan conn proc body) 1

(* One procedure through its signature: the arguments encoded and the
   reply decoded by the codecs the daemon serves it with. *)
let rpc conn (s : (_, _) Rp.signature) args =
  let* reply = call conn s.Rp.sg_proc (Xdr.encode s.Rp.sg_args args) in
  decode s.Rp.sg_ret reply

(* ------------------------------------------------------------------ *)
(* Cached point reads                                                  *)
(* ------------------------------------------------------------------ *)

let now () = Unix.gettimeofday ()

(* An entry is only trustworthy while the event stream (or TTL clock)
   that maintains it is live: once the connection is known dead, bypass
   the cache so the read forces a reconnect — which clears it — instead
   of serving values no event can invalidate any more.  Likewise while a
   resume replay is still being applied ([sq_buffering]): invalidations
   for parked events have not fired yet. *)
let live_cache conn =
  match conn.rc_cache with
  | Some cs
    when (not (Rpc_client.is_closed (with_conn conn (fun () -> conn.rpc))))
         && not (with_sq conn.rc_seq (fun () -> conn.rc_seq.sq_buffering)) ->
    Some cs
  | Some _ | None -> None

(* The fill protocol in one place: consult the cache, otherwise take a
   token {e before} the wire call and install only if no event raced the
   reply (see {!Remote_cache}).  The reply goes into [field] of [name]'s
   row, and nowhere else. *)
let cached_read conn field s name =
  match live_cache conn with
  | None -> rpc conn s name
  | Some c -> (
    match Cache.find c field name ~now:(now ()) with
    | Some v -> Ok v
    | None ->
      let fill = Cache.begin_fill c in
      let* v = rpc conn s name in
      ignore (Cache.install c fill field name v ~now:(now ()));
      Ok v)

let dom_get_info conn = cached_read conn Cache.Info Rp.dom_get_info
let dom_get_autostart conn = cached_read conn Cache.Autostart Rp.dom_get_autostart
let dom_get_xml conn = cached_read conn Cache.Xml Rp.dom_get_xml
let lookup_by_name conn = cached_read conn Cache.Ref Rp.lookup_by_name

let lookup_by_uuid conn uuid =
  let wire () = rpc conn Rp.lookup_by_uuid (Vmm.Uuid.to_string uuid) in
  match live_cache conn with
  | None -> wire ()
  | Some c -> (
    match Cache.find_by_uuid c uuid ~now:(now ()) with
    | Some r -> Ok r
    | None ->
      let fill = Cache.begin_fill c in
      let* r = wire () in
      ignore (Cache.install c fill Cache.Ref r.Driver.dom_name r ~now:(now ()));
      Ok r)

(* Writes invalidate locally, or our own mutation would be masked by our
   own cache: a balloon has no lifecycle event, and an autostart change's
   event may arrive after our next read. *)
let invalidate_domain conn name =
  Option.iter (fun c -> Cache.invalidate c name) conn.rc_cache

(* ------------------------------------------------------------------ *)
(* Bulk domain listing                                                 *)
(* ------------------------------------------------------------------ *)

(* The listing decoded from [body], if [held] is a reply to [proc] with
   these very bytes. *)
let reused held proc body =
  match held with
  | Some h when h.h_proc = proc && String.equal h.h_body body -> Some h.h_listing
  | Some _ | None -> None

(* Decoding is pure, and a polled listing mostly repeats itself byte for
   byte (the daemon's reply cache).  A repeated reply to the procedure
   held reuses its value; any other that decodes replaces it. *)
let decode_reusing memo proc decoder body =
  match reused (Atomic.get memo) proc body with
  | Some listing -> Ok listing
  | None ->
    let* h_listing = guarded decoder body in
    Atomic.set memo
      (Some { h_proc = proc; h_token = Rp.no_token; h_body = body; h_listing });
    Ok h_listing

let count_listing conn body =
  count conn.rc_stats Slot.listings 1;
  count conn.rc_stats Slot.listing_bytes (String.length body)

(* A sent call's reply, and what its body turns into. *)
let reply_to sent k : _ Driver.reply =
 fun ~until ->
  Option.map (fun outcome -> Result.bind outcome k) (finish sent ~until)

(* v1.8: send the token of the listing held, read once before the call.
   An "unchanged" reply returns that very value, so the fleet's merge
   memo and the cache's repeat guard still see the same rows.  A daemon
   without a reply cache (or a fleet controller) answers every call in
   full under the zero token; its repeated bytes reuse the value decoded
   from them, as below v1.8. *)
let send_since conn =
  let since = Rp.fleet_list_since in
  let proc = since.Rp.sg_proc in
  let held = Atomic.get conn.rc_held in
  let token =
    match held with Some h when h.h_proc = proc -> h.h_token | Some _ | None -> Rp.no_token
  in
  reply_to (send conn proc (Xdr.encode since.Rp.sg_args token)) (fun body ->
      count_listing conn body;
      match reused held proc body with
      | Some listing -> Ok listing
      | None -> (
        let* reply = decode since.Rp.sg_ret body in
        match (reply, held) with
        | Rp.Since_unchanged t, Some h when h.h_proc = proc && h.h_token = t ->
          count conn.rc_stats Slot.listings_unchanged 1;
          Ok h.h_listing
        | Rp.Since_unchanged _, _ ->
          Verror.error Verror.Rpc_failure
            "bad reply: \"unchanged\" for a listing this connection does not hold"
        | Rp.Since_full (h_token, h_listing), _ ->
          Atomic.set conn.rc_held (Some { h_proc = proc; h_token; h_body = body; h_listing });
          Ok h_listing))

(* v1.3–v1.7: one listing procedure, and a repeated reply's bytes reuse
   the value decoded from them. *)
let send_bytes conn (s : (unit, _) Rp.signature) to_listing =
  reply_to (send conn s.Rp.sg_proc (Xdr.encode s.Rp.sg_args ())) (fun body ->
      count_listing conn body;
      decode_reusing conn.rc_held s.Rp.sg_proc
        (fun body -> to_listing (Xdr.decode s.Rp.sg_ret body))
        body)

(* One bulk listing round trip, on the one wire path the negotiated minor
   picks.  For every reply, reused or not, shard errors go into the
   sub-error counter, so the CLI's partial-failure exit code covers
   fleet-wide listings; rows go into the cache unless it holds that very
   listing already.  The blocking listing waits for the reply it sent. *)
let send_listing conn : Driver.fleet_listing Driver.reply =
  let fill = Option.map (fun c -> (c, Cache.begin_fill c)) conn.rc_cache in
  let reply =
    if serves conn Rp.Proc_fleet_list_since then send_since conn
    else if serves conn Rp.Proc_fleet_list_all then
      send_bytes conn Rp.fleet_list_all Fun.id
    else
      send_bytes conn Rp.dom_list_all (fun fl_records ->
          Driver.{ fl_records; fl_shard_errors = []; fl_members = 1 })
  in
  fun ~until ->
    Option.map
      (fun outcome ->
        let* listing = outcome in
        let errs = List.length listing.Driver.fl_shard_errors in
        count conn.rc_stats Slot.sub_errors errs;
        Option.iter
          (fun (c, f) ->
            count conn.rc_stats Slot.rows_installed
              (Cache.install_listing c f listing.Driver.fl_records ~now:(now ())))
          fill;
        Ok listing)
      (reply ~until)

let fleet_list_all conn () = Driver.wait (send_listing conn)

let dom_list_all conn () : Driver.domain_record list Driver.reply =
  let reply = send_listing conn in
  fun ~until ->
    Option.map
      (Result.map (fun listing -> listing.Driver.fl_records))
      (reply ~until)

(* ------------------------------------------------------------------ *)
(* Connection establishment                                            *)
(* ------------------------------------------------------------------ *)

let float_param uri name =
  Option.bind (Vuri.param uri name) float_of_string_opt

let int_param uri name = Option.bind (Vuri.param uri name) int_of_string_opt

let keepalive_of_uri uri =
  match float_param uri "keepalive", int_param uri "keepalive_count" with
  | _, Some count when count < 1 ->
    Verror.error Verror.Invalid_arg "keepalive_count must be at least 1, got %d"
      count
  | Some interval, count when interval > 0. ->
    Ok
      (Some
         {
           Rpc_client.ka_interval = interval;
           ka_count =
             Option.value count ~default:Protocol.Keepalive_protocol.default_count;
         })
  | _ -> Ok None

let resilience_of_uri uri =
  match int_param uri "reconnect" with
  | Some budget when budget > 0 ->
    let base = Option.value (float_param uri "reconnect_delay") ~default:0.05 in
    Some
      {
        res_budget = budget;
        res_base_delay = base;
        res_max_delay =
          Option.value (float_param uri "reconnect_max_delay") ~default:2.0;
        res_jitter = 0.25;
        res_seed = Option.value (int_param uri "reconnect_seed") ~default:1;
      }
  | Some _ | None -> None

(* Default TTL when the cache runs without an event stream: short enough
   that a remote writer's change is seen promptly, long enough to absorb
   a monitoring loop's burst of reads. *)
let default_eventless_ttl = 1.0

let cache_of_uri uri ~register_events =
  if Option.value (int_param uri "cache") ~default:1 = 0 then None
  else
    let ttl =
      match float_param uri "cache_ttl" with
      | Some t -> Some t
      | None -> if register_events then None else Some default_eventless_ttl
    in
    Some (Cache.create ?ttl ())

let open_conn uri =
  let* transport =
    match uri.Vuri.transport with
    | Some t -> Ok t
    | None -> Verror.error Verror.Internal_error "remote driver probed without transport"
  in
  let* kind =
    Result.map_error (Verror.make Verror.Invalid_arg) (Transport.kind_of_name transport)
  in
  let daemon = Option.value (Vuri.param uri "daemon") ~default:Rp.default_daemon in
  let register_events = Option.value (int_param uri "events") ~default:1 <> 0 in
  let use_resume = Option.value (int_param uri "resume") ~default:1 <> 0 in
  let cache = cache_of_uri uri ~register_events in
  let events = Events.create_bus () in
  let sq =
    {
      sq_mutex = Mutex.create ();
      (* [resume_from] lets a fresh process resume a predecessor's
         position (ovirsh event --since); the default -1 asks for a
         subscription starting at the head, no replay. *)
      sq_last = Option.value (int_param uri "resume_from") ~default:(-1);
      sq_buffering = false;
      sq_pending = Queue.create ();
      sq_runs = Queue.create ();
      sq_delivering = false;
    }
  in
  let address = Rp.mgmt_address daemon in
  let* keepalive = keepalive_of_uri uri in
  let resilience = resilience_of_uri uri in
  let forwarded = Vuri.to_string (daemon_side_uri uri) in
  let* rpc, minor, mode =
    establish ~address ~kind ~keepalive ~cache ~events ~register_events ~use_resume
      ~sq ~forwarded
  in
  let conn =
    {
      rc_mutex = Mutex.create ();
      rpc;
      defunct = false;
      rc_reconnecting = false;
      rc_rebuilt = Condition.create ();
      rc_minor = minor;
      events;
      rc_cache = cache;
      rc_address = address;
      rc_kind = kind;
      rc_forwarded = forwarded;
      rc_keepalive = keepalive;
      rc_register_events = register_events;
      rc_use_resume = use_resume;
      rc_seq = sq;
      rc_resilience = resilience;
      rc_stats = fresh_counters events;
      rc_prng =
        (match resilience with Some r -> r.res_seed | None -> 1);
      rc_timeout_s =
        (match float_param uri "timeout" with
         | Some t when t > 0. -> Some t
         | Some _ | None -> None);
      rc_breaker_k = Option.value (int_param uri "breaker") ~default:3;
      rc_consec_rejects = 0;
      rc_breaker_until = 0.;
      rc_probing = false;
      rc_held = Atomic.make None;
    }
  in
  (* The connection is not shared yet, so no lock is needed for the
     cache side; an initial resume_from may still carry a replay (or a
     gap verdict) that must reach subscribers-to-be via the bus history. *)
  let to_emit = absorb_event_mode ~cache ~counters:conn.rc_stats sq mode in
  replay_and_release ~events sq rpc to_emit;
  Ok conn

let close_conn conn =
  let rpc =
    with_conn conn (fun () ->
        conn.defunct <- true;
        conn.rpc)
  in
  (* Best effort: the daemon also cleans up on disconnect. *)
  ignore (raw_call rpc Rp.close ());
  Rpc_client.close rpc;
  retire_counters conn.rc_stats

(* ------------------------------------------------------------------ *)
(* Driver operations over the wire                                     *)
(* ------------------------------------------------------------------ *)

let get_capabilities conn () =
  match rpc conn Rp.get_capabilities () with
  | Ok xml ->
    (match Capabilities.of_xml xml with
     | Ok caps -> caps
     | Error msg ->
       Verror.raise_err Verror.Rpc_failure "bad capabilities from daemon: %s" msg)
  | Error err -> raise (Verror.Virt_error err)

let get_hostname conn () =
  match rpc conn Rp.get_hostname () with
  | Ok hostname -> hostname
  | Error err -> raise (Verror.Virt_error err)

let remote_net_ops conn =
  Driver.
    {
      net_define =
        (fun ~name ~bridge ~ip_range -> rpc conn Rp.net_define (name, bridge, ip_range));
      net_undefine = rpc conn Rp.net_undefine;
      net_start = rpc conn Rp.net_start;
      net_stop = rpc conn Rp.net_stop;
      net_set_autostart = (fun name v -> rpc conn Rp.net_set_autostart (name, v));
      net_lookup = rpc conn Rp.net_lookup;
      net_list = rpc conn Rp.net_list;
    }

let remote_storage_ops conn =
  Driver.
    {
      pool_define =
        (fun ~name ~target_path ~capacity_b ->
          rpc conn Rp.pool_define (name, target_path, capacity_b));
      pool_undefine = rpc conn Rp.pool_undefine;
      pool_start = rpc conn Rp.pool_start;
      pool_stop = rpc conn Rp.pool_stop;
      pool_lookup = rpc conn Rp.pool_lookup;
      pool_list = rpc conn Rp.pool_list;
      vol_create =
        (fun ~pool ~name ~capacity_b ~format ->
          rpc conn Rp.vol_create (pool, name, capacity_b, format));
      vol_delete = (fun ~pool ~name -> rpc conn Rp.vol_delete (pool, name));
      vol_list = (fun ~pool -> rpc conn Rp.vol_list pool);
      vol_by_path = rpc conn Rp.vol_lookup;
    }

(* The federation view over the wire, offered when the daemon serves the
   fleet procedures.  Owner lookup stays controller-side: placement is
   the controller's secret, and nothing client-side needs it. *)
let remote_fleet_view conn =
  Driver.
    {
      fleet_list_all = (fun () -> fleet_list_all conn ());
      fleet_status = rpc conn Rp.fleet_status;
      fleet_migrate = (fun ~domain ~dest -> rpc conn Rp.fleet_migrate (domain, dest));
      fleet_owner =
        (fun _ -> Driver.unsupported ~drv:"remote" ~op:"fleet owner lookup");
    }

let make_ops uri conn =
  (* Lifecycle mutations are also invalidated by the pushed event, but
     writes without one (autostart, balloon) — and event-less
     connections — need the local invalidation. *)
  let invalidating s name args =
    let r = rpc conn s args in
    if Result.is_ok r then invalidate_domain conn name;
    r
  in
  let name_call s name = invalidating s name name in
  Driver.make_ops ~drv_name:"remote"
    ~get_capabilities:(get_capabilities conn)
    ~get_hostname:(get_hostname conn)
    ~close:(fun () -> close_conn conn)
    ~list_domains:(rpc conn Rp.list_domains)
    ~list_defined:(rpc conn Rp.list_defined)
    ~lookup_by_name:(lookup_by_name conn)
    ~lookup_by_uuid:(lookup_by_uuid conn)
    ~define_xml:(fun xml ->
      let* r = rpc conn Rp.define_xml xml in
      invalidate_domain conn r.Driver.dom_name;
      Ok r)
    ~undefine:(name_call Rp.undefine)
    ~dom_create:(name_call Rp.dom_create)
    ~dom_suspend:(name_call Rp.dom_suspend)
    ~dom_resume:(name_call Rp.dom_resume)
    ~dom_shutdown:(name_call Rp.dom_shutdown)
    ~dom_destroy:(name_call Rp.dom_destroy)
    ~dom_get_info:(dom_get_info conn)
    ~dom_get_xml:(dom_get_xml conn)
    ~dom_set_memory:(fun name kib -> invalidating Rp.dom_set_memory name (name, kib))
    ~dom_save:(name_call Rp.dom_save)
    ~dom_restore:(name_call Rp.dom_restore)
    ~dom_has_managed_save:(rpc conn Rp.dom_has_managed_save)
    ~dom_set_autostart:(fun name v -> invalidating Rp.dom_set_autostart name (name, v))
    ~dom_get_autostart:(dom_get_autostart conn)
    ~dom_set_policy:(fun name p -> rpc conn Rp.dom_set_policy (name, p))
    ~dom_get_policy:(rpc conn Rp.dom_get_policy)
    ~net:(remote_net_ops conn) ~storage:(remote_storage_ops conn)
    ?fleet:
      (if serves conn Rp.Proc_fleet_list_all then Some (remote_fleet_view conn)
       else None)
    ~events:conn.events ()
  |> fun ops ->
  {
    ops with
    Driver.drv_name = "remote(" ^ uri.Vuri.scheme ^ ")";
    dom_list_all = Some (dom_list_all conn);
  }

let probe uri =
  uri.Vuri.transport <> None
  && uri.Vuri.scheme <> "esx" (* ESX manages its own remote protocol *)

let register () =
  Driver.register
    {
      Driver.reg_name = "remote";
      probe;
      open_conn =
        (fun uri ->
          let* conn = open_conn uri in
          Ok (make_ops uri conn));
    }
