open Ovirt_core
module Rp = Protocol.Remote_protocol
module Transport = Ovnet.Transport
module Cache = Remote_cache

let ( let* ) = Result.bind

let default_daemon = "ovirtd"

let kind_of_transport = function
  | "unix" | "ssh" | "libssh2" -> Ok Transport.Unix_sock
  | "tcp" -> Ok Transport.Tcp
  | "tls" -> Ok Transport.Tls
  | t -> Verror.error Verror.Invalid_arg "unsupported transport %S" t

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
   [conn_stats] can single one connection out. *)
type counters = {
  cn_bus : Events.bus;
  mutable cn_calls : int;
  mutable cn_attempts : int;
  mutable cn_reconnects : int;
  mutable cn_retried : int;
  mutable cn_giveups : int;
  mutable cn_latencies : float list;
  mutable cn_overloaded : int;
  mutable cn_breaker_opens : int;
  mutable cn_breaker_fastfails : int;
  mutable cn_sub_errors : int;
  mutable cn_ev_replayed : int;
  mutable cn_ev_gaps : int;
  mutable cn_listings : int;  (** listing replies received *)
  mutable cn_listings_unchanged : int;  (** of which v1.8 "unchanged" *)
  mutable cn_listing_bytes : int;  (** their reply bodies' bytes *)
  mutable cn_rows_installed : int;  (** cache rows their installs wrote *)
}

let no_stats =
  {
    st_calls = 0;
    st_reconnect_attempts = 0;
    st_reconnects = 0;
    st_retried_calls = 0;
    st_giveups = 0;
    st_recovery_latencies = [];
    st_overloaded = 0;
    st_breaker_opens = 0;
    st_breaker_fastfails = 0;
    st_sub_errors = 0;
    st_events_replayed = 0;
    st_event_gaps = 0;
    st_listings = 0;
    st_listings_unchanged = 0;
    st_listing_bytes = 0;
    st_rows_installed = 0;
  }

let add_counters acc c =
  {
    st_calls = acc.st_calls + c.cn_calls;
    st_reconnect_attempts = acc.st_reconnect_attempts + c.cn_attempts;
    st_reconnects = acc.st_reconnects + c.cn_reconnects;
    st_retried_calls = acc.st_retried_calls + c.cn_retried;
    st_giveups = acc.st_giveups + c.cn_giveups;
    st_recovery_latencies = c.cn_latencies @ acc.st_recovery_latencies;
    st_overloaded = acc.st_overloaded + c.cn_overloaded;
    st_breaker_opens = acc.st_breaker_opens + c.cn_breaker_opens;
    st_breaker_fastfails = acc.st_breaker_fastfails + c.cn_breaker_fastfails;
    st_sub_errors = acc.st_sub_errors + c.cn_sub_errors;
    st_events_replayed = acc.st_events_replayed + c.cn_ev_replayed;
    st_event_gaps = acc.st_event_gaps + c.cn_ev_gaps;
    st_listings = acc.st_listings + c.cn_listings;
    st_listings_unchanged = acc.st_listings_unchanged + c.cn_listings_unchanged;
    st_listing_bytes = acc.st_listing_bytes + c.cn_listing_bytes;
    st_rows_installed = acc.st_rows_installed + c.cn_rows_installed;
  }

(* The open connections' records, and the summed counts of the closed
   ones: closing a connection folds its record into [retired] and drops
   it, event bus included.  Guarded by [stats_mutex]. *)
type registry = { mutable live : counters list; mutable retired : stats }

let stats_mutex = Mutex.create ()
let registry = { live = []; retired = no_stats }

let with_stats f =
  Mutex.lock stats_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock stats_mutex) f

let fresh_counters bus =
  with_stats (fun () ->
      let c =
        {
          cn_bus = bus;
          cn_calls = 0;
          cn_attempts = 0;
          cn_reconnects = 0;
          cn_retried = 0;
          cn_giveups = 0;
          cn_latencies = [];
          cn_overloaded = 0;
          cn_breaker_opens = 0;
          cn_breaker_fastfails = 0;
          cn_sub_errors = 0;
          cn_ev_replayed = 0;
          cn_ev_gaps = 0;
          cn_listings = 0;
          cn_listings_unchanged = 0;
          cn_listing_bytes = 0;
          cn_rows_installed = 0;
        }
      in
      registry.live <- c :: registry.live;
      c)

let reset_stats () =
  with_stats (fun () ->
      registry.retired <- no_stats;
      List.iter
        (fun c ->
          c.cn_calls <- 0;
          c.cn_attempts <- 0;
          c.cn_reconnects <- 0;
          c.cn_retried <- 0;
          c.cn_giveups <- 0;
          c.cn_latencies <- [];
          c.cn_overloaded <- 0;
          c.cn_breaker_opens <- 0;
          c.cn_breaker_fastfails <- 0;
          c.cn_sub_errors <- 0;
          c.cn_ev_replayed <- 0;
          c.cn_ev_gaps <- 0;
          c.cn_listings <- 0;
          c.cn_listings_unchanged <- 0;
          c.cn_listing_bytes <- 0;
          c.cn_rows_installed <- 0)
        registry.live)

(* Idempotent: a record no longer registered was retired already. *)
let retire_counters c =
  with_stats (fun () ->
      if List.memq c registry.live then begin
        registry.retired <- add_counters registry.retired c;
        registry.live <- List.filter (fun c' -> c' != c) registry.live
      end)

let stats () =
  with_stats (fun () -> List.fold_left add_counters registry.retired registry.live)

let conn_stats (ops : Driver.ops) =
  with_stats (fun () ->
      List.find_opt (fun c -> c.cn_bus == ops.Driver.events) registry.live
      |> Option.map (add_counters no_stats))

(* ------------------------------------------------------------------ *)
(* Connection state                                                    *)
(* ------------------------------------------------------------------ *)

(* One generation-counted cache per metadata kind: the three are filled
   and consulted independently (a listing knows all three, a point read
   only one) while sharing the same invalidation events. *)
type caches = {
  c_ref : Driver.domain_ref Cache.t;
  c_info : Driver.domain_info Cache.t;
  c_autostart : bool Cache.t;
  c_xml : string Cache.t;
}

(* A decoded listing and its serial number: a listing handed back again
   (v1.8 "unchanged", or repeated bytes) keeps its number, which is how
   {!Cache.install_listing} recognises the rows it installed last. *)
type numbered = Driver.fleet_listing * int

let listing_serials = Atomic.make 0
let number listing = (listing, Atomic.fetch_and_add listing_serials 1)

let invalidate_caches cs name =
  Cache.invalidate cs.c_ref name;
  Cache.invalidate cs.c_info name;
  Cache.invalidate cs.c_autostart name;
  Cache.invalidate cs.c_xml name

let clear_caches cs =
  Cache.clear cs.c_ref;
  Cache.clear cs.c_info;
  Cache.clear cs.c_autostart;
  Cache.clear cs.c_xml

(* Client-side position in the daemon's sequence-numbered event stream
   (protocol v1.6).  Guarded by its own mutex, never [rc_mutex]: the
   receiver thread delivering pushed events must be able to advance the
   position while a reconnecting caller holds [rc_mutex] awaiting a
   reply that same receiver thread delivers. *)
type seq_state = {
  sq_mutex : Mutex.t;
  mutable sq_last : int;  (** last seq processed; -1 = no position yet *)
  mutable sq_buffering : bool;
      (** a resume is in flight: park live pushes until the replay is
          applied, preserving seq order across the boundary *)
  sq_pending : Events.event Queue.t;
}

let with_sq sq f =
  Mutex.lock sq.sq_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock sq.sq_mutex) f

(* What the event half of a completed handshake yielded.  [`Plain] is the
   pre-v1.6 registration (or [resume=0]): the stream restarts with no
   replay.  [`Seq reply] is a v1.6 resume. *)
type event_mode =
  [ `No_events | `Plain | `Seq of Rp.resume_reply ]

(* Cache side of a freshly (re)established event stream.  Runs with
   [rc_mutex] held (or before the connection is shared, on the initial
   open) so no caller can read the caches between the connection swap and
   this reconciliation — but performs only cache-lock work, no user
   callbacks.  Returns the events to re-emit once [rc_mutex] is
   released: subscriber callbacks may re-enter the driver. *)
let absorb_event_mode ~caches ~counters sq (mode : event_mode) =
  match mode with
  | `No_events | `Plain ->
    (* No replay on this path: the stream has a silent gap and nothing
       cached survives — exactly the pre-v1.6 behavior. *)
    with_sq sq (fun () ->
        sq.sq_last <- -1;
        sq.sq_buffering <- false;
        Queue.clear sq.sq_pending);
    Option.iter clear_caches caches;
    []
  | `Seq reply ->
    let to_emit =
      if reply.Rp.rr_gap then begin
        (* The ring wrapped past our position (or the daemon is a new
           incarnation): flush everything and tell subscribers to
           resync.  The position jumps to the head — the flush covers
           all state up to it, the live stream everything after. *)
        Option.iter clear_caches caches;
        with_stats (fun () -> counters.cn_ev_gaps <- counters.cn_ev_gaps + 1);
        [ Events.{ domain_name = ""; lifecycle = Ev_resync; seq = reply.Rp.rr_head } ]
      end
      else begin
        (* Replayed events run through the normal pipeline: invalidate
           here (cache locks only), emit after the release. *)
        List.iter
          (fun ev ->
            Option.iter
              (fun cs -> invalidate_caches cs ev.Events.domain_name)
              caches)
          reply.Rp.rr_events;
        (match List.length reply.Rp.rr_events with
         | 0 -> ()
         | n ->
           with_stats (fun () -> counters.cn_ev_replayed <- counters.cn_ev_replayed + n));
        reply.Rp.rr_events
      end
    in
    with_sq sq (fun () -> sq.sq_last <- max sq.sq_last reply.Rp.rr_head);
    to_emit

(* Runs outside [rc_mutex]: re-emit the replay, then hand the stream back
   to the receiver thread — drain pushes parked while the resume was in
   flight until a pass finds none, and only then stop parking new ones.
   Subscribers thus observe strict seq order with no duplicates. *)
let replay_and_release ~caches ~events sq to_emit =
  List.iter
    (fun ev ->
      Events.emit events ~seq:ev.Events.seq ~domain_name:ev.Events.domain_name
        ev.Events.lifecycle)
    to_emit;
  let rec drain () =
    let batch =
      with_sq sq (fun () ->
          if Queue.is_empty sq.sq_pending then begin
            sq.sq_buffering <- false;
            None
          end
          else begin
            let all =
              Queue.fold (fun acc e -> e :: acc) [] sq.sq_pending |> List.rev
            in
            Queue.clear sq.sq_pending;
            (* Advance the position under the lock; deliver outside.
               Entries at or below the position are duplicates the
               replay already covered. *)
            Some
              (List.filter
                 (fun ev ->
                   if ev.Events.seq > sq.sq_last then begin
                     sq.sq_last <- ev.Events.seq;
                     true
                   end
                   else false)
                 all)
          end)
    in
    match batch with
    | None -> ()
    | Some fresh ->
      List.iter
        (fun ev ->
          Option.iter (fun cs -> invalidate_caches cs ev.Events.domain_name) caches;
          Events.emit events ~seq:ev.Events.seq ~domain_name:ev.Events.domain_name
            ev.Events.lifecycle)
        fresh;
      drain ()
  in
  drain ()

type remote_conn = {
  rc_mutex : Mutex.t;
  mutable rpc : Rpc_client.t;
  mutable defunct : bool;  (** closed, or reconnect budget exhausted *)
  mutable rc_minor : int;  (** negotiated protocol minor, re-probed on reconnect *)
  events : Events.bus;
  rc_cache : caches option;
  rc_address : string;
  rc_kind : Transport.kind;
  rc_forwarded : string;  (** URI replayed as Proc_open on reconnect *)
  rc_keepalive : Rpc_client.keepalive option;
  rc_register_events : bool;
  rc_use_resume : bool;  (** v1.6 resumable subscription wanted ([resume=1]) *)
  rc_seq : seq_state;
  rc_resilience : resilience option;
  rc_on_event : procedure:int -> string -> unit;
  rc_stats : counters;
  mutable rc_prng : int;
  rc_timeout_s : float option;
      (** default per-call budget; wrapped as a deadline envelope when
          the daemon speaks v1.4, and always bounds the client-side wait *)
  rc_breaker_k : int;  (** consecutive sheds that open the breaker; 0 = off *)
  mutable rc_consec_rejects : int;
  mutable rc_breaker_until : float;  (** 0. = breaker closed *)
  mutable rc_probing : bool;  (** a half-open probe is in flight *)
  rc_last_listing : (Rp.procedure * string * numbered) option Atomic.t;
      (** the last listing reply below v1.8: procedure, body bytes,
          decoded value *)
  rc_held : (Rp.fleet_token * string * numbered) option Atomic.t;
      (** the last full v1.8 reply: its token, body bytes and listing;
          kept across reconnects, since the token's nonce tells
          incarnations apart *)
}

let with_conn conn f =
  Mutex.lock conn.rc_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock conn.rc_mutex) f

let serves conn proc =
  with_conn conn (fun () -> conn.rc_minor) >= Rp.proc_min_minor proc

let tick conn =
  with_stats (fun () -> conn.rc_stats.cn_calls <- conn.rc_stats.cn_calls + 1)

let raw_call rpc proc body =
  Rpc_client.call rpc ~procedure:(Rp.proc_to_int proc) ~body ()

let raw_call_unit rpc proc body =
  let* reply = raw_call rpc proc body in
  match Rp.dec_unit_body reply with
  | () -> Ok ()
  | exception Xdr.Error msg -> Verror.error Verror.Rpc_failure "bad reply: %s" msg

(* Version probe.  [Proc_proto_minor] first appeared in v1.3, the oldest
   minor this client speaks: a daemon that rejects it as an unknown
   procedure is an older build, and is refused rather than guessed at. *)
let negotiate rpc =
  match raw_call rpc Rp.Proc_proto_minor Rp.enc_unit_body with
  | Ok reply -> (
    match Rp.dec_int_body reply with
    | m -> Ok (min m Rp.minor)
    | exception Xdr.Error msg ->
      Verror.error Verror.Rpc_failure "bad reply: %s" msg)
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
let establish ~address ~kind ~keepalive ~on_event ~register_events ~use_resume
    ~sq ~forwarded =
  let* rpc =
    Rpc_client.connect ~address ~kind ~program:Rp.program ~version:Rp.version
      ?keepalive ~on_event ()
  in
  let handshake =
    let* () = raw_call_unit rpc Rp.Proc_open (Rp.enc_string_body forwarded) in
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
        let* reply = raw_call rpc Rp.Proc_event_resume (Rp.enc_event_resume last) in
        match Rp.dec_resume_reply reply with
        | r -> Ok (`Seq r)
        | exception Xdr.Error msg ->
          Verror.error Verror.Rpc_failure "bad reply: %s" msg
      end
      else
        let* () = raw_call_unit rpc Rp.Proc_event_register Rp.enc_unit_body in
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

(* Single-flight reconnect: callers that lost the race to a dead [rpc]
   block on the mutex while the first one rebuilds the connection, then
   observe the fresh client (or the defunct mark).  Exponential backoff
   with jitter between attempts; the budget bounds the outage.

   The cache reconciliation ([absorb_event_mode]) runs inside the same
   critical section that swaps [conn.rpc]: no caller can read the caches
   between the swap and the flush/replay-invalidation.  Re-emitting the
   replay happens after the lock is released — subscriber callbacks may
   re-enter the driver.  Only the winning reconnector carries a batch to
   emit ([Ok (Some _)]); losers observe [Ok None] and must not touch the
   stream, or they would release the buffering latch prematurely.  A
   back-off never sleeps past the calling [call]'s [deadline]; once that
   has passed the call fails, and the connection is not made defunct. *)
let ensure_connected conn ~dead ~bound ~deadline =
  let outcome =
    with_conn conn (fun () ->
        if conn.defunct then
          Verror.error Verror.Rpc_failure "remote connection is closed"
        else if conn.rpc != dead then Ok None (* somebody already reconnected *)
        else begin
          let r = Option.get conn.rc_resilience in
          let outage_start = Unix.gettimeofday () in
          let rec attempt i =
            if i > r.res_budget then begin
              conn.defunct <- true;
              with_stats (fun () ->
                  conn.rc_stats.cn_giveups <- conn.rc_stats.cn_giveups + 1);
              Verror.error Verror.Rpc_failure
                "reconnect budget of %d attempts exhausted" r.res_budget
            end
            else if Unix.gettimeofday () >= deadline then
              Verror.error Verror.Rpc_failure
                "call budget of %gs spent reconnecting" bound
            else begin
              with_stats (fun () ->
                  conn.rc_stats.cn_attempts <- conn.rc_stats.cn_attempts + 1);
              Thread.delay
                (Float.min (backoff_delay conn r i)
                   (deadline -. Unix.gettimeofday ()));
              match
                establish ~address:conn.rc_address ~kind:conn.rc_kind
                  ~keepalive:conn.rc_keepalive ~on_event:conn.rc_on_event
                  ~register_events:conn.rc_register_events
                  ~use_resume:conn.rc_use_resume ~sq:conn.rc_seq
                  ~forwarded:conn.rc_forwarded
              with
              | Ok (rpc, minor, mode) ->
                conn.rpc <- rpc;
                conn.rc_minor <- minor;
                let to_emit =
                  absorb_event_mode ~caches:conn.rc_cache
                    ~counters:conn.rc_stats conn.rc_seq mode
                in
                with_stats (fun () ->
                    let c = conn.rc_stats in
                    c.cn_reconnects <- c.cn_reconnects + 1;
                    c.cn_latencies <-
                      (Unix.gettimeofday () -. outage_start) :: c.cn_latencies);
                Ok (Some to_emit)
              | Error _ -> attempt (i + 1)
            end
          in
          attempt 1
        end)
  in
  match outcome with
  | Ok (Some to_emit) ->
    replay_and_release ~caches:conn.rc_cache ~events:conn.events conn.rc_seq
      to_emit;
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
            with_stats (fun () ->
                conn.rc_stats.cn_breaker_fastfails <-
                  conn.rc_stats.cn_breaker_fastfails + 1);
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
  with_stats (fun () ->
      conn.rc_stats.cn_overloaded <- conn.rc_stats.cn_overloaded + 1);
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
          if was_closed then
            with_stats (fun () ->
                conn.rc_stats.cn_breaker_opens <-
                  conn.rc_stats.cn_breaker_opens + 1)
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
   per-connection circuit breaker. *)
let call conn proc body =
  let idempotent = Rp.is_idempotent proc in
  let timeout = conn.rc_timeout_s in
  (* Client-side wait generously outlasts the server budget: the
     daemon's authoritative "expired in queue" reply (sent when a worker
     finally pops the stale job) should win over the local timeout
     whenever the connection is alive; the local bound only covers a
     server that never answers at all. *)
  let timeout_s = Option.map (fun t -> t +. 1.0) timeout in
  let bound = Option.value timeout_s ~default:Float.infinity in
  let deadline = Unix.gettimeofday () +. bound in
  let wire_call rpc =
    let wproc, wbody =
      match timeout with
      | Some t when serves conn Rp.Proc_call_deadline ->
        ( Rp.Proc_call_deadline,
          Rp.enc_deadline_call
            ~budget_ms:(max 1 (int_of_float (t *. 1000.)))
            ~proc:(Rp.proc_to_int proc) body )
      | _ -> (proc, body)
    in
    Rpc_client.call rpc ~procedure:(Rp.proc_to_int wproc) ~body:wbody
      ?timeout_s ()
  in
  let rec go attempt =
    match breaker_admit conn with
    | Error _ as err -> err
    | Ok () -> (
      let rpc = with_conn conn (fun () -> conn.rpc) in
      tick conn;
      match wire_call rpc with
      | Ok _ as ok ->
        breaker_responsive conn;
        ok
      | Error e when e.Verror.code = Verror.Overloaded ->
        breaker_shed conn e;
        Error e
      | Error e
        when e.Verror.code = Verror.Rpc_failure
             && conn.rc_resilience <> None
             && Rpc_client.is_closed rpc -> begin
          breaker_inconclusive conn;
          match ensure_connected conn ~dead:rpc ~bound ~deadline with
          | Error _ as err -> err
          | Ok () ->
            let budget = (Option.get conn.rc_resilience).res_budget in
            if idempotent && attempt <= budget then begin
              with_stats (fun () ->
                  conn.rc_stats.cn_retried <- conn.rc_stats.cn_retried + 1);
              go (attempt + 1)
            end
            else if idempotent then Error e
            else
              Verror.error Verror.Rpc_failure
                "connection dropped during non-idempotent call %d (reconnected, \
                 not retried): %s"
                (Rp.proc_to_int proc) e.Verror.message
        end
      | Error e as err ->
        if e.Verror.code = Verror.Rpc_failure then breaker_inconclusive conn
        else breaker_responsive conn;
        err)
  in
  go 1

let call_unit conn proc body =
  let* reply = call conn proc body in
  match Rp.dec_unit_body reply with
  | () -> Ok ()
  | exception Xdr.Error msg -> Verror.error Verror.Rpc_failure "bad reply: %s" msg

let decode decoder reply =
  match decoder reply with
  | v -> Ok v
  | exception Xdr.Error msg -> Verror.error Verror.Rpc_failure "bad reply: %s" msg

let call_dec conn proc body decoder =
  let* reply = call conn proc body in
  decode decoder reply

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
   reply (see {!Remote_cache}). *)
let cached_read conn pick name proc body decoder =
  match live_cache conn with
  | None -> call_dec conn proc body decoder
  | Some cs -> (
    let c = pick cs in
    match Cache.find c name ~now:(now ()) with
    | Some v -> Ok v
    | None ->
      let fill = Cache.begin_fill c in
      let* v = call_dec conn proc body decoder in
      ignore (Cache.install c fill name v ~now:(now ()));
      Ok v)

let dom_get_info conn name =
  cached_read conn
    (fun cs -> cs.c_info)
    name Rp.Proc_dom_get_info (Rp.enc_string_body name) Rp.dec_domain_info

let dom_get_autostart conn name =
  cached_read conn
    (fun cs -> cs.c_autostart)
    name Rp.Proc_dom_get_autostart (Rp.enc_string_body name) Rp.dec_bool_body

let dom_get_xml conn name =
  cached_read conn
    (fun cs -> cs.c_xml)
    name Rp.Proc_dom_get_xml (Rp.enc_string_body name) Rp.dec_string_body

let lookup_by_name conn name =
  match live_cache conn with
  | None ->
    call_dec conn Rp.Proc_lookup_by_name (Rp.enc_string_body name)
      Rp.dec_domain_ref
  | Some cs -> (
    match Cache.find cs.c_ref name ~now:(now ()) with
    | Some r -> Ok r
    | None ->
      let fill = Cache.begin_fill cs.c_ref in
      let* r =
        call_dec conn Rp.Proc_lookup_by_name (Rp.enc_string_body name)
          Rp.dec_domain_ref
      in
      ignore
        (Cache.install cs.c_ref fill name
           ~uuid:(Vmm.Uuid.to_string r.Driver.dom_uuid)
           r ~now:(now ()));
      Ok r)

let lookup_by_uuid conn uuid =
  let uuid_s = Vmm.Uuid.to_string uuid in
  let wire () =
    call_dec conn Rp.Proc_lookup_by_uuid (Rp.enc_string_body uuid_s)
      Rp.dec_domain_ref
  in
  match live_cache conn with
  | None -> wire ()
  | Some cs -> (
    match Cache.find_by_uuid cs.c_ref uuid_s ~now:(now ()) with
    | Some r -> Ok r
    | None ->
      let fill = Cache.begin_fill cs.c_ref in
      let* r = wire () in
      ignore
        (Cache.install cs.c_ref fill r.Driver.dom_name ~uuid:uuid_s r
           ~now:(now ()));
      Ok r)

(* Writes the daemon acknowledges without a lifecycle event (autostart,
   balloon) must invalidate locally, or our own mutation would be masked
   by our own cache. *)
let invalidate_domain conn name =
  Option.iter (fun cs -> invalidate_caches cs name) conn.rc_cache

(* ------------------------------------------------------------------ *)
(* Bulk domain listing                                                 *)
(* ------------------------------------------------------------------ *)

type list_fills = {
  lf_ref : Cache.fill;
  lf_info : Cache.fill;
  lf_auto : Cache.fill;
}

let begin_list_fills conn =
  Option.map
    (fun cs ->
      {
        lf_ref = Cache.begin_fill cs.c_ref;
        lf_info = Cache.begin_fill cs.c_info;
        lf_auto = Cache.begin_fill cs.c_autostart;
      })
    conn.rc_cache

(* One lock section per cache kind for the whole reply, not one per
   row and kind, and none of the per-row work when the kind already holds
   this very listing.  Counts the rows written. *)
let install_records conn fills (listing, serial) =
  match (conn.rc_cache, fills) with
  | Some cs, Some f ->
    let now = now () in
    let records = listing.Driver.fl_records in
    let rows = ref 0 in
    let counted add name ?uuid v = if add name ?uuid v then incr rows in
    ignore
      (Cache.install_listing cs.c_ref f.lf_ref ~serial ~now (fun add ->
           List.iter
             (fun r ->
               let d = r.Driver.rec_ref in
               counted add d.Driver.dom_name
                 ~uuid:(Vmm.Uuid.to_string d.Driver.dom_uuid) d)
             records));
    ignore
      (Cache.install_listing cs.c_info f.lf_info ~serial ~now (fun add ->
           List.iter
             (fun r -> counted add r.Driver.rec_ref.Driver.dom_name r.Driver.rec_info)
             records));
    ignore
      (Cache.install_listing cs.c_autostart f.lf_auto ~serial ~now (fun add ->
           List.iter
             (fun r ->
               match r.Driver.rec_autostart with
               | Some a -> counted add r.Driver.rec_ref.Driver.dom_name a
               | None -> ())
             records));
    if !rows > 0 then
      with_stats (fun () ->
          conn.rc_stats.cn_rows_installed <- conn.rc_stats.cn_rows_installed + !rows)
  | _ -> ()

(* Decoding is pure, and a polled listing mostly repeats itself byte for
   byte (the daemon's reply cache).  A repeated reply to the procedure of
   [last] reuses its value; any other that decodes replaces it. *)
let decode_reusing last proc decoder body =
  match Atomic.get last with
  | Some (p, b, v) when p = proc && String.equal b body -> Ok v
  | Some _ | None ->
    let* v = decode decoder body in
    Atomic.set last (Some (proc, body, v));
    Ok v

(* v1.8: send the token of the listing held, read once before the call.
   An "unchanged" reply returns that very value, so the fleet's merge
   memo still sees the same rows.  A daemon without a reply cache (or a
   fleet controller) answers every call in full under the zero token;
   its repeated bytes reuse the value decoded from them, as below v1.8. *)
let fetch_since conn =
  let held = Atomic.get conn.rc_held in
  let token = match held with Some (t, _, _) -> t | None -> Rp.no_token in
  let* body = call conn Rp.Proc_fleet_list_since (Rp.enc_fleet_token token) in
  let counted unchanged =
    with_stats (fun () ->
        let c = conn.rc_stats in
        c.cn_listings <- c.cn_listings + 1;
        if unchanged then c.cn_listings_unchanged <- c.cn_listings_unchanged + 1;
        c.cn_listing_bytes <- c.cn_listing_bytes + String.length body)
  in
  match held with
  | Some (_, b, listing) when String.equal b body ->
    counted false;
    Ok listing
  | Some _ | None -> (
    let* reply = decode Rp.dec_since_reply body in
    match (reply, held) with
    | Rp.Since_unchanged t, Some (t', _, listing) when t = t' ->
      counted true;
      Ok listing
    | Rp.Since_unchanged _, _ ->
      Verror.error Verror.Rpc_failure
        "bad reply: \"unchanged\" for a listing this connection does not hold"
    | Rp.Since_full (t, listing), _ ->
      counted false;
      let listing = number listing in
      Atomic.set conn.rc_held (Some (t, body, listing));
      Ok listing)

(* v1.3–v1.7: one listing procedure, and a repeated reply's bytes reuse
   the value decoded from them. *)
let fetch_bytes conn proc decoder =
  let* body = call conn proc Rp.enc_unit_body in
  with_stats (fun () ->
      let c = conn.rc_stats in
      c.cn_listings <- c.cn_listings + 1;
      c.cn_listing_bytes <- c.cn_listing_bytes + String.length body);
  decode_reusing conn.rc_last_listing proc (fun body -> number (decoder body)) body

(* One bulk listing round trip, on the one wire path the negotiated minor
   picks.  For every reply, reused or not, shard errors go into the
   sub-error counter, so the CLI's partial-failure exit code covers
   fleet-wide listings; rows go into the cache unless it holds that very
   listing already. *)
let fleet_list_all conn () =
  let fills = begin_list_fills conn in
  let* ((listing, _) as numbered) =
    if serves conn Rp.Proc_fleet_list_since then fetch_since conn
    else if serves conn Rp.Proc_fleet_list_all then
      fetch_bytes conn Rp.Proc_fleet_list_all Rp.dec_fleet_listing
    else
      fetch_bytes conn Rp.Proc_dom_list_all (fun body ->
          let fl_records = Rp.dec_domain_record_list body in
          Driver.{ fl_records; fl_shard_errors = []; fl_members = 1 })
  in
  let errs = List.length listing.Driver.fl_shard_errors in
  if errs > 0 then
    with_stats (fun () ->
        conn.rc_stats.cn_sub_errors <- conn.rc_stats.cn_sub_errors + errs);
  install_records conn fills numbered;
  Ok listing

let dom_list_all conn () =
  let* listing = fleet_list_all conn () in
  Ok listing.Driver.fl_records

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

let caches_of_uri uri ~register_events =
  if Option.value (int_param uri "cache") ~default:1 = 0 then None
  else
    let ttl =
      match float_param uri "cache_ttl" with
      | Some t -> Some t
      | None -> if register_events then None else Some default_eventless_ttl
    in
    Some
      {
        c_ref = Cache.create ?ttl ();
        c_info = Cache.create ?ttl ();
        c_autostart = Cache.create ?ttl ();
        c_xml = Cache.create ?ttl ();
      }

let open_conn uri =
  let* transport =
    match uri.Vuri.transport with
    | Some t -> Ok t
    | None -> Verror.error Verror.Internal_error "remote driver probed without transport"
  in
  let* kind = kind_of_transport transport in
  let daemon = Option.value (Vuri.param uri "daemon") ~default:default_daemon in
  let register_events = Option.value (int_param uri "events") ~default:1 <> 0 in
  let use_resume = Option.value (int_param uri "resume") ~default:1 <> 0 in
  let caches = caches_of_uri uri ~register_events in
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
    }
  in
  let on_event ~procedure body =
    if procedure = Rp.proc_to_int Rp.Proc_event_lifecycle then begin
      match Rp.dec_lifecycle_event body with
      | ev ->
        (* Invalidate before the local re-emit: a subscriber reacting to
           the event must never read the pre-event cache entry. *)
        Option.iter (fun cs -> invalidate_caches cs ev.Events.domain_name) caches;
        Events.emit events ~domain_name:ev.Events.domain_name ev.Events.lifecycle
      | exception Xdr.Error _ -> ()
    end
    else if procedure = Rp.proc_to_int Rp.Proc_event_lifecycle_seq then begin
      match Rp.dec_seq_event body with
      | ev ->
        let deliver =
          with_sq sq (fun () ->
              if sq.sq_buffering then begin
                (* A resume is applying its replay: park the push so it is
                   delivered after the replay, in seq order. *)
                Queue.push ev sq.sq_pending;
                false
              end
              else if ev.Events.seq > sq.sq_last then begin
                sq.sq_last <- ev.Events.seq;
                true
              end
              else false (* duplicate of a replayed event *))
        in
        if deliver then begin
          Option.iter (fun cs -> invalidate_caches cs ev.Events.domain_name) caches;
          Events.emit events ~seq:ev.Events.seq
            ~domain_name:ev.Events.domain_name ev.Events.lifecycle
        end
      | exception Xdr.Error _ -> ()
    end
  in
  let address = daemon ^ "-sock" in
  let* keepalive = keepalive_of_uri uri in
  let resilience = resilience_of_uri uri in
  let forwarded = Vuri.to_string (daemon_side_uri uri) in
  let* rpc, minor, mode =
    establish ~address ~kind ~keepalive ~on_event ~register_events ~use_resume
      ~sq ~forwarded
  in
  let conn =
    {
      rc_mutex = Mutex.create ();
      rpc;
      defunct = false;
      rc_minor = minor;
      events;
      rc_cache = caches;
      rc_address = address;
      rc_kind = kind;
      rc_forwarded = forwarded;
      rc_keepalive = keepalive;
      rc_register_events = register_events;
      rc_use_resume = use_resume;
      rc_seq = sq;
      rc_resilience = resilience;
      rc_on_event = on_event;
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
      rc_last_listing = Atomic.make None;
      rc_held = Atomic.make None;
    }
  in
  (* The connection is not shared yet, so no lock is needed for the
     cache side; an initial resume_from may still carry a replay (or a
     gap verdict) that must reach subscribers-to-be via the bus history. *)
  let to_emit = absorb_event_mode ~caches ~counters:conn.rc_stats sq mode in
  replay_and_release ~caches ~events sq to_emit;
  Ok conn

let close_conn conn =
  let rpc =
    with_conn conn (fun () ->
        conn.defunct <- true;
        conn.rpc)
  in
  (* Best effort: the daemon also cleans up on disconnect. *)
  ignore (raw_call rpc Rp.Proc_close Rp.enc_unit_body);
  Rpc_client.close rpc;
  retire_counters conn.rc_stats

(* ------------------------------------------------------------------ *)
(* Driver operations over the wire                                     *)
(* ------------------------------------------------------------------ *)

let get_capabilities conn () =
  match call_dec conn Rp.Proc_get_capabilities Rp.enc_unit_body Rp.dec_string_body with
  | Ok xml ->
    (match Capabilities.of_xml xml with
     | Ok caps -> caps
     | Error msg ->
       Verror.raise_err Verror.Rpc_failure "bad capabilities from daemon: %s" msg)
  | Error err -> raise (Verror.Virt_error err)

let get_hostname conn () =
  match call_dec conn Rp.Proc_get_hostname Rp.enc_unit_body Rp.dec_string_body with
  | Ok hostname -> hostname
  | Error err -> raise (Verror.Virt_error err)

let remote_net_ops conn =
  Driver.
    {
      net_define =
        (fun ~name ~bridge ~ip_range ->
          call_dec conn Rp.Proc_net_define
            (Rp.enc_net_define ~name ~bridge ~ip_range)
            Rp.dec_net_info);
      net_undefine =
        (fun name -> call_unit conn Rp.Proc_net_undefine (Rp.enc_string_body name));
      net_start =
        (fun name -> call_unit conn Rp.Proc_net_start (Rp.enc_string_body name));
      net_stop =
        (fun name -> call_unit conn Rp.Proc_net_stop (Rp.enc_string_body name));
      net_set_autostart =
        (fun name v ->
          call_unit conn Rp.Proc_net_set_autostart (Rp.enc_name_and_bool name v));
      net_lookup =
        (fun name ->
          call_dec conn Rp.Proc_net_lookup (Rp.enc_string_body name) Rp.dec_net_info);
      net_list =
        (fun () ->
          call_dec conn Rp.Proc_net_list Rp.enc_unit_body Rp.dec_net_info_list);
    }

let remote_storage_ops conn =
  Driver.
    {
      pool_define =
        (fun ~name ~target_path ~capacity_b ->
          call_dec conn Rp.Proc_pool_define
            (Rp.enc_pool_define ~name ~target_path ~capacity_b)
            Rp.dec_pool_info);
      pool_undefine =
        (fun name -> call_unit conn Rp.Proc_pool_undefine (Rp.enc_string_body name));
      pool_start =
        (fun name -> call_unit conn Rp.Proc_pool_start (Rp.enc_string_body name));
      pool_stop =
        (fun name -> call_unit conn Rp.Proc_pool_stop (Rp.enc_string_body name));
      pool_lookup =
        (fun name ->
          call_dec conn Rp.Proc_pool_lookup (Rp.enc_string_body name) Rp.dec_pool_info);
      pool_list =
        (fun () ->
          call_dec conn Rp.Proc_pool_list Rp.enc_unit_body Rp.dec_pool_info_list);
      vol_create =
        (fun ~pool ~name ~capacity_b ~format ->
          call_dec conn Rp.Proc_vol_create
            (Rp.enc_vol_create ~pool ~name ~capacity_b ~format)
            Rp.dec_vol_info);
      vol_delete =
        (fun ~pool ~name ->
          call_unit conn Rp.Proc_vol_delete (Rp.enc_vol_ref ~pool ~name));
      vol_list =
        (fun ~pool ->
          call_dec conn Rp.Proc_vol_list (Rp.enc_string_body pool)
            Rp.dec_vol_info_list);
      vol_by_path =
        (fun path ->
          call_dec conn Rp.Proc_vol_lookup (Rp.enc_string_body path)
            Rp.dec_vol_info);
    }

(* The federation view over the wire, offered when the daemon serves the
   fleet procedures.  Owner lookup stays controller-side: placement is
   the controller's secret, and nothing client-side needs it. *)
let remote_fleet_view conn =
  Driver.
    {
      fleet_list_all = (fun () -> fleet_list_all conn ());
      fleet_status =
        (fun () ->
          call_dec conn Rp.Proc_fleet_status Rp.enc_unit_body
            Rp.dec_fleet_status);
      fleet_migrate =
        (fun ~domain ~dest ->
          call_unit conn Rp.Proc_fleet_migrate
            (Rp.enc_fleet_migrate ~domain ~dest));
      fleet_owner =
        (fun _ -> Driver.unsupported ~drv:"remote" ~op:"fleet owner lookup");
    }

let make_ops uri conn =
  let name_call proc name = call_unit conn proc (Rp.enc_string_body name) in
  (* Lifecycle mutations are also invalidated by the pushed event, but
     writes without one (autostart, balloon) — and event-less
     connections — need the local invalidation. *)
  let name_call_inval proc name =
    let r = name_call proc name in
    if Result.is_ok r then invalidate_domain conn name;
    r
  in
  Driver.make_ops ~drv_name:"remote"
    ~get_capabilities:(get_capabilities conn)
    ~get_hostname:(get_hostname conn)
    ~close:(fun () -> close_conn conn)
    ~list_domains:(fun () ->
      call_dec conn Rp.Proc_list_domains Rp.enc_unit_body Rp.dec_domain_ref_list)
    ~list_defined:(fun () ->
      call_dec conn Rp.Proc_list_defined Rp.enc_unit_body Rp.dec_string_list)
    ~lookup_by_name:(lookup_by_name conn)
    ~lookup_by_uuid:(lookup_by_uuid conn)
    ~define_xml:(fun xml ->
      let* r =
        call_dec conn Rp.Proc_define_xml (Rp.enc_string_body xml)
          Rp.dec_domain_ref
      in
      invalidate_domain conn r.Driver.dom_name;
      Ok r)
    ~undefine:(name_call_inval Rp.Proc_undefine)
    ~dom_create:(name_call_inval Rp.Proc_dom_create)
    ~dom_suspend:(name_call_inval Rp.Proc_dom_suspend)
    ~dom_resume:(name_call_inval Rp.Proc_dom_resume)
    ~dom_shutdown:(name_call_inval Rp.Proc_dom_shutdown)
    ~dom_destroy:(name_call_inval Rp.Proc_dom_destroy)
    ~dom_get_info:(dom_get_info conn)
    ~dom_get_xml:(dom_get_xml conn)
    ~dom_set_memory:(fun name kib ->
      let r = call_unit conn Rp.Proc_dom_set_memory (Rp.enc_name_and_kib name kib) in
      if Result.is_ok r then invalidate_domain conn name;
      r)
    ~dom_save:(name_call_inval Rp.Proc_dom_save)
    ~dom_restore:(name_call_inval Rp.Proc_dom_restore)
    ~dom_has_managed_save:(fun name ->
      call_dec conn Rp.Proc_dom_has_managed_save (Rp.enc_string_body name)
        Rp.dec_bool_body)
    ~dom_set_autostart:(fun name v ->
      let r = call_unit conn Rp.Proc_dom_set_autostart (Rp.enc_name_and_bool name v) in
      if Result.is_ok r then invalidate_domain conn name;
      r)
    ~dom_get_autostart:(dom_get_autostart conn)
    ~dom_set_policy:(fun name p ->
      call_unit conn Rp.Proc_dom_set_policy (Rp.enc_set_policy name p))
    ~dom_get_policy:(fun name ->
      call_dec conn Rp.Proc_dom_get_policy (Rp.enc_string_body name)
        Rp.dec_policy)
    ~dom_list_all:(dom_list_all conn)
    ~net:(remote_net_ops conn) ~storage:(remote_storage_ops conn)
    ?fleet:
      (if serves conn Rp.Proc_fleet_list_all then Some (remote_fleet_view conn)
       else None)
    ~events:conn.events ()
  |> fun ops -> { ops with Driver.drv_name = "remote(" ^ uri.Vuri.scheme ^ ")" }

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
