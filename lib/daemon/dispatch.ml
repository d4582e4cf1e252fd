module Transport = Ovnet.Transport
module Rpc_packet = Ovrpc.Rpc_packet
module Verror = Ovirt_core.Verror
module Reqctx = Ovirt_core.Reqctx
module Ka = Protocol.Keepalive_protocol

type program = {
  prog_number : int;
  prog_version : int;
  high_priority : int -> bool;
  peek_deadline : procedure:int -> body:string -> (float * int) option;
      (* For calls carrying a deadline envelope: peek into the body at
         receive time and return (absolute deadline anchored now, inner
         procedure number).  The dispatcher uses the deadline to drop
         jobs that expire while queued, and the inner procedure to
         classify priority by the wrapped call rather than the envelope. *)
  try_fast_reply :
    (Server_obj.t -> Client_obj.t -> Rpc_packet.header -> string -> bool)
    option;
      (* Synchronous fast path consulted on the receiving thread before
         the call is submitted to the pool.  Returning [true] means the
         reply has already been sent (e.g. replayed from a reply cache
         with the serial patched) and the call must not be dispatched;
         [false] falls through to the normal path.  Must be cheap and
         non-blocking, and must never raise. *)
  handle :
    Server_obj.t ->
    Client_obj.t ->
    Rpc_packet.header ->
    string ->
    (string, Verror.t) result;
  on_disconnect : Client_obj.t -> unit;
}

(* Reply framing borrows scratch buffers from a shared pool: the body is
   spliced behind the reserved frame prefix in one pass
   ({!Rpc_packet.encode_into}), so the only allocation left on the reply
   send path is the final immutable frame.  Worker threads frame replies
   concurrently, hence a pool rather than one static buffer; encoders
   that outgrow the pooled size fall back to a private buffer and the
   original (still correctly sized) buffer re-pools. *)
let reply_scratch =
  Ovreactor.Bufpool.create ~buf_size:(16 * 1024) ~max_pooled:32

let frame_reply header result =
  let buf = Ovreactor.Bufpool.take reply_scratch in
  Fun.protect
    ~finally:(fun () -> Ovreactor.Bufpool.give reply_scratch buf)
    (fun () ->
      let enc = Xdr.encoder_of_bytes buf in
      match result with
      | Ok body ->
        Rpc_packet.encode_into enc (Rpc_packet.reply_ok header) (fun e ->
            Xdr.enc_raw e body)
      | Error err ->
        Rpc_packet.encode_into enc
          (Rpc_packet.reply_error header)
          (fun e -> Protocol.Remote_protocol.enc_error_into e err))

let send_reply client header result =
  Client_obj.send_packet client (frame_reply header result)

let run_call srv prog client header body ~deadline =
  Client_obj.touch client;
  let logger = Server_obj.logger srv in
  (* Guarded: this fires once per call, and with debug disabled the
     kasprintf formatting of five arguments would otherwise still run. *)
  if Vlog.would_log logger ~module_:"daemon.rpc" Vlog.Debug then
    Vlog.logf logger ~module_:"daemon.rpc" Vlog.Debug
      "client %Ld: dispatching program=0x%x procedure=%d serial=%d (%d body bytes)"
      (Client_obj.id client) header.Rpc_packet.program header.Rpc_packet.procedure
      header.Rpc_packet.serial (String.length body);
  let result =
    try Reqctx.with_deadline deadline (fun () -> prog.handle srv client header body)
    with
    | Verror.Virt_error err -> Error err
    | Xdr.Error msg -> Verror.error Verror.Rpc_failure "malformed call body: %s" msg
    | Ovrpc.Typed_params.Invalid msg ->
      Verror.error Verror.Rpc_failure "bad typed parameters: %s" msg
    | exn ->
      Verror.error Verror.Internal_error "unhandled exception: %s"
        (Printexc.to_string exn)
  in
  (match result with
   | Ok _ -> ()
   | Error err ->
     Vlog.logf logger ~module_:"daemon.rpc" Vlog.Error
       "client %Ld: procedure %d failed: %s" (Client_obj.id client)
       header.Rpc_packet.procedure (Verror.to_string err));
  send_reply client header result;
  (* Successfully processing any call authenticates the client (stand-in
     for the SASL/polkit handshake real services run) — except keepalive
     pings, which prove liveness, not identity. *)
  if Result.is_ok result && prog.prog_number <> Ka.program then
    Server_obj.note_authenticated srv client

(* The keepalive program: any server answers pings so clients can tell a
   live-but-busy daemon from a dead one.  The PONG is the plain Status_ok
   reply; its serial matches no pending call on the client, which is how
   the client recognises it. *)
let keepalive_program =
  {
    prog_number = Ka.program;
    prog_version = Ka.version;
    high_priority = (fun _ -> true);
    peek_deadline = (fun ~procedure:_ ~body:_ -> None);
    try_fast_reply = None;
    handle =
      (fun _srv _client header _body ->
        if header.Rpc_packet.procedure = Ka.proc_ping then Ok ""
        else
          Verror.error Verror.Rpc_failure "unknown keepalive procedure %d"
            header.Rpc_packet.procedure);
    on_disconnect = (fun _client -> ());
  }

(* Route one decoded call: program lookup, version check, drain check,
   deadline peek, pool submission.  Runs on the reactor thread, so it
   never blocks — pool overflow is shed synchronously — and never
   raises. *)
let process_call srv prog_table client header body =
  match Hashtbl.find_opt prog_table header.Rpc_packet.program with
  | None ->
    send_reply client header
      (Verror.error Verror.Rpc_failure "unknown program 0x%x"
         header.Rpc_packet.program)
  | Some prog ->
    if header.Rpc_packet.version <> prog.prog_version then
      send_reply client header
        (Verror.error Verror.Rpc_failure "program 0x%x: unsupported version %d"
           prog.prog_number header.Rpc_packet.version)
    else if Server_obj.is_draining srv && prog.prog_number <> Ka.program then
      (* Graceful degradation: in-flight dispatches finish, new work is
         refused, pings still answered. *)
      send_reply client header
        (Verror.error Verror.Operation_invalid "server %s is draining"
           (Server_obj.name srv))
    else if
      (* Zero-work read path: a program-supplied hook may answer the call
         synchronously (replaying a cached pre-framed reply) without a
         pool round-trip.  Consulted after version and drain checks so
         cache hits observe the same admission rules as dispatched calls. *)
      match prog.try_fast_reply with
      | Some hook -> hook srv client header body
      | None -> false
    then ()
    else begin
      let peeked =
        prog.peek_deadline ~procedure:header.Rpc_packet.procedure ~body
      in
      let priority =
        match peeked with
        | Some (_, inner) -> prog.high_priority inner
        | None -> prog.high_priority header.Rpc_packet.procedure
      in
      let deadline = Option.map fst peeked in
      let on_expired () =
        (* The job's deadline passed while it sat in the pool queue:
           answer without ever running the handler. *)
        send_reply client header
          (Verror.error Verror.Operation_failed
             "deadline expired in queue (procedure %d)"
             header.Rpc_packet.procedure)
      in
      match
        Threadpool.submit (Server_obj.pool srv) ~priority
          ~source:(Client_obj.id client) ?deadline ~on_expired
          (fun () -> run_call srv prog client header body ~deadline)
      with
      | Ok () -> ()
      | Error { Threadpool.retry_after_ms } ->
        (* Admission control shed the call: reject synchronously on the
           receiving thread with a machine-readable hint. *)
        send_reply client header
          (Verror.overloaded ~retry_after_ms "server %s: job queue is full"
             (Server_obj.name srv))
    end

(* Program lookup runs once per packet: resolve the registered list into
   a table up front instead of scanning it per call. *)
let prog_table_of programs =
  let t = Hashtbl.create (2 * List.length programs) in
  List.iter (fun p -> Hashtbl.replace t p.prog_number p) programs;
  t

(* ------------------------------------------------------------------ *)
(* Reactor front end                                                   *)
(* ------------------------------------------------------------------ *)

module Reactor = Ovreactor.Reactor
module Bufpool = Ovreactor.Bufpool
module Chan = Ovnet.Chan

(* Per-connection non-blocking state machine, run entirely on the
   reactor thread (its callbacks are the only code that touches the
   mutable state, so none of it needs a lock):

     Rc_accepting --(handshake frames)--> Rc_running --(EOF)--> Rc_closed

   In [Rc_running], each inbound chunk goes through header-read
   ({!Rpc_packet.frame_length}) and payload-read ({!Rpc_packet.decode_sub})
   and decoded calls enter the {!process_call} pool submission.  A
   connection only borrows a pool buffer while a partial packet
   straddles chunks — idle connections hold none, and whole aligned
   packets (the common case over {!Chan}) decode zero-copy straight from
   the received chunk.  Arbitrary byte-stream splits reassemble: frames
   coalesced or fragmented by the transport still decode. *)

type rc_running = {
  run_client : Client_obj.t;
  run_conn : Transport.t;
  mutable run_buf : Bytes.t option;  (* borrowed while a partial packet is stashed *)
  mutable run_len : int;  (* valid bytes in [run_buf] *)
}

type rc_state =
  | Rc_accepting of Transport.accept_state
  | Rc_running of rc_running
  | Rc_closed

type rc_conn = {
  rc_srv : Server_obj.t;
  rc_programs : program list;
  rc_table : (int, program) Hashtbl.t;
  rc_reactor : Reactor.t;
  rc_pool : Bufpool.t;
  rc_authorize : (Transport.t -> bool) option;
  rc_ep : Chan.endpoint;
  mutable rc_watch : Reactor.watch option;
  mutable rc_state : rc_state;
}

let rc_unwatch ctx =
  match ctx.rc_watch with
  | Some w ->
    ctx.rc_watch <- None;
    Reactor.unwatch ctx.rc_reactor w
  | None -> ()

let rc_teardown ctx =
  match ctx.rc_state with
  | Rc_closed -> ()
  | Rc_accepting _ ->
    ctx.rc_state <- Rc_closed;
    rc_unwatch ctx;
    Chan.close_endpoint ctx.rc_ep
  | Rc_running run ->
    ctx.rc_state <- Rc_closed;
    rc_unwatch ctx;
    (match run.run_buf with
     | Some b ->
       run.run_buf <- None;
       run.run_len <- 0;
       Bufpool.give ctx.rc_pool b
     | None -> ());
    List.iter (fun p -> p.on_disconnect run.run_client) ctx.rc_programs;
    Server_obj.remove_client ctx.rc_srv (Client_obj.id run.run_client);
    Vlog.logf (Server_obj.logger ctx.rc_srv) ~module_:"daemon.server" Vlog.Info
      "server %s: client %Ld disconnected" (Server_obj.name ctx.rc_srv)
      (Client_obj.id run.run_client)

(* Dispatch every complete frame in [s[pos, limit)]; returns the offset
   of the first byte of the trailing incomplete frame (= [limit] when
   frames were exactly aligned).  @raise Rpc_packet.Bad_packet. *)
let rc_dispatch_frames ctx run s ~pos ~limit =
  let p = ref pos in
  let continue = ref true in
  while !continue do
    match Rpc_packet.frame_length s ~pos:!p ~avail:(limit - !p) with
    | Some flen when limit - !p >= flen ->
      let header, body = Rpc_packet.decode_sub s ~pos:!p ~len:flen in
      p := !p + flen;
      process_call ctx.rc_srv ctx.rc_table run.run_client header body
    | Some _ | None -> continue := false
  done;
  !p

let rc_feed ctx run chunk =
  let clen = String.length chunk in
  match run.run_buf with
  | None ->
    (* Fast path: parse straight out of the chunk, zero-copy. *)
    let consumed = rc_dispatch_frames ctx run chunk ~pos:0 ~limit:clen in
    if consumed < clen then begin
      (* Partial tail: now (and only now) borrow a buffer. *)
      let need = clen - consumed in
      let b0 = Bufpool.take ctx.rc_pool in
      let b =
        if Bytes.length b0 >= need then b0
        else begin
          Bufpool.give ctx.rc_pool b0;
          Bytes.create need
        end
      in
      Bytes.blit_string chunk consumed b 0 need;
      run.run_buf <- Some b;
      run.run_len <- need
    end
  | Some b0 ->
    let need = run.run_len + clen in
    let b =
      if Bytes.length b0 >= need then b0
      else begin
        let nb = Bytes.create (max need (2 * Bytes.length b0)) in
        Bytes.blit b0 0 nb 0 run.run_len;
        Bufpool.give ctx.rc_pool b0;
        run.run_buf <- Some nb;
        nb
      end
    in
    Bytes.blit_string chunk 0 b run.run_len clen;
    run.run_len <- need;
    (* Peel reassembled frames: a 4-byte prefix copy per length peek and
       one copy per frame — only split packets pay this. *)
    let p = ref 0 in
    let continue = ref true in
    while !continue do
      let avail = run.run_len - !p in
      let peek = Bytes.sub_string b !p (min 4 avail) in
      match Rpc_packet.frame_length peek ~pos:0 ~avail with
      | Some flen when avail >= flen ->
        let header, body = Rpc_packet.decode (Bytes.sub_string b !p flen) in
        p := !p + flen;
        process_call ctx.rc_srv ctx.rc_table run.run_client header body
      | Some _ | None -> continue := false
    done;
    let leftover = run.run_len - !p in
    if leftover = 0 then begin
      run.run_buf <- None;
      run.run_len <- 0;
      Bufpool.give ctx.rc_pool b
    end
    else if !p > 0 then begin
      Bytes.blit b !p b 0 leftover;
      run.run_len <- leftover
    end

(* The Edge-mode readiness callback: drain the channel completely (one
   message per iteration), feeding the current phase of the machine. *)
let rec rc_on_ready ctx =
  match ctx.rc_state with
  | Rc_closed -> ()
  | Rc_accepting ast ->
    (match Chan.try_recv ctx.rc_ep.Chan.incoming with
     | exception Chan.Closed -> rc_teardown ctx
     | None -> ()
     | Some frame ->
       (match Transport.accept_feed ast frame with
        | exception exn ->
          Vlog.logf (Server_obj.logger ctx.rc_srv) ~module_:"daemon.server"
            Vlog.Warn "server %s: handshake failed: %s"
            (Server_obj.name ctx.rc_srv) (Printexc.to_string exn);
          rc_teardown ctx
        | `Again -> rc_on_ready ctx
        | `Conn conn -> rc_establish ctx conn))
  | Rc_running run ->
    (match Transport.try_recv run.run_conn with
     | exception (Transport.Closed | Transport.Corrupt _) -> rc_teardown ctx
     | None -> ()
     | Some chunk ->
       (match rc_feed ctx run chunk with
        | () -> rc_on_ready ctx
        | exception Rpc_packet.Bad_packet msg ->
          Vlog.logf (Server_obj.logger ctx.rc_srv) ~module_:"daemon.rpc"
            Vlog.Error "client %Ld: dropping connection after bad packet: %s"
            (Client_obj.id run.run_client) msg;
          rc_teardown ctx))

and rc_establish ctx conn =
  let authorized =
    match ctx.rc_authorize with Some f -> f conn | None -> true
  in
  if not authorized then begin
    ctx.rc_state <- Rc_closed;
    rc_unwatch ctx;
    Transport.close conn
  end
  else
    match Server_obj.accept_client ctx.rc_srv conn with
    | Error _ ->
      (* connection already closed by the limit check *)
      ctx.rc_state <- Rc_closed;
      rc_unwatch ctx
    | Ok client ->
      ctx.rc_state <-
        Rc_running { run_client = client; run_conn = conn; run_buf = None; run_len = 0 };
      (* frames behind the identity frame (pipelined calls) drain now *)
      rc_on_ready ctx

let attach_endpoint srv programs ~reactor ~pool ?authorize ~kind ep =
  let ctx =
    {
      rc_srv = srv;
      rc_programs = programs;
      rc_table = prog_table_of programs;
      rc_reactor = reactor;
      rc_pool = pool;
      rc_authorize = authorize;
      rc_ep = ep;
      rc_watch = None;
      rc_state = Rc_accepting (Transport.accept_start kind ep);
    }
  in
  let w =
    Reactor.watch_chan reactor ep.Chan.incoming ~mode:Reactor.Edge (fun () ->
        rc_on_ready ctx)
  in
  ctx.rc_watch <- Some w;
  (* the client's hello may already be queued: registration reports no
     initial readiness, so ask for one dispatch explicitly *)
  Reactor.kick reactor w
