open Ovirt_core
module Rp = Protocol.Remote_protocol
module Rpc_packet = Ovrpc.Rpc_packet

(* A v1.6 client subscribes through the node's replay ring (events carry
   stream positions); older clients tap the bus directly, as before. *)
type event_sub =
  | Sub_bus of Events.subscription
  | Sub_ring of Eventring.t * int

(* A connection's reply cache: its node's cache and the driver's write
   generation, which stamps every entry. *)
type cached = { rc : Reply_cache.t; gen_of : unit -> int }

type conn_state = {
  ops : Driver.ops;
  uri : string;  (** the direct (transport-stripped) URI opened *)
  local : bool;
      (** the driver has a write generation: a local node, never a fleet
          controller or a chained remote driver, whose reads wait on
          member RPCs.  Its [Inline] calls may run on the receiving
          thread. *)
  cache : cached option;
      (** the listings' cache, resolved once, at [Proc_open]: [None]
          when any layer opts out — the daemon knob, the client's
          [replycache=0/off] URI param, or a driver that is not local *)
  mutable event_sub : event_sub option;
}

(* Per-client open connections, keyed by client id.  One table per daemon
   process is enough: client ids are unique per server and the remote
   program is attached to exactly one server. *)
type state = {
  mutex : Mutex.t;
  conns : (int64, conn_state) Hashtbl.t;
  logger : Vlog.t;
  reconcile : Reconcile.t option;  (** the daemon's policy engine *)
  rings : (string, Eventring.t) Hashtbl.t;
      (** replay ring per driver-node URI, daemon-lifetime *)
  ring_capacity : int;
  caches : (string, Reply_cache.t) Hashtbl.t;
      (** reply cache per driver-node URI, daemon-lifetime (like rings) *)
  cache_enabled : bool;  (** the [reply_cache] config knob *)
  cache_entries : int;  (** per-cache entry bound *)
  nonce : int;
      (** boot nonce of the v1.8 listing tokens: fill numbers restart
          with each incarnation, so a token from an earlier one must
          never match *)
  inline_runs : int Atomic.t;  (** [Inline] calls run on the receiving thread *)
  inline_fallbacks : int Atomic.t;  (** inline attempts that would wait *)
  pool_runs : int Atomic.t;  (** local point reads and listing fills run elsewhere *)
}

let with_lock st f =
  Mutex.lock st.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock st.mutex) f

let ( let* ) = Result.bind

let find_conn st client =
  with_lock st (fun () -> Hashtbl.find_opt st.conns (Client_obj.id client))

let get_conn st client =
  match find_conn st client with
  | Some cs -> Ok cs
  | None -> Verror.error Verror.No_connect "client has no open hypervisor connection"

(* Caller holds [st.mutex].  Caches are per driver-node URI and live for
   the daemon (like [rings]); creating one also arms the proactive
   invalidation path — any lifecycle event on the node's bus flushes the
   cache.  Writes that emit no event (set_memory, define, autostart …)
   are caught by the generation stamp instead. *)
let cache_for st uri (ops : Driver.ops) =
  match Hashtbl.find_opt st.caches uri with
  | Some cache -> cache
  | None ->
    let cache = Reply_cache.create ~max_entries:st.cache_entries in
    let (_ : Events.subscription) =
      Events.subscribe ops.Driver.events (fun _ -> Reply_cache.invalidate_all cache)
    in
    Hashtbl.replace st.caches uri cache;
    cache

(* The daemon opens the URI locally: strip the transport suffix so the
   registry resolves a direct (stateful) driver. *)
let do_open st client uri_string =
  let* uri = Vuri.parse uri_string in
  let direct_uri = { uri with Vuri.transport = None } in
  (* Per-connection opt-out: clients append [?replycache=0] (forwarded by
     the remote driver, unlike its client-local [cache] params) to force
     every read through the live handler. *)
  let opted_out =
    match Vuri.param uri "replycache" with
    | Some ("0" | "off" | "no") -> true
    | Some _ | None -> false
  in
  with_lock st (fun () ->
      if Hashtbl.mem st.conns (Client_obj.id client) then
        Verror.error Verror.Operation_invalid "connection already open"
      else
        let* ops = Driver.open_uri direct_uri in
        let uri = Vuri.to_string direct_uri in
        let cache =
          match ops.Driver.generation with
          | Some gen_of when st.cache_enabled && not opted_out ->
            Some { rc = cache_for st uri ops; gen_of }
          | Some _ | None -> None
        in
        Hashtbl.replace st.conns (Client_obj.id client)
          { ops; uri; local = Option.is_some ops.Driver.generation; cache; event_sub = None };
        Vlog.logf st.logger ~module_:"daemon.remote" Vlog.Info
          "client %Ld opened %s via driver %s" (Client_obj.id client) uri_string
          ops.Driver.drv_name;
        Ok ())

(* Callers hold [st.mutex].  Lock order is st.mutex > ring mutex
   everywhere; ring code never takes st.mutex back. *)
let drop_event_sub (cs : conn_state) =
  (match cs.event_sub with
   | Some (Sub_bus sub) -> Events.unsubscribe cs.ops.Driver.events sub
   | Some (Sub_ring (ring, id)) -> Eventring.unsubscribe ring id
   | None -> ());
  cs.event_sub <- None

let teardown_conn st id =
  with_lock st (fun () ->
      match Hashtbl.find_opt st.conns id with
      | None -> ()
      | Some cs ->
        drop_event_sub cs;
        cs.ops.Driver.close ();
        Hashtbl.remove st.conns id)

let do_close st client =
  teardown_conn st (Client_obj.id client);
  Ok ()

let net_backend (cs : conn_state) =
  match cs.ops.Driver.net with
  | Some b -> Ok b
  | None -> Driver.unsupported ~drv:cs.ops.Driver.drv_name ~op:"networks"

let storage_backend (cs : conn_state) =
  match cs.ops.Driver.storage with
  | Some b -> Ok b
  | None -> Driver.unsupported ~drv:cs.ops.Driver.drv_name ~op:"storage pools"

(* Lookup and subscription must share one critical section: with the
   lookup under a separate lock acquisition, a disconnect arriving in
   between runs [teardown_conn] against a still-empty [event_sub], and
   the subscription installed afterwards leaks on the bus forever
   (delivering to a dead client). *)
let do_event_register st client =
  with_lock st (fun () ->
      match Hashtbl.find_opt st.conns (Client_obj.id client) with
      | None ->
        Verror.error Verror.No_connect "client has no open hypervisor connection"
      | Some cs -> (
        match cs.event_sub with
        | Some _ -> Ok ()
        | None ->
          let sub =
            Events.subscribe cs.ops.Driver.events (fun event ->
                let header =
                  Rpc_packet.event_header ~program:Rp.program ~version:Rp.version
                    ~procedure:(Rp.proc_to_int Rp.Proc_event_lifecycle)
                in
                Client_obj.send_packet client
                  (Rpc_packet.encode header
                     (Xdr.encode Rp.event_lifecycle.Rp.sg_args event)))
          in
          cs.event_sub <- Some (Sub_bus sub);
          Ok ()))

(* Caller holds [st.mutex]. *)
let ring_for st (cs : conn_state) =
  match Hashtbl.find_opt st.rings cs.uri with
  | Some ring -> ring
  | None ->
    let ring =
      Eventring.create ~capacity:st.ring_capacity ~bus:cs.ops.Driver.events
    in
    Hashtbl.replace st.rings cs.uri ring;
    ring

(* The same critical-section rule as [do_event_register] applies, and
   more: arming the subscription and computing the replay are one
   critical section of the ring mutex (inside [Eventring.resume]), so
   the client observes every event exactly once at the boundary. *)
let do_event_resume st client last_seq =
  with_lock st (fun () ->
      match Hashtbl.find_opt st.conns (Client_obj.id client) with
      | None ->
        Verror.error Verror.No_connect "client has no open hypervisor connection"
      | Some cs ->
        drop_event_sub cs;
        let ring = ring_for st cs in
        let push event =
          let header =
            Rpc_packet.event_header ~program:Rp.program ~version:Rp.version
              ~procedure:(Rp.proc_to_int Rp.Proc_event_lifecycle_seq)
          in
          Client_obj.send_packet client
            (Rpc_packet.encode header
               (Xdr.encode Rp.event_lifecycle_seq.Rp.sg_args event))
        in
        let sub_id, reply = Eventring.resume ring ~last_seq push in
        cs.event_sub <- Some (Sub_ring (ring, sub_id));
        if reply.Rp.rr_gap then
          Vlog.logf st.logger ~module_:"daemon.remote" Vlog.Info
            "client %Ld resume at seq %d gapped (retained %d..%d)"
            (Client_obj.id client) last_seq reply.Rp.rr_oldest reply.Rp.rr_head;
        Ok reply)

let do_event_deregister st client =
  with_lock st (fun () ->
      match Hashtbl.find_opt st.conns (Client_obj.id client) with
      | None ->
        Verror.error Verror.No_connect "client has no open hypervisor connection"
      | Some cs ->
        drop_event_sub cs;
        Ok ())

(* ------------------------------------------------------------------ *)
(* Reply cache plumbing                                                *)
(* ------------------------------------------------------------------ *)

(* A body too big for one packet is answered with an error by the
   dispatcher, so it is never cached: caching it would only pin it, and
   the receiving thread must never try to frame it. *)
let fits body = String.length body <= Rpc_packet.max_body_size

let list_all_number = Rp.proc_to_int Rp.Proc_fleet_list_all
let no_args = Xdr.encode Rp.fleet_list_all.Rp.sg_args ()

(* The cache protocol's first step, for a [Cached_listing] row: [Some
   body] when the live entry answers the call, [None] when only the
   handler can.  Whether a conditional listing is current is decided
   where every cached reply's validity is: a live entry (generation
   current, not flushed by an event, not evicted) still carrying the
   token's fill number.  Raises [Xdr.Error] on a malformed token. *)
let lookup st c (d : Rp.descriptor) body =
  let gen = c.gen_of () in
  if d.Rp.proc <> Rp.Proc_fleet_list_since then
    match Reply_cache.find_since c.rc ~proc:d.Rp.number ~args:body ~gen ~fill:0 with
    | Reply_cache.Changed { frame; _ } -> Some frame
    | Reply_cache.Unchanged | Reply_cache.Absent -> None
  else
    let token = Xdr.decode Rp.fleet_list_since.Rp.sg_args body in
    let fill = if token.Rp.ft_nonce = st.nonce then token.Rp.ft_fill else 0 in
    match
      Reply_cache.find_since c.rc ~proc:list_all_number ~args:no_args ~gen ~fill
    with
    | Reply_cache.Unchanged ->
      Some (Xdr.encode Rp.fleet_list_since.Rp.sg_ret (Rp.Since_unchanged token))
    | Reply_cache.Changed { frame; fill } ->
      Some (Rp.enc_since_full_raw { Rp.ft_nonce = st.nonce; ft_fill = fill } frame)
    | Reply_cache.Absent -> None

(* The second step: run the handler and offer its reply to the cache,
   returning the reply and the fill number it was stored under (0 when
   it was not).  The generation is snapshotted {e before} the handler
   runs: if a write overlaps the fill, the write's bump (made while it
   still holds the write lock) leaves this snapshot stale, so the entry
   is discarded at its next lookup — the fill can never pin post-write
   data under a pre-write stamp, and serving a still-valid pre-write
   reply while a write is in flight is just a read ordered before the
   write. *)
let fill st c ~proc ~args handler =
  let gen = c.gen_of () in
  let result = handler () in
  Atomic.incr st.pool_runs;
  let* reply = result in
  Ok (reply, if fits reply then Reply_cache.insert c.rc ~proc ~args ~gen reply else 0)

(* The annotated listing.  A plain daemon is a fleet of one: its own
   rows, complete, so a v1.7 client can use it unconditionally. *)
let fleet_listing (ops : Driver.ops) =
  match ops.Driver.fleet with
  | Some fv -> fv.Driver.fleet_list_all ()
  | None ->
    let* records = Driver.list_all ops in
    Ok Driver.{ fl_records = records; fl_shard_errors = []; fl_members = 1 }

(* Decode the arguments with the procedure's signature, run the handler,
   encode its result with the same signature. *)
let serve (s : (_, _) Rp.signature) body f =
  let* r = f (Xdr.decode s.Rp.sg_args body) in
  Ok (Xdr.encode s.Rp.sg_ret r)

(* The handler of an optional driver op, or one that reports it
   unsupported. *)
let optional (ops : Driver.ops) what = function
  | Some f -> f
  | None -> fun _ -> Driver.unsupported ~drv:ops.Driver.drv_name ~op:what

(* A backend handler, once the connection's driver is known to have
   the backend. *)
let on_net cs handler args =
  let* b = net_backend cs in
  handler b args

let on_storage cs handler args =
  let* b = storage_backend cs in
  handler b args

let on_fleet (ops : Driver.ops) what f =
  match ops.Driver.fleet with
  | Some fv -> f fv
  | None -> Driver.unsupported ~drv:ops.Driver.drv_name ~op:what

(* Dispatch a connection-scoped procedure against [cs]: the shared tail
   of the dispatcher and of every batch sub-call.  The daemon's
   reconciler feeds its plan ops through {!dispatch_ops} below, so a
   policy-driven lifecycle change takes exactly the path a client's
   v1.3 batch sub-call does. *)
let dispatch_conn (cs : conn_state) proc body =
  let ops = cs.ops in
  match proc with
  | Rp.Proc_open | Rp.Proc_close | Rp.Proc_ping | Rp.Proc_echo
  | Rp.Proc_event_register | Rp.Proc_event_deregister | Rp.Proc_event_lifecycle
  | Rp.Proc_event_resume | Rp.Proc_event_lifecycle_seq
  | Rp.Proc_proto_minor | Rp.Proc_call_batch | Rp.Proc_call_deadline
  | Rp.Proc_dom_set_policy | Rp.Proc_dom_get_policy
  | Rp.Proc_daemon_reconcile_status ->
    Verror.error Verror.Rpc_failure "procedure %d is not connection-scoped"
      (Rp.proc_to_int proc)
  | Rp.Proc_get_capabilities ->
    serve Rp.get_capabilities body (fun () ->
        Ok (Capabilities.to_xml (ops.Driver.get_capabilities ())))
  | Rp.Proc_get_hostname ->
    serve Rp.get_hostname body (fun () -> Ok (ops.Driver.get_hostname ()))
  | Rp.Proc_list_domains -> serve Rp.list_domains body ops.Driver.list_domains
  | Rp.Proc_list_defined -> serve Rp.list_defined body ops.Driver.list_defined
  | Rp.Proc_lookup_by_name -> serve Rp.lookup_by_name body ops.Driver.lookup_by_name
  | Rp.Proc_lookup_by_uuid ->
    serve Rp.lookup_by_uuid body (fun s ->
        let* uuid = Result.map_error (Verror.make Verror.Invalid_arg) (Vmm.Uuid.of_string s) in
        ops.Driver.lookup_by_uuid uuid)
  | Rp.Proc_define_xml -> serve Rp.define_xml body ops.Driver.define_xml
  | Rp.Proc_undefine -> serve Rp.undefine body ops.Driver.undefine
  | Rp.Proc_dom_create -> serve Rp.dom_create body ops.Driver.dom_create
  | Rp.Proc_dom_suspend -> serve Rp.dom_suspend body ops.Driver.dom_suspend
  | Rp.Proc_dom_resume -> serve Rp.dom_resume body ops.Driver.dom_resume
  | Rp.Proc_dom_shutdown -> serve Rp.dom_shutdown body ops.Driver.dom_shutdown
  | Rp.Proc_dom_destroy -> serve Rp.dom_destroy body ops.Driver.dom_destroy
  | Rp.Proc_dom_get_info -> serve Rp.dom_get_info body ops.Driver.dom_get_info
  | Rp.Proc_dom_get_xml -> serve Rp.dom_get_xml body ops.Driver.dom_get_xml
  | Rp.Proc_dom_set_memory ->
    serve Rp.dom_set_memory body (fun (name, kib) -> ops.Driver.dom_set_memory name kib)
  | Rp.Proc_dom_save ->
    serve Rp.dom_save body (optional ops "managed save" ops.Driver.dom_save)
  | Rp.Proc_dom_restore ->
    serve Rp.dom_restore body (optional ops "managed restore" ops.Driver.dom_restore)
  | Rp.Proc_dom_has_managed_save ->
    serve Rp.dom_has_managed_save body
      (optional ops "managed save" ops.Driver.dom_has_managed_save)
  | Rp.Proc_dom_set_autostart ->
    serve Rp.dom_set_autostart body
      (optional ops "autostart"
         (Option.map (fun f (name, flag) -> f name flag) ops.Driver.dom_set_autostart))
  | Rp.Proc_dom_get_autostart ->
    serve Rp.dom_get_autostart body (optional ops "autostart" ops.Driver.dom_get_autostart)
  | Rp.Proc_net_list -> serve Rp.net_list body (on_net cs (fun b -> b.Driver.net_list))
  | Rp.Proc_net_define ->
    serve Rp.net_define body
      (on_net cs (fun b (name, bridge, ip_range) ->
           b.Driver.net_define ~name ~bridge ~ip_range))
  | Rp.Proc_net_start -> serve Rp.net_start body (on_net cs (fun b -> b.Driver.net_start))
  | Rp.Proc_net_stop -> serve Rp.net_stop body (on_net cs (fun b -> b.Driver.net_stop))
  | Rp.Proc_net_undefine ->
    serve Rp.net_undefine body (on_net cs (fun b -> b.Driver.net_undefine))
  | Rp.Proc_net_set_autostart ->
    serve Rp.net_set_autostart body
      (on_net cs (fun b (name, flag) -> b.Driver.net_set_autostart name flag))
  | Rp.Proc_net_lookup -> serve Rp.net_lookup body (on_net cs (fun b -> b.Driver.net_lookup))
  | Rp.Proc_pool_list -> serve Rp.pool_list body (on_storage cs (fun b -> b.Driver.pool_list))
  | Rp.Proc_pool_define ->
    serve Rp.pool_define body
      (on_storage cs (fun b (name, target_path, capacity_b) ->
           b.Driver.pool_define ~name ~target_path ~capacity_b))
  | Rp.Proc_pool_start ->
    serve Rp.pool_start body (on_storage cs (fun b -> b.Driver.pool_start))
  | Rp.Proc_pool_stop -> serve Rp.pool_stop body (on_storage cs (fun b -> b.Driver.pool_stop))
  | Rp.Proc_pool_undefine ->
    serve Rp.pool_undefine body (on_storage cs (fun b -> b.Driver.pool_undefine))
  | Rp.Proc_pool_lookup ->
    serve Rp.pool_lookup body (on_storage cs (fun b -> b.Driver.pool_lookup))
  | Rp.Proc_vol_create ->
    serve Rp.vol_create body
      (on_storage cs (fun b (pool, name, capacity_b, format) ->
           b.Driver.vol_create ~pool ~name ~capacity_b ~format))
  | Rp.Proc_vol_delete ->
    serve Rp.vol_delete body
      (on_storage cs (fun b (pool, name) -> b.Driver.vol_delete ~pool ~name))
  | Rp.Proc_vol_list ->
    serve Rp.vol_list body (on_storage cs (fun b pool -> b.Driver.vol_list ~pool))
  | Rp.Proc_vol_lookup ->
    serve Rp.vol_lookup body (on_storage cs (fun b -> b.Driver.vol_by_path))
  | Rp.Proc_dom_list_all -> serve Rp.dom_list_all body (fun () -> Driver.list_all ops)
  | Rp.Proc_fleet_list_all -> serve Rp.fleet_list_all body (fun () -> fleet_listing ops)
  | Rp.Proc_fleet_status ->
    serve Rp.fleet_status body (fun () ->
        on_fleet ops "fleet status" (fun fv -> fv.Driver.fleet_status ()))
  | Rp.Proc_fleet_migrate ->
    serve Rp.fleet_migrate body (fun (domain, dest) ->
        on_fleet ops "fleet migration" (fun fv -> fv.Driver.fleet_migrate ~domain ~dest))
  | Rp.Proc_fleet_list_since ->
    (* Unconditional: without a reply cache nothing names a listing, so
       the answer is always the full one under the zero token. *)
    serve Rp.fleet_list_since body (fun (_ : Rp.fleet_token) ->
        let* listing = fleet_listing ops in
        Ok (Rp.Since_full (Rp.no_token, listing)))

(* The reconciler's application path: a plan op arrives here already
   encoded as a (procedure, body) sub-call and dispatches against bare
   [ops] exactly as it would inside a [Proc_call_batch] frame. *)
let dispatch_ops ops proc body =
  dispatch_conn { ops; uri = ""; local = false; cache = None; event_sub = None } proc body

(* ------------------------------------------------------------------ *)
(* Cross-shard batch isolation                                         *)
(* ------------------------------------------------------------------ *)

(* Which domain a mutating sub-call targets, for placement.  [`Read]
   sub-calls carry no isolation constraint; [`Opaque] ones mutate but
   cannot be placed by name (a [define_xml] creates the domain, so its
   owner is only decided by placement inside the fleet layer). *)
let batch_target proc body =
  let named (s : (_, _) Rp.signature) name_of =
    match Xdr.decode s.Rp.sg_args body with
    | args -> `Domain (name_of args)
    | exception _ -> `Opaque
  in
  match proc with
  | Rp.Proc_undefine | Rp.Proc_dom_create | Rp.Proc_dom_suspend
  | Rp.Proc_dom_resume | Rp.Proc_dom_shutdown | Rp.Proc_dom_destroy
  | Rp.Proc_dom_save | Rp.Proc_dom_restore ->
    named Rp.dom_create Fun.id
  | Rp.Proc_dom_set_memory -> named Rp.dom_set_memory fst
  | Rp.Proc_dom_set_autostart -> named Rp.dom_set_autostart fst
  | Rp.Proc_dom_set_policy -> named Rp.dom_set_policy fst
  | Rp.Proc_define_xml | Rp.Proc_fleet_migrate -> `Opaque
  | _ -> `Read

(* A fleet connection refuses batches whose mutating sub-calls span more
   than one member: sub-calls execute with per-sub error isolation, so a
   multi-shard batch could half-apply across shards with no rollback.
   Whole-batch refusal keeps the invariant "one batch, one shard, one
   failure domain". *)
let batch_isolation st client subs =
  match find_conn st client with
  | None -> Ok ()
  | Some cs -> (
    match cs.ops.Driver.fleet with
    | None -> Ok ()
    | Some fv ->
      let rec owners acc i = function
        | [] -> Ok acc
        | (proc_num, sub_body) :: rest -> (
          match Rp.proc_of_int proc_num with
          | Error _ -> owners acc (i + 1) rest
          | Ok sub_proc -> (
            match batch_target sub_proc sub_body with
            | `Read -> owners acc (i + 1) rest
            | `Opaque ->
              Verror.error Verror.Operation_invalid
                "cross-shard batch refused: sub-call %d (procedure %d) cannot \
                 be placed on a single member"
                i proc_num
            | `Domain name -> (
              match fv.Driver.fleet_owner name with
              | Error err ->
                Verror.error Verror.Operation_invalid
                  "cross-shard batch refused: cannot place domain %S: %s" name
                  err.Verror.message
              | Ok owner ->
                if List.mem owner acc then owners acc (i + 1) rest
                else owners (owner :: acc) (i + 1) rest)))
      in
      let* distinct = owners [] 0 subs in
      if List.length distinct > 1 then
        Verror.error Verror.Operation_invalid
          "cross-shard batch refused: mutating sub-calls span members %s"
          (String.concat ", " (List.rev distinct))
      else Ok ())

(* A listing whose lookup missed, on a connection with a cache: run
   the handler and fill.  Every path here has looked the call up first,
   which also decoded a conditional listing's token. *)
let fill_listing st cs c (d : Rp.descriptor) body =
  if d.Rp.proc <> Rp.Proc_fleet_list_since then
    let* reply, _ =
      fill st c ~proc:d.Rp.number ~args:body (fun () -> dispatch_conn cs d.Rp.proc body)
    in
    Ok reply
  else
    let* listing, fill =
      fill st c ~proc:list_all_number ~args:no_args (fun () ->
          dispatch_conn cs Rp.Proc_fleet_list_all no_args)
    in
    Ok (Rp.enc_since_full_raw { Rp.ft_nonce = st.nonce; ft_fill = fill } listing)

(* A policy names a domain defined on the connection's node, and needs
   the daemon's reconciler. *)
let with_policy st client name f =
  let* cs = get_conn st client in
  match st.reconcile with
  | None -> Driver.unsupported ~drv:cs.ops.Driver.drv_name ~op:"lifecycle policy"
  | Some r ->
    let* _ref = cs.ops.Driver.lookup_by_name name in
    Ok (f r cs)

(* [minor] is the protocol minor this daemon serves: every row is looked
   up with [Rp.descriptor_of_int ~minor], so procedures newer than it are
   rejected with the very error an old build produces for an unknown
   number, which is what clients key version negotiation on.
   [in_batch] guards against nested batch containers.  A top-level call
   arrives here from {!route}, which has unwrapped any deadline
   envelope; a batch's sub-calls arrive as they are. *)
let rec handle_proc st ~minor ~in_batch client (d : Rp.descriptor) body =
  match d.Rp.proc with
  | Rp.Proc_open -> serve Rp.open_ body (do_open st client)
  | Rp.Proc_close -> serve Rp.close body (fun () -> do_close st client)
  | Rp.Proc_ping -> serve Rp.ping body Result.ok
  | Rp.Proc_echo -> Ok body (* [Rp.echo]: the body, verbatim *)
  | Rp.Proc_proto_minor -> serve Rp.proto_minor body (fun () -> Ok minor)
  | Rp.Proc_call_batch ->
    if in_batch then
      Verror.error Verror.Rpc_failure "nested batch calls are not allowed"
    else
      (* Sub-calls execute sequentially on the worker already running the
         batch (handing them back to the pool could deadlock a small
         pool) with per-sub-call error isolation mirroring the
         dispatcher's: one failing sub-call yields one error sub-reply
         and its siblings proceed. *)
      serve Rp.call_batch body (fun subs ->
          let* () = batch_isolation st client subs in
          Ok (List.map (batch_sub st ~minor client) subs))
  | Rp.Proc_call_deadline ->
    Verror.error Verror.Rpc_failure "deadline envelopes are not allowed inside a batch"
  | Rp.Proc_event_register ->
    serve Rp.event_register body (fun () -> do_event_register st client)
  | Rp.Proc_event_deregister ->
    serve Rp.event_deregister body (fun () -> do_event_deregister st client)
  | Rp.Proc_event_resume -> serve Rp.event_resume body (do_event_resume st client)
  | Rp.Proc_event_lifecycle | Rp.Proc_event_lifecycle_seq ->
    Verror.error Verror.Rpc_failure "lifecycle is a server-to-client event"
  | Rp.Proc_dom_set_policy ->
    serve Rp.dom_set_policy body (fun (name, policy) ->
        with_policy st client name (fun r cs ->
            Reconcile.set_policy r ~uri:cs.uri ~name policy))
  | Rp.Proc_dom_get_policy ->
    serve Rp.dom_get_policy body (fun name ->
        with_policy st client name (fun r cs -> Reconcile.get_policy r ~uri:cs.uri ~name))
  | Rp.Proc_daemon_reconcile_status ->
    serve Rp.daemon_reconcile_status body (fun () ->
        match st.reconcile with
        | None ->
          Verror.error Verror.Operation_unsupported "this daemon has no reconciler"
        | Some r -> Ok (Reconcile.status r))
  | _ -> (
    let* cs = get_conn st client in
    match (d.Rp.path, cs.cache) with
    | Rp.Cached_listing, Some c -> (
      match lookup st c d body with
      | Some reply -> Ok reply
      | None -> fill_listing st cs c d body)
    | Rp.Inline, _ when cs.local ->
      let result = dispatch_conn cs d.Rp.proc body in
      if d.Rp.idempotent then Atomic.incr st.pool_runs;
      result
    | _ -> dispatch_conn cs d.Rp.proc body)

(* One sub-call of a batch, isolated: its failure is its own error
   sub-reply. *)
and batch_sub st ~minor client (proc_num, sub_body) =
  let result =
    match Rp.descriptor_of_int ~minor proc_num with
    | Error err -> Error err
    | Ok sub -> (
      try handle_proc st ~minor ~in_batch:true client sub sub_body
      with exn -> Dispatch.error_of_exn exn)
  in
  match result with
  | Ok reply -> (true, reply)
  | Error err -> (false, Xdr.encode Rp.error err)

type t = { st : state; svc_minor : int }

(* Never 0, the zero token's nonce. *)
let boot_nonce () =
  Int64.to_int (Random.State.int64 (Random.State.make_self_init ()) 0xffff_ffffL)
  + 1

let make ?(minor = Rp.minor) ?(event_ring_capacity = 1024)
    ?(reply_cache = true) ?(reply_cache_entries = 512) ?reconcile ~logger () =
  let st =
    {
      mutex = Mutex.create ();
      conns = Hashtbl.create 32;
      logger;
      reconcile;
      rings = Hashtbl.create 8;
      ring_capacity = event_ring_capacity;
      caches = Hashtbl.create 8;
      cache_enabled = reply_cache;
      cache_entries = max 1 reply_cache_entries;
      nonce = boot_nonce ();
      inline_runs = Atomic.make 0;
      inline_fallbacks = Atomic.make 0;
      pool_runs = Atomic.make 0;
    }
  in
  { st; svc_minor = minor }

let values st table =
  with_lock st (fun () -> Hashtbl.fold (fun _ v acc -> v :: acc) table [])

let reply_cache_enabled t = t.st.cache_enabled
let reply_cache_stats t = List.map Reply_cache.stats (values t.st t.st.caches)
let event_stats t = List.map Eventring.stats (values t.st t.st.rings)

type run_stats = { inline_runs : int; inline_fallbacks : int; pool_runs : int }

let run_stats t =
  {
    inline_runs = Atomic.get t.st.inline_runs;
    inline_fallbacks = Atomic.get t.st.inline_fallbacks;
    pool_runs = Atomic.get t.st.pool_runs;
  }

(* An [Inline] call, run on the receiving thread when nothing in it
   waits: the node lock is only tried, and simulated hypervisor time
   counts as a wait.  A call that would wait goes to the pool as if it
   had never been tried: every wait in it comes before its first effect
   (a mutation, a journal record, an event), so a call that would wait
   has changed nothing yet. *)
let run_inline (st : state) cs (d : Rp.descriptor) body =
  match Reqctx.without_waiting (fun () -> dispatch_conn cs d.Rp.proc body) with
  | result ->
    Atomic.incr st.inline_runs;
    Some result
  | exception Reqctx.Would_wait ->
    Atomic.incr st.inline_fallbacks;
    None

(* A call whose route ends in an error: a pool job like any other. *)
let refuse ~deadline result =
  Dispatch.Queue { priority = false; deadline; run = (fun () -> result) }

(* A call's pool job.  An enveloped one first checks that its deadline
   has not lapsed by the time a worker runs it. *)
let queue ~deadline (d : Rp.descriptor) run =
  let run =
    if deadline = None then run
    else fun () ->
      let* () = Reqctx.check ~what:"dispatch" () in
      run ()
  in
  Dispatch.Queue { priority = d.Rp.high_priority; deadline; run }

let pooled st ~minor client ~deadline d body =
  queue ~deadline d (fun () -> handle_proc st ~minor ~in_batch:false client d body)

(* Where a call, unwrapped or the inner call of a deadline envelope,
   runs.  A listing is looked up here, and only a miss reaches the pool,
   which fills.  An [Inline] call on a local node runs here when the
   pool has no queued job to overtake.  Everything else is a pool job. *)
let route_call st ~minor srv client ~deadline (d : Rp.descriptor) body =
  match d.Rp.path with
  | Rp.Cached_listing -> (
    match find_conn st client with
    | Some ({ cache = Some c; _ } as cs) -> (
      match lookup st c d body with
      | Some reply ->
        if d.Rp.proc <> Rp.Proc_fleet_list_since then Reply_cache.note_patched_send c.rc;
        Dispatch.Reply (Ok reply)
      | None -> queue ~deadline d (fun () -> fill_listing st cs c d body))
    | Some { cache = None; _ } | None -> pooled st ~minor client ~deadline d body)
  | Rp.Inline when Threadpool.queue_empty (Server_obj.pool srv) -> (
    match find_conn st client with
    | Some ({ local = true; _ } as cs) -> (
      match run_inline st cs d body with
      | Some result -> Dispatch.Reply result
      | None -> pooled st ~minor client ~deadline d body)
    | Some { local = false; _ } | None -> pooled st ~minor client ~deadline d body)
  | Rp.Inline | Rp.Pooled -> pooled st ~minor client ~deadline d body

(* The one decision per call, on the receiving thread: the row is looked
   up once, at this daemon's minor, which is also the only v1.4 gate (a
   pinned daemon answers a deadline envelope as an unknown procedure).
   An envelope is decoded once, its deadline anchored now, when
   queueing starts, and its inner call routed as an unwrapped one. *)
let route st ~minor srv client header body =
  match Rp.descriptor_of_int ~minor header.Rpc_packet.procedure with
  | Error err -> refuse ~deadline:None (Error err)
  | Ok { Rp.proc = Rp.Proc_call_deadline; _ } -> (
    match Xdr.decode Rp.call_deadline.Rp.sg_args body with
    | exception exn -> refuse ~deadline:None (Dispatch.error_of_exn exn)
    | budget_ms, inner, inner_body -> (
      let deadline = Some (Unix.gettimeofday () +. (float_of_int budget_ms /. 1000.)) in
      match Rp.descriptor_of_int ~minor inner with
      | Error err -> refuse ~deadline (Error err)
      | Ok { Rp.proc = Rp.Proc_call_deadline; _ } ->
        refuse ~deadline
          (Verror.error Verror.Rpc_failure "nested deadline envelopes are not allowed")
      | Ok d -> route_call st ~minor srv client ~deadline d inner_body))
  | Ok d -> route_call st ~minor srv client ~deadline:None d body

let program_of { st; svc_minor = minor } =
  Dispatch.
    {
      prog_number = Rp.program;
      prog_version = Rp.version;
      route = route st ~minor;
      on_disconnect = (fun client -> teardown_conn st (Client_obj.id client));
    }
