open Ovirt_core
module Rp = Protocol.Remote_protocol
module Rpc_packet = Ovrpc.Rpc_packet

(* A v1.6 client subscribes through the node's replay ring (events carry
   stream positions); older clients tap the bus directly, as before. *)
type event_sub =
  | Sub_bus of Events.subscription
  | Sub_ring of Eventring.t * int

type conn_state = {
  ops : Driver.ops;
  uri : string;  (** the direct (transport-stripped) URI opened *)
  cache_ok : bool;
      (** false when the client's URI carried [replycache=0/off]; the
          per-connection lever to opt out of the server reply cache *)
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
  cache_entries : int;  (** per-cache LRU bound *)
  nonce : int;
      (** boot nonce of the v1.8 listing tokens: fill numbers restart
          with each incarnation, so a token from an earlier one must
          never match *)
}

let with_lock st f =
  Mutex.lock st.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock st.mutex) f

let ( let* ) = Result.bind

let get_conn st client =
  with_lock st (fun () ->
      match Hashtbl.find_opt st.conns (Client_obj.id client) with
      | Some cs -> Ok cs
      | None ->
        Verror.error Verror.No_connect "client has no open hypervisor connection")

(* The daemon opens the URI locally: strip the transport suffix so the
   registry resolves a direct (stateful) driver. *)
let do_open st client body =
  let uri_string = Rp.dec_string_body body in
  let* uri = Vuri.parse uri_string in
  let direct_uri = { uri with Vuri.transport = None } in
  (* Per-connection opt-out: clients append [?replycache=0] (forwarded by
     the remote driver, unlike its client-local [cache] params) to force
     every read through the live handler. *)
  let cache_ok =
    match Vuri.param uri "replycache" with
    | Some ("0" | "off" | "no") -> false
    | Some _ | None -> true
  in
  with_lock st (fun () ->
      if Hashtbl.mem st.conns (Client_obj.id client) then
        Verror.error Verror.Operation_invalid "connection already open"
      else
        let* ops = Driver.open_uri direct_uri in
        Hashtbl.replace st.conns (Client_obj.id client)
          { ops; uri = Vuri.to_string direct_uri; cache_ok; event_sub = None };
        Vlog.logf st.logger ~module_:"daemon.remote" Vlog.Info
          "client %Ld opened %s via driver %s" (Client_obj.id client) uri_string
          ops.Driver.drv_name;
        Ok Rp.enc_unit_body)

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
  Ok Rp.enc_unit_body

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
        | Some _ -> Ok Rp.enc_unit_body
        | None ->
          let sub =
            Events.subscribe cs.ops.Driver.events (fun event ->
                let header =
                  Rpc_packet.event_header ~program:Rp.program ~version:Rp.version
                    ~procedure:(Rp.proc_to_int Rp.Proc_event_lifecycle)
                in
                Client_obj.send_packet client
                  (Rpc_packet.encode header (Rp.enc_lifecycle_event event)))
          in
          cs.event_sub <- Some (Sub_bus sub);
          Ok Rp.enc_unit_body))

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
let do_event_resume st client body =
  let last_seq = Rp.dec_event_resume body in
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
            (Rpc_packet.encode header (Rp.enc_seq_event event))
        in
        let sub_id, reply = Eventring.resume ring ~last_seq push in
        cs.event_sub <- Some (Sub_ring (ring, sub_id));
        if reply.Rp.rr_gap then
          Vlog.logf st.logger ~module_:"daemon.remote" Vlog.Info
            "client %Ld resume at seq %d gapped (retained %d..%d)"
            (Client_obj.id client) last_seq reply.Rp.rr_oldest reply.Rp.rr_head;
        Ok (Rp.enc_resume_reply reply))

let do_event_deregister st client =
  with_lock st (fun () ->
      match Hashtbl.find_opt st.conns (Client_obj.id client) with
      | None ->
        Verror.error Verror.No_connect "client has no open hypervisor connection"
      | Some cs ->
        drop_event_sub cs;
        Ok Rp.enc_unit_body)

(* ------------------------------------------------------------------ *)
(* Reply cache plumbing                                                *)
(* ------------------------------------------------------------------ *)

(* Caller holds [st.mutex].  Caches are per driver-node URI and live for
   the daemon (like [rings]); creating one also arms the proactive
   invalidation path — any lifecycle event on the node's bus flushes the
   cache.  Writes that emit no event (set_memory, define, autostart …)
   are caught by the generation stamp instead. *)
let cache_for st (cs : conn_state) =
  match Hashtbl.find_opt st.caches cs.uri with
  | Some cache -> cache
  | None ->
    let cache = Reply_cache.create ~max_entries:st.cache_entries in
    let (_ : Events.subscription) =
      Events.subscribe cs.ops.Driver.events (fun _ ->
          Reply_cache.invalidate_all cache)
    in
    Hashtbl.replace st.caches cs.uri cache;
    cache

(* The cache serving this connection, or [None] when any layer opts out:
   the daemon knob, the connection's URI param, or a driver without a
   generation stamp. *)
let conn_cache st (cs : conn_state) =
  if st.cache_enabled && cs.cache_ok && Option.is_some cs.ops.Driver.generation
  then Some (with_lock st (fun () -> cache_for st cs))
  else None

(* Cached frames carry serial 0; reply bodies never encode the serial, so
   the body bytes are serial-independent and a hit is re-targeted to any
   call by patching the one serial word. *)
let cached_reply_header procedure =
  Rpc_packet.reply_ok
    (Rpc_packet.call_header ~program:Rp.program ~version:Rp.version ~procedure
       ~serial:0)

(* The annotated listing.  A plain daemon is a fleet of one: its own
   rows, complete, so a v1.7 client can use it unconditionally. *)
let fleet_listing (ops : Driver.ops) =
  match ops.Driver.fleet with
  | Some fv -> fv.Driver.fleet_list_all ()
  | None ->
    let* records = Driver.list_all ops in
    Ok Driver.{ fl_records = records; fl_shard_errors = []; fl_members = 1 }

(* Dispatch a connection-scoped procedure against [cs]: the shared tail
   of the dispatcher and of every batch sub-call.  The daemon's
   reconciler feeds its plan ops through {!dispatch_ops} below, so a
   policy-driven lifecycle change takes exactly the path a client's
   v1.3 batch sub-call does. *)
let dispatch_conn (cs : conn_state) proc body =
  let ( let* ) = Result.bind in
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
    Ok (Rp.enc_string_body (Capabilities.to_xml (ops.Driver.get_capabilities ())))
  | Rp.Proc_get_hostname -> Ok (Rp.enc_string_body (ops.Driver.get_hostname ()))
  | Rp.Proc_list_domains ->
    let* refs = ops.Driver.list_domains () in
    Ok (Rp.enc_domain_ref_list refs)
  | Rp.Proc_list_defined ->
    let* names = ops.Driver.list_defined () in
    Ok (Rp.enc_string_list names)
  | Rp.Proc_lookup_by_name ->
    let* r = ops.Driver.lookup_by_name (Rp.dec_string_body body) in
    Ok (Rp.enc_domain_ref r)
  | Rp.Proc_lookup_by_uuid ->
    let* uuid =
      Result.map_error (Verror.make Verror.Invalid_arg)
        (Vmm.Uuid.of_string (Rp.dec_string_body body))
    in
    let* r = ops.Driver.lookup_by_uuid uuid in
    Ok (Rp.enc_domain_ref r)
  | Rp.Proc_define_xml ->
    let* r = ops.Driver.define_xml (Rp.dec_string_body body) in
    Ok (Rp.enc_domain_ref r)
  | Rp.Proc_undefine ->
    let* () = ops.Driver.undefine (Rp.dec_string_body body) in
    Ok Rp.enc_unit_body
  | Rp.Proc_dom_create ->
    let* () = ops.Driver.dom_create (Rp.dec_string_body body) in
    Ok Rp.enc_unit_body
  | Rp.Proc_dom_suspend ->
    let* () = ops.Driver.dom_suspend (Rp.dec_string_body body) in
    Ok Rp.enc_unit_body
  | Rp.Proc_dom_resume ->
    let* () = ops.Driver.dom_resume (Rp.dec_string_body body) in
    Ok Rp.enc_unit_body
  | Rp.Proc_dom_shutdown ->
    let* () = ops.Driver.dom_shutdown (Rp.dec_string_body body) in
    Ok Rp.enc_unit_body
  | Rp.Proc_dom_destroy ->
    let* () = ops.Driver.dom_destroy (Rp.dec_string_body body) in
    Ok Rp.enc_unit_body
  | Rp.Proc_dom_get_info ->
    let* info = ops.Driver.dom_get_info (Rp.dec_string_body body) in
    Ok (Rp.enc_domain_info info)
  | Rp.Proc_dom_get_xml ->
    let* xml = ops.Driver.dom_get_xml (Rp.dec_string_body body) in
    Ok (Rp.enc_string_body xml)
  | Rp.Proc_dom_set_memory ->
    let name, kib = Rp.dec_name_and_kib body in
    let* () = ops.Driver.dom_set_memory name kib in
    Ok Rp.enc_unit_body
  | Rp.Proc_dom_save ->
    let name = Rp.dec_string_body body in
    (match ops.Driver.dom_save with
     | Some f ->
       let* () = f name in
       Ok Rp.enc_unit_body
     | None -> Driver.unsupported ~drv:ops.Driver.drv_name ~op:"managed save")
  | Rp.Proc_dom_restore ->
    let name = Rp.dec_string_body body in
    (match ops.Driver.dom_restore with
     | Some f ->
       let* () = f name in
       Ok Rp.enc_unit_body
     | None -> Driver.unsupported ~drv:ops.Driver.drv_name ~op:"managed restore")
  | Rp.Proc_dom_has_managed_save ->
    let name = Rp.dec_string_body body in
    (match ops.Driver.dom_has_managed_save with
     | Some f ->
       let* has = f name in
       Ok (Rp.enc_bool_body has)
     | None -> Driver.unsupported ~drv:ops.Driver.drv_name ~op:"managed save")
  | Rp.Proc_dom_set_autostart ->
    let name, autostart = Rp.dec_name_and_bool body in
    (match ops.Driver.dom_set_autostart with
     | Some f ->
       let* () = f name autostart in
       Ok Rp.enc_unit_body
     | None -> Driver.unsupported ~drv:ops.Driver.drv_name ~op:"autostart")
  | Rp.Proc_dom_get_autostart ->
    let name = Rp.dec_string_body body in
    (match ops.Driver.dom_get_autostart with
     | Some f ->
       let* flag = f name in
       Ok (Rp.enc_bool_body flag)
     | None -> Driver.unsupported ~drv:ops.Driver.drv_name ~op:"autostart")
  | Rp.Proc_net_list ->
    let* b = net_backend cs in
    let* infos = b.Driver.net_list () in
    Ok (Rp.enc_net_info_list infos)
  | Rp.Proc_net_define ->
    let name, bridge, ip_range = Rp.dec_net_define body in
    let* b = net_backend cs in
    let* info = b.Driver.net_define ~name ~bridge ~ip_range in
    Ok (Rp.enc_net_info info)
  | Rp.Proc_net_start ->
    let* b = net_backend cs in
    let* () = b.Driver.net_start (Rp.dec_string_body body) in
    Ok Rp.enc_unit_body
  | Rp.Proc_net_stop ->
    let* b = net_backend cs in
    let* () = b.Driver.net_stop (Rp.dec_string_body body) in
    Ok Rp.enc_unit_body
  | Rp.Proc_net_undefine ->
    let* b = net_backend cs in
    let* () = b.Driver.net_undefine (Rp.dec_string_body body) in
    Ok Rp.enc_unit_body
  | Rp.Proc_net_set_autostart ->
    let name, autostart = Rp.dec_name_and_bool body in
    let* b = net_backend cs in
    let* () = b.Driver.net_set_autostart name autostart in
    Ok Rp.enc_unit_body
  | Rp.Proc_net_lookup ->
    let* b = net_backend cs in
    let* info = b.Driver.net_lookup (Rp.dec_string_body body) in
    Ok (Rp.enc_net_info info)
  | Rp.Proc_pool_list ->
    let* b = storage_backend cs in
    let* infos = b.Driver.pool_list () in
    Ok (Rp.enc_pool_info_list infos)
  | Rp.Proc_pool_define ->
    let name, target_path, capacity_b = Rp.dec_pool_define body in
    let* b = storage_backend cs in
    let* info = b.Driver.pool_define ~name ~target_path ~capacity_b in
    Ok (Rp.enc_pool_info info)
  | Rp.Proc_pool_start ->
    let* b = storage_backend cs in
    let* () = b.Driver.pool_start (Rp.dec_string_body body) in
    Ok Rp.enc_unit_body
  | Rp.Proc_pool_stop ->
    let* b = storage_backend cs in
    let* () = b.Driver.pool_stop (Rp.dec_string_body body) in
    Ok Rp.enc_unit_body
  | Rp.Proc_pool_undefine ->
    let* b = storage_backend cs in
    let* () = b.Driver.pool_undefine (Rp.dec_string_body body) in
    Ok Rp.enc_unit_body
  | Rp.Proc_pool_lookup ->
    let* b = storage_backend cs in
    let* info = b.Driver.pool_lookup (Rp.dec_string_body body) in
    Ok (Rp.enc_pool_info info)
  | Rp.Proc_vol_create ->
    let pool, name, capacity_b, format = Rp.dec_vol_create body in
    let* b = storage_backend cs in
    let* info = b.Driver.vol_create ~pool ~name ~capacity_b ~format in
    Ok (Rp.enc_vol_info info)
  | Rp.Proc_vol_delete ->
    let pool, name = Rp.dec_vol_ref body in
    let* b = storage_backend cs in
    let* () = b.Driver.vol_delete ~pool ~name in
    Ok Rp.enc_unit_body
  | Rp.Proc_vol_list ->
    let* b = storage_backend cs in
    let* infos = b.Driver.vol_list ~pool:(Rp.dec_string_body body) in
    Ok (Rp.enc_vol_info_list infos)
  | Rp.Proc_dom_list_all ->
    let* records = Driver.list_all ops in
    Ok (Rp.enc_domain_record_list records)
  | Rp.Proc_vol_lookup ->
    let* b = storage_backend cs in
    let* info = b.Driver.vol_by_path (Rp.dec_string_body body) in
    Ok (Rp.enc_vol_info info)
  | Rp.Proc_fleet_list_all ->
    let () = Rp.dec_unit_body body in
    let* listing = fleet_listing ops in
    Ok (Rp.enc_fleet_listing listing)
  | Rp.Proc_fleet_status ->
    let () = Rp.dec_unit_body body in
    (match ops.Driver.fleet with
     | Some fv ->
       let* status = fv.Driver.fleet_status () in
       Ok (Rp.enc_fleet_status status)
     | None -> Driver.unsupported ~drv:ops.Driver.drv_name ~op:"fleet status")
  | Rp.Proc_fleet_migrate ->
    let domain, dest = Rp.dec_fleet_migrate body in
    (match ops.Driver.fleet with
     | Some fv ->
       let* () = fv.Driver.fleet_migrate ~domain ~dest in
       Ok Rp.enc_unit_body
     | None -> Driver.unsupported ~drv:ops.Driver.drv_name ~op:"fleet migration")
  | Rp.Proc_fleet_list_since ->
    (* Unconditional: without a reply cache nothing names a listing, so
       the answer is always the full one under the zero token. *)
    let (_ : Rp.fleet_token) = Rp.dec_fleet_token body in
    let* listing = fleet_listing ops in
    Ok (Rp.enc_since_full Rp.no_token listing)

(* The reconciler's application path: a plan op arrives here already
   encoded as a (procedure, body) sub-call and dispatches against bare
   [ops] exactly as it would inside a [Proc_call_batch] frame. *)
let dispatch_ops ops proc body =
  dispatch_conn { ops; uri = ""; cache_ok = false; event_sub = None } proc body

(* ------------------------------------------------------------------ *)
(* Cross-shard batch isolation                                         *)
(* ------------------------------------------------------------------ *)

(* Which domain a mutating sub-call targets, for placement.  [`Read]
   sub-calls carry no isolation constraint; [`Opaque] ones mutate but
   cannot be placed by name (a [define_xml] creates the domain, so its
   owner is only decided by placement inside the fleet layer). *)
let batch_target proc body =
  match proc with
  | Rp.Proc_undefine | Rp.Proc_dom_create | Rp.Proc_dom_suspend
  | Rp.Proc_dom_resume | Rp.Proc_dom_shutdown | Rp.Proc_dom_destroy
  | Rp.Proc_dom_save | Rp.Proc_dom_restore -> (
    match Rp.dec_string_body body with
    | name -> `Domain name
    | exception _ -> `Opaque)
  | Rp.Proc_dom_set_memory -> (
    match Rp.dec_name_and_kib body with
    | name, _ -> `Domain name
    | exception _ -> `Opaque)
  | Rp.Proc_dom_set_autostart -> (
    match Rp.dec_name_and_bool body with
    | name, _ -> `Domain name
    | exception _ -> `Opaque)
  | Rp.Proc_dom_set_policy -> (
    match Rp.dec_set_policy body with
    | name, _ -> `Domain name
    | exception _ -> `Opaque)
  | Rp.Proc_define_xml | Rp.Proc_fleet_migrate -> `Opaque
  | _ -> `Read

(* A fleet connection refuses batches whose mutating sub-calls span more
   than one member: sub-calls execute with per-sub error isolation, so a
   multi-shard batch could half-apply across shards with no rollback.
   Whole-batch refusal keeps the invariant "one batch, one shard, one
   failure domain". *)
let batch_isolation st client subs =
  match
    with_lock st (fun () -> Hashtbl.find_opt st.conns (Client_obj.id client))
  with
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

(* Conn-scoped serving tail with the reply cache in front of the
   handler.  The generation is snapshotted {e before} the handler runs:
   if a write overlaps the fill, the write's bump (made while it still
   holds the write lock) leaves this snapshot stale, so the entry is
   discarded at its next lookup — the fill can never pin post-write data
   under a pre-write stamp, and serving a still-valid pre-write frame
   while a write is in flight is just a read ordered before the write.
   On a hit the pre-framed packet is unwrapped back to its body: batch
   sub-calls and the top-level dispatcher both consume bodies, and the
   top level re-frames with the caller's serial. *)
let serve_conn st (cs : conn_state) (d : Rp.descriptor) body =
  match (if d.Rp.cacheable then conn_cache st cs else None) with
  | None -> dispatch_conn cs d.Rp.proc body
  | Some cache ->
    let pnum = d.Rp.number in
    let gen_of = Option.get cs.ops.Driver.generation in
    let gen = gen_of () in
    (match Reply_cache.find cache ~proc:pnum ~args:body ~gen with
     | Some frame ->
       Ok
         (String.sub frame Rpc_packet.prefix_bytes
            (String.length frame - Rpc_packet.prefix_bytes))
     | None ->
       let result = dispatch_conn cs d.Rp.proc body in
       (match result with
        | Ok reply ->
          Reply_cache.insert cache ~proc:pnum ~args:body ~gen
            (Rpc_packet.encode (cached_reply_header pnum) reply)
        | Error _ -> ());
       result)

let list_all_number = Rp.proc_to_int Rp.Proc_fleet_list_all

(* A conditional listing is answered from the fleet_list_all entry of the
   reply cache, so whether the caller's listing is current is decided
   where every cached reply's validity is: a live entry (generation
   current, not flushed by an event, not evicted) still carrying the
   token's fill number.  [Some reply] when the entry answers, [None]
   when only a fill can.  Shared by the receiving thread and the pool. *)
let since_from_cache st cache ~gen (token : Rp.fleet_token) =
  let fill = if token.Rp.ft_nonce = st.nonce then token.Rp.ft_fill else 0 in
  match
    Reply_cache.find_since cache ~proc:list_all_number ~args:Rp.enc_unit_body
      ~gen ~fill
  with
  | Reply_cache.Unchanged -> Some (Rp.enc_since_unchanged token)
  | Reply_cache.Changed { frame; fill } ->
    let body =
      String.sub frame Rpc_packet.prefix_bytes
        (String.length frame - Rpc_packet.prefix_bytes)
    in
    Some (Rp.enc_since_full_raw { Rp.ft_nonce = st.nonce; ft_fill = fill } body)
  | Reply_cache.Absent -> None

(* The fill mirrors [serve_conn]'s: generation snapshotted before the
   handler, so a write overlapping the fill leaves the entry stale. *)
let serve_since st (cs : conn_state) body =
  let token = Rp.dec_fleet_token body in
  match conn_cache st cs with
  | None -> dispatch_conn cs Rp.Proc_fleet_list_since body
  | Some cache -> (
    let gen = (Option.get cs.ops.Driver.generation) () in
    match since_from_cache st cache ~gen token with
    | Some reply -> Ok reply
    | None ->
      let* listing = dispatch_conn cs Rp.Proc_fleet_list_all Rp.enc_unit_body in
      let fill =
        Reply_cache.insert_numbered cache ~proc:list_all_number
          ~args:Rp.enc_unit_body ~gen
          (Rpc_packet.encode (cached_reply_header list_all_number) listing)
      in
      Ok (Rp.enc_since_full_raw { Rp.ft_nonce = st.nonce; ft_fill = fill } listing))

(* [minor] is the protocol minor this daemon serves: every row is looked
   up with [Rp.descriptor_of_int ~minor], so procedures newer than it are
   rejected with the very error an old build produces for an unknown
   number, which is what clients key version negotiation on.
   [in_batch] guards against nested batch containers. *)
let rec handle_proc st ~minor ~in_batch client (d : Rp.descriptor) body =
  match d.Rp.proc with
  | Rp.Proc_open -> do_open st client body
  | Rp.Proc_close -> do_close st client
  | Rp.Proc_ping ->
    let () = Rp.dec_unit_body body in
    Ok Rp.enc_unit_body
  | Rp.Proc_echo -> Ok body
  | Rp.Proc_proto_minor ->
    let () = Rp.dec_unit_body body in
    Ok (Rp.enc_int_body minor)
  | Rp.Proc_call_batch ->
    if in_batch then
      Verror.error Verror.Rpc_failure "nested batch calls are not allowed"
    else
      (* Sub-calls execute sequentially on the worker already running the
         batch (handing them back to the pool could deadlock a small
         pool) with per-sub-call error isolation mirroring the
         dispatcher's: one failing sub-call yields one error sub-reply
         and its siblings proceed. *)
      let subs = Rp.dec_batch_call body in
      let* () = batch_isolation st client subs in
      let replies =
        List.map
          (fun (proc_num, sub_body) ->
            let result =
              match Rp.descriptor_of_int ~minor proc_num with
              | Error err -> Error err
              | Ok sub -> (
                try handle_proc st ~minor ~in_batch:true client sub sub_body
                with
                | Verror.Virt_error err -> Error err
                | Xdr.Error msg ->
                  Verror.error Verror.Rpc_failure "malformed call body: %s" msg
                | exn ->
                  Verror.error Verror.Internal_error "unhandled exception: %s"
                    (Printexc.to_string exn))
            in
            match result with
            | Ok reply -> (true, reply)
            | Error err -> (false, Rp.enc_error err))
          subs
      in
      Ok (Rp.enc_batch_reply replies)
  | Rp.Proc_call_deadline ->
    if in_batch then
      Verror.error Verror.Rpc_failure
        "deadline envelopes are not allowed inside a batch"
    else
      let budget_ms, proc_num, inner_body = Rp.dec_deadline_call body in
      (match Rp.descriptor_of_int ~minor proc_num with
       | Error err -> Error err
       | Ok { Rp.proc = Rp.Proc_call_deadline; _ } ->
         Verror.error Verror.Rpc_failure "nested deadline envelopes are not allowed"
       | Ok inner ->
         (* The dispatcher normally anchored the deadline at receive time
            and installed it in the request context before queueing; if
            this call arrived by another path (tests, direct handle), do
            the anchoring here so driver ops still see the budget. *)
         let run () =
           let* () = Reqctx.check ~what:"dispatch" () in
           handle_proc st ~minor ~in_batch:false client inner inner_body
         in
         (match Reqctx.deadline () with
          | Some _ -> run ()
          | None ->
            Reqctx.with_deadline
              (Some (Unix.gettimeofday () +. (float_of_int budget_ms /. 1000.)))
              run))
  | Rp.Proc_event_register -> do_event_register st client
  | Rp.Proc_event_deregister -> do_event_deregister st client
  | Rp.Proc_event_resume -> do_event_resume st client body
  | Rp.Proc_event_lifecycle | Rp.Proc_event_lifecycle_seq ->
    Verror.error Verror.Rpc_failure "lifecycle is a server-to-client event"
  | Rp.Proc_dom_set_policy ->
    let name, policy = Rp.dec_set_policy body in
    let* cs = get_conn st client in
    (match st.reconcile with
     | None ->
       Driver.unsupported ~drv:cs.ops.Driver.drv_name ~op:"lifecycle policy"
     | Some r ->
       (* the spec must name a defined domain on this node *)
       let* _ref = cs.ops.Driver.lookup_by_name name in
       Reconcile.set_policy r ~uri:cs.uri ~name policy;
       Ok Rp.enc_unit_body)
  | Rp.Proc_dom_get_policy ->
    let name = Rp.dec_string_body body in
    let* cs = get_conn st client in
    (match st.reconcile with
     | None ->
       Driver.unsupported ~drv:cs.ops.Driver.drv_name ~op:"lifecycle policy"
     | Some r ->
       let* _ref = cs.ops.Driver.lookup_by_name name in
       Ok (Rp.enc_policy (Reconcile.get_policy r ~uri:cs.uri ~name)))
  | Rp.Proc_daemon_reconcile_status ->
    let () = Rp.dec_unit_body body in
    (match st.reconcile with
     | None ->
       Verror.error Verror.Operation_unsupported "this daemon has no reconciler"
     | Some r -> Ok (Rp.enc_reconcile_status (Reconcile.status r)))
  | Rp.Proc_fleet_list_since ->
    let* cs = get_conn st client in
    serve_since st cs body
  | _ ->
    let* cs = get_conn st client in
    serve_conn st cs d body

let handle st ~minor _srv client header body =
  let* d = Rp.descriptor_of_int ~minor header.Rpc_packet.procedure in
  handle_proc st ~minor ~in_batch:false client d body

type t = { st : state; svc_minor : int }

type event_totals = {
  evt_rings : int;
  evt_emitted : int;
  evt_replayed : int;
  evt_gaps : int;
  evt_resumes : int;
  evt_occupancy : int;
  evt_capacity : int;
  evt_subscribers : int;
  evt_head : int;  (** highest stream position across rings *)
}

type cache_totals = {
  rct_caches : int;
  rct_hits : int;
  rct_misses : int;
  rct_insertions : int;
  rct_invalidations : int;
  rct_evictions : int;
  rct_patched_sends : int;
  rct_unchanged : int;
  rct_entries : int;
  rct_bytes : int;
  rct_enabled : bool;
}

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
    }
  in
  { st; svc_minor = minor }

let reply_cache_totals t =
  let caches =
    with_lock t.st (fun () ->
        Hashtbl.fold (fun _ cache acc -> cache :: acc) t.st.caches [])
  in
  List.fold_left
    (fun acc cache ->
      let s = Reply_cache.stats cache in
      {
        acc with
        rct_caches = acc.rct_caches + 1;
        rct_hits = acc.rct_hits + s.Reply_cache.hits;
        rct_misses = acc.rct_misses + s.Reply_cache.misses;
        rct_insertions = acc.rct_insertions + s.Reply_cache.insertions;
        rct_invalidations = acc.rct_invalidations + s.Reply_cache.invalidations;
        rct_evictions = acc.rct_evictions + s.Reply_cache.evictions;
        rct_patched_sends = acc.rct_patched_sends + s.Reply_cache.patched_sends;
        rct_unchanged = acc.rct_unchanged + s.Reply_cache.unchanged;
        rct_entries = acc.rct_entries + s.Reply_cache.entries;
        rct_bytes = acc.rct_bytes + s.Reply_cache.bytes;
      })
    {
      rct_caches = 0;
      rct_hits = 0;
      rct_misses = 0;
      rct_insertions = 0;
      rct_invalidations = 0;
      rct_evictions = 0;
      rct_patched_sends = 0;
      rct_unchanged = 0;
      rct_entries = 0;
      rct_bytes = 0;
      rct_enabled = t.st.cache_enabled;
    }
    caches

let event_totals t =
  let rings =
    with_lock t.st (fun () ->
        Hashtbl.fold (fun _ ring acc -> ring :: acc) t.st.rings [])
  in
  List.fold_left
    (fun acc ring ->
      let s = Eventring.stats ring in
      {
        evt_rings = acc.evt_rings + 1;
        evt_emitted = acc.evt_emitted + s.Eventring.er_emitted;
        evt_replayed = acc.evt_replayed + s.Eventring.er_replayed;
        evt_gaps = acc.evt_gaps + s.Eventring.er_gaps;
        evt_resumes = acc.evt_resumes + s.Eventring.er_resumes;
        evt_occupancy = acc.evt_occupancy + s.Eventring.er_occupancy;
        evt_capacity = acc.evt_capacity + s.Eventring.er_capacity;
        evt_subscribers = acc.evt_subscribers + s.Eventring.er_subscribers;
        evt_head = max acc.evt_head s.Eventring.er_head;
      })
    {
      evt_rings = 0;
      evt_emitted = 0;
      evt_replayed = 0;
      evt_gaps = 0;
      evt_resumes = 0;
      evt_occupancy = 0;
      evt_capacity = 0;
      evt_subscribers = 0;
      evt_head = 0;
    }
    rings

(* A reply answered on the receiving thread.  A served call authenticates
   the client exactly as a dispatched one does. *)
let send_fast srv client frame =
  Client_obj.touch client;
  (try Client_obj.send_packet client frame with _ -> ());
  Server_obj.note_authenticated srv client;
  true

let program_of { st; svc_minor = minor } =
  let deadline = Rp.describe Rp.Proc_call_deadline in
  Dispatch.
    {
      prog_number = Rp.program;
      prog_version = Rp.version;
      high_priority =
        (fun proc ->
          match Rp.descriptor_of_int ~minor proc with
          | Ok d -> d.Rp.high_priority
          | Error _ -> false);
      peek_deadline =
        (fun ~procedure ~body ->
          (* Only peek when this daemon actually serves v1.4 envelopes;
             a minor-pinned daemon must treat procedure 49 as unknown,
             so it must not gain deadline behavior either. *)
          if minor >= deadline.Rp.since && procedure = deadline.Rp.number
          then
            match Rp.dec_deadline_call body with
            | budget_ms, inner, _ ->
              Some
                ( Unix.gettimeofday () +. (float_of_int budget_ms /. 1000.),
                  inner )
            | exception _ -> None
          else None);
      try_fast_reply =
        (if not st.cache_enabled then None
         else
           Some
             (fun srv client header body ->
               (* Answer from the reply cache on the receiving thread: a
                  hit skips pool submission, body decode, the driver
                  read lock, the handler and the re-encode.  A cached
                  frame is replayed with the serial word patched into a
                  fresh copy (senders retain references to transmitted
                  strings, so the cached frame itself is never mutated);
                  a conditional listing the live entry answers is framed
                  here, in 12 bytes when it is unchanged. *)
               match Rp.descriptor_of_int ~minor header.Rpc_packet.procedure with
               | Error _ -> false
               | Ok d -> (
                 (d.Rp.cacheable || d.Rp.proc = Rp.Proc_fleet_list_since)
                 &&
                 match
                   with_lock st (fun () ->
                       Hashtbl.find_opt st.conns (Client_obj.id client))
                 with
                 | None -> false
                 | Some cs -> (
                   match conn_cache st cs with
                   | None -> false
                   | Some cache -> (
                     let gen = (Option.get cs.ops.Driver.generation) () in
                     if d.Rp.cacheable then (
                       match
                         Reply_cache.find cache
                           ~proc:header.Rpc_packet.procedure ~args:body ~gen
                       with
                       | None -> false
                       | Some frame ->
                         Reply_cache.note_patched_send cache;
                         send_fast srv client
                           (Rpc_packet.with_serial frame
                              header.Rpc_packet.serial))
                     else
                       match Rp.dec_fleet_token body with
                       | exception Xdr.Error _ -> false
                       | token -> (
                         match since_from_cache st cache ~gen token with
                         | None -> false
                         | Some reply ->
                           send_fast srv client
                             (Rpc_packet.encode (Rpc_packet.reply_ok header)
                                reply)))))));
      handle = (fun srv client header body -> handle st ~minor srv client header body);
      on_disconnect = (fun client -> teardown_conn st (Client_obj.id client));
    }

let program ?minor ?event_ring_capacity ?reply_cache ?reply_cache_entries
    ?reconcile ~logger () =
  program_of
    (make ?minor ?event_ring_capacity ?reply_cache ?reply_cache_entries
       ?reconcile ~logger ())
