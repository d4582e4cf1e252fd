open Ovirt_core

let program = 0x20008086
let version = 1

type procedure =
  | Proc_open
  | Proc_close
  | Proc_get_capabilities
  | Proc_get_hostname
  | Proc_list_domains
  | Proc_list_defined
  | Proc_lookup_by_name
  | Proc_lookup_by_uuid
  | Proc_define_xml
  | Proc_undefine
  | Proc_dom_create
  | Proc_dom_suspend
  | Proc_dom_resume
  | Proc_dom_shutdown
  | Proc_dom_destroy
  | Proc_dom_get_info
  | Proc_dom_get_xml
  | Proc_dom_set_memory
  | Proc_net_list
  | Proc_net_define
  | Proc_net_start
  | Proc_net_stop
  | Proc_net_undefine
  | Proc_net_set_autostart
  | Proc_net_lookup
  | Proc_pool_list
  | Proc_pool_define
  | Proc_pool_start
  | Proc_pool_stop
  | Proc_pool_undefine
  | Proc_pool_lookup
  | Proc_vol_create
  | Proc_vol_delete
  | Proc_vol_list
  | Proc_event_register
  | Proc_event_deregister
  | Proc_event_lifecycle
  | Proc_echo
  | Proc_ping
  | Proc_dom_save
  | Proc_dom_restore
  | Proc_dom_has_managed_save
  | Proc_dom_set_autostart
  | Proc_dom_get_autostart
  | Proc_proto_minor
  | Proc_dom_list_all
  | Proc_call_batch
  | Proc_vol_lookup
  | Proc_call_deadline
  | Proc_dom_set_policy
  | Proc_dom_get_policy
  | Proc_daemon_reconcile_status
  | Proc_event_resume
  | Proc_event_lifecycle_seq
  | Proc_fleet_list_all
  | Proc_fleet_status
  | Proc_fleet_migrate
  | Proc_fleet_list_since

type descriptor = {
  proc : procedure;
  number : int;
  since : int;
  high_priority : bool;
  idempotent : bool;
  cacheable : bool;
}

(* Every fact is a required argument, so a row cannot leave one out; the
   fields are documented in the interface.  Registration calls are not
   [idem]: they re-run as part of the reconnect handshake instead.
   [cache] was checked driver by driver (e.g. cpu_time only advances
   inside write sections). *)
let row proc ~since ~high ~idem ~cache number =
  { proc; number; since; high_priority = high; idempotent = idem;
    cacheable = cache }

(* Append-only: the row position IS the wire number (1-based). *)
let table =
  Array.mapi
    (fun i row -> row (i + 1))
    [|
      row Proc_open ~since:0 ~high:true ~idem:false ~cache:false;
      row Proc_close ~since:0 ~high:true ~idem:false ~cache:false;
      row Proc_get_capabilities ~since:0 ~high:true ~idem:true ~cache:true;
      row Proc_get_hostname ~since:0 ~high:true ~idem:true ~cache:false;
      row Proc_list_domains ~since:0 ~high:true ~idem:true ~cache:false;
      row Proc_list_defined ~since:0 ~high:true ~idem:true ~cache:false;
      row Proc_lookup_by_name ~since:0 ~high:true ~idem:true ~cache:true;
      row Proc_lookup_by_uuid ~since:0 ~high:true ~idem:true ~cache:true;
      row Proc_define_xml ~since:0 ~high:false ~idem:false ~cache:false;
      row Proc_undefine ~since:0 ~high:false ~idem:false ~cache:false;
      row Proc_dom_create ~since:0 ~high:false ~idem:false ~cache:false;
      row Proc_dom_suspend ~since:0 ~high:false ~idem:false ~cache:false;
      row Proc_dom_resume ~since:0 ~high:false ~idem:false ~cache:false;
      row Proc_dom_shutdown ~since:0 ~high:false ~idem:false ~cache:false;
      row Proc_dom_destroy ~since:0 ~high:false ~idem:false ~cache:false;
      row Proc_dom_get_info ~since:0 ~high:true ~idem:true ~cache:true;
      row Proc_dom_get_xml ~since:0 ~high:true ~idem:true ~cache:true;
      row Proc_dom_set_memory ~since:0 ~high:false ~idem:false ~cache:false;
      row Proc_net_list ~since:0 ~high:false ~idem:true ~cache:false;
      row Proc_net_define ~since:0 ~high:false ~idem:false ~cache:false;
      row Proc_net_start ~since:0 ~high:false ~idem:false ~cache:false;
      row Proc_net_stop ~since:0 ~high:false ~idem:false ~cache:false;
      row Proc_net_undefine ~since:0 ~high:false ~idem:false ~cache:false;
      row Proc_net_set_autostart ~since:0 ~high:false ~idem:false ~cache:false;
      row Proc_net_lookup ~since:0 ~high:false ~idem:true ~cache:false;
      row Proc_pool_list ~since:0 ~high:false ~idem:true ~cache:false;
      row Proc_pool_define ~since:0 ~high:false ~idem:false ~cache:false;
      row Proc_pool_start ~since:0 ~high:false ~idem:false ~cache:false;
      row Proc_pool_stop ~since:0 ~high:false ~idem:false ~cache:false;
      row Proc_pool_undefine ~since:0 ~high:false ~idem:false ~cache:false;
      row Proc_pool_lookup ~since:0 ~high:false ~idem:true ~cache:false;
      row Proc_vol_create ~since:0 ~high:false ~idem:false ~cache:false;
      row Proc_vol_delete ~since:0 ~high:false ~idem:false ~cache:false;
      row Proc_vol_list ~since:0 ~high:false ~idem:true ~cache:false;
      row Proc_event_register ~since:0 ~high:true ~idem:false ~cache:false;
      row Proc_event_deregister ~since:0 ~high:true ~idem:false ~cache:false;
      row Proc_event_lifecycle ~since:0 ~high:false ~idem:false ~cache:false;
      row Proc_echo ~since:0 ~high:true ~idem:true ~cache:false;
      row Proc_ping ~since:0 ~high:true ~idem:true ~cache:false;
      (* v1.1: managed save *)
      row Proc_dom_save ~since:1 ~high:false ~idem:false ~cache:false;
      row Proc_dom_restore ~since:1 ~high:false ~idem:false ~cache:false;
      row Proc_dom_has_managed_save ~since:1 ~high:true ~idem:true ~cache:false;
      (* v1.2: autostart *)
      row Proc_dom_set_autostart ~since:2 ~high:false ~idem:false ~cache:false;
      row Proc_dom_get_autostart ~since:2 ~high:true ~idem:true ~cache:false;
      (* v1.3: negotiation + bulk/batch.  A batch may carry mutations,
         so it is never retried; its sub-calls may be arbitrary and
         vol_lookup walks pools, so neither is high priority. *)
      row Proc_proto_minor ~since:3 ~high:true ~idem:true ~cache:false;
      row Proc_dom_list_all ~since:3 ~high:true ~idem:true ~cache:true;
      row Proc_call_batch ~since:3 ~high:false ~idem:false ~cache:false;
      row Proc_vol_lookup ~since:3 ~high:false ~idem:true ~cache:true;
      (* v1.4: per-call deadline envelope.  Its priority and idempotency
         are those of its inner call, resolved by the dispatcher after
         peeking into the body and by the client per call. *)
      row Proc_call_deadline ~since:4 ~high:false ~idem:false ~cache:false;
      (* v1.5: declarative lifecycle policy / reconciler.  set_policy is a
         journaled last-writer-wins upsert — replaying it is harmless —
         but it stays non-idempotent so retry behaviour matches
         set_autostart, its v1.2 sibling. *)
      row Proc_dom_set_policy ~since:5 ~high:false ~idem:false ~cache:false;
      row Proc_dom_get_policy ~since:5 ~high:true ~idem:true ~cache:false;
      row Proc_daemon_reconcile_status ~since:5 ~high:true ~idem:true ~cache:false;
      (* v1.6: resumable sequence-numbered event streams; resume is part
         of the reconnect handshake, like event_register *)
      row Proc_event_resume ~since:6 ~high:true ~idem:false ~cache:false;
      row Proc_event_lifecycle_seq ~since:6 ~high:false ~idem:false ~cache:false;
      (* v1.7: federation.  A fleet listing scatters to member daemons
         and a migration drives two of them through a multi-step
         handshake (a lost one may have passed its commit point); status
         is answered from controller-local health state.  On a plain
         daemon the listing is its own rows under constant markers, as
         cacheable as dom_list_all; a controller's ops carry no
         generation stamp, so its scattered listing is never cached. *)
      row Proc_fleet_list_all ~since:7 ~high:false ~idem:true ~cache:true;
      row Proc_fleet_status ~since:7 ~high:true ~idem:true ~cache:false;
      row Proc_fleet_migrate ~since:7 ~high:false ~idem:false ~cache:false;
      (* v1.8: conditional listing.  Its reply depends on the caller's
         token, so it is never cached itself; the daemon answers it from
         the fleet_list_all entry of the reply cache. *)
      row Proc_fleet_list_since ~since:8 ~high:false ~idem:true ~cache:false;
    |]

(* Number→row is on the per-packet hot path: an array index.  The reverse
   map doubles as the duplicate check. *)
let by_proc =
  let h = Hashtbl.create (2 * Array.length table) in
  Array.iter
    (fun d ->
      if Hashtbl.mem h d.proc then
        invalid_arg (Printf.sprintf "procedure row %d is a duplicate" d.number);
      Hashtbl.replace h d.proc d)
    table;
  h

let describe proc = Hashtbl.find by_proc proc

let minor = Array.fold_left (fun m d -> max m d.since) 0 table

let descriptor_of_int ~minor n =
  if n >= 1 && n <= Array.length table && table.(n - 1).since <= minor then
    Ok table.(n - 1)
  else Verror.error Verror.Rpc_failure "unknown remote procedure %d" n

let proc_of_int n =
  match descriptor_of_int ~minor n with
  | Ok d -> Ok d.proc
  | Error e -> Error e.Verror.message

let proc_to_int proc = (describe proc).number
let proc_min_minor proc = (describe proc).since
let is_high_priority proc = (describe proc).high_priority
let is_idempotent proc = (describe proc).idempotent
let is_cacheable proc = (describe proc).cacheable

(* ------------------------------------------------------------------ *)
(* Body codecs                                                         *)
(* ------------------------------------------------------------------ *)

let enc_error_into e (err : Verror.t) =
  Xdr.enc_int e (Verror.code_to_int err.Verror.code);
  Xdr.enc_string e err.Verror.message

let enc_error (err : Verror.t) =
  Xdr.encode (fun e () -> enc_error_into e err) ()

let dec_error body =
  Xdr.decode
    (fun d ->
      let code = Verror.code_of_int (Xdr.dec_int d) in
      let message = Xdr.dec_string d in
      Verror.make code message)
    body

(* Sized exactly: a domain XML runs to about 2 KB, and growing an
   encoder to 2 KB by doubling would put a block straight into the major
   heap on every reply. *)
let enc_string_body = Xdr.encode_string
let dec_string_body body = Xdr.decode Xdr.dec_string body
let enc_unit_body = ""

let dec_unit_body body =
  if body <> "" then raise (Xdr.Error "expected empty body")

let enc_bool_body b = Xdr.encode Xdr.enc_bool b
let dec_bool_body body = Xdr.decode Xdr.dec_bool body

let enc_string_list l = Xdr.encode (fun e -> Xdr.enc_array e Xdr.enc_string) l
let dec_string_list body = Xdr.decode (fun d -> Xdr.dec_array d Xdr.dec_string) body

let enc_uuid e uuid = Xdr.enc_fixed_opaque e 36 (Vmm.Uuid.to_string uuid)

let dec_uuid d =
  match Vmm.Uuid.of_string (Xdr.dec_fixed_opaque d 36) with
  | Ok uuid -> uuid
  | Error msg -> raise (Xdr.Error msg)

let enc_domain_ref_into e (r : Driver.domain_ref) =
  Xdr.enc_string e r.Driver.dom_name;
  enc_uuid e r.Driver.dom_uuid;
  Xdr.enc_option e Xdr.enc_int r.Driver.dom_id

let dec_domain_ref_from d =
  let dom_name = Xdr.dec_string d in
  let dom_uuid = dec_uuid d in
  let dom_id = Xdr.dec_option d Xdr.dec_int in
  Driver.{ dom_name; dom_uuid; dom_id }

let enc_domain_ref r = Xdr.encode enc_domain_ref_into r
let dec_domain_ref body = Xdr.decode dec_domain_ref_from body

let enc_domain_ref_list l =
  Xdr.encode (fun e -> Xdr.enc_array e enc_domain_ref_into) l

let dec_domain_ref_list body =
  Xdr.decode (fun d -> Xdr.dec_array d dec_domain_ref_from) body

let enc_domain_info_into e (i : Driver.domain_info) =
  Xdr.enc_int e
    (match i.Driver.di_state with
     | Vmm.Vm_state.Running -> 0
     | Vmm.Vm_state.Blocked -> 1
     | Vmm.Vm_state.Paused -> 2
     | Vmm.Vm_state.Shutdown -> 3
     | Vmm.Vm_state.Shutoff -> 4
     | Vmm.Vm_state.Crashed -> 5);
  Xdr.enc_uint e i.Driver.di_max_mem_kib;
  Xdr.enc_uint e i.Driver.di_memory_kib;
  Xdr.enc_uint e i.Driver.di_vcpus;
  Xdr.enc_hyper e i.Driver.di_cpu_time_ns

let dec_domain_info_from d =
  let di_state =
    match Xdr.dec_int d with
    | 0 -> Vmm.Vm_state.Running
    | 1 -> Vmm.Vm_state.Blocked
    | 2 -> Vmm.Vm_state.Paused
    | 3 -> Vmm.Vm_state.Shutdown
    | 4 -> Vmm.Vm_state.Shutoff
    | 5 -> Vmm.Vm_state.Crashed
    | n -> raise (Xdr.Error (Printf.sprintf "unknown domain state %d" n))
  in
  let di_max_mem_kib = Xdr.dec_uint d in
  let di_memory_kib = Xdr.dec_uint d in
  let di_vcpus = Xdr.dec_uint d in
  let di_cpu_time_ns = Xdr.dec_hyper d in
  Driver.{ di_state; di_max_mem_kib; di_memory_kib; di_vcpus; di_cpu_time_ns }

let enc_domain_info i = Xdr.encode enc_domain_info_into i
let dec_domain_info body = Xdr.decode dec_domain_info_from body

let enc_domain_record_into e (r : Driver.domain_record) =
  enc_domain_ref_into e r.Driver.rec_ref;
  enc_domain_info_into e r.Driver.rec_info;
  Xdr.enc_option e Xdr.enc_bool r.Driver.rec_autostart

let dec_domain_record_from d =
  let rec_ref = dec_domain_ref_from d in
  let rec_info = dec_domain_info_from d in
  let rec_autostart = Xdr.dec_option d Xdr.dec_bool in
  Driver.{ rec_ref; rec_info; rec_autostart }

let enc_domain_record_list l =
  Xdr.encode (fun e -> Xdr.enc_array e enc_domain_record_into) l

let dec_domain_record_list body =
  Xdr.decode (fun d -> Xdr.dec_array d dec_domain_record_from) body

let enc_int_body n = Xdr.encode Xdr.enc_int n
let dec_int_body body = Xdr.decode Xdr.dec_int body

(* Batch container: N (procedure, body) sub-calls in one frame, N
   (ok, body) sub-replies in the other — an error sub-reply's body is an
   {!enc_error}.  Sub-call bodies travel as XDR strings (length-prefixed
   opaques), so the container never inspects them. *)
let enc_batch_call subs =
  Xdr.encode
    (fun e ->
      Xdr.enc_array e (fun e (proc, body) ->
          Xdr.enc_uint e proc;
          Xdr.enc_string e body))
    subs

let dec_batch_call body =
  Xdr.decode
    (fun d ->
      Xdr.dec_array d (fun d ->
          let proc = Xdr.dec_uint d in
          let body = Xdr.dec_string d in
          (proc, body)))
    body

let enc_batch_reply subs =
  Xdr.encode
    (fun e ->
      Xdr.enc_array e (fun e (ok, body) ->
          Xdr.enc_bool e ok;
          Xdr.enc_string e body))
    subs

let dec_batch_reply body =
  Xdr.decode
    (fun d ->
      Xdr.dec_array d (fun d ->
          let ok = Xdr.dec_bool d in
          let body = Xdr.dec_string d in
          (ok, body)))
    body

(* Deadline envelope: [budget_ms (u32)][inner procedure (u32)][inner
   body (opaque)].  The budget is {e relative} — milliseconds left when
   the client sent the frame — so client and daemon clocks never need to
   agree; the daemon anchors the deadline at receive time.  The reply is
   the inner call's reply, so the envelope adds no round trip. *)
let enc_deadline_call ~budget_ms ~proc body =
  Xdr.encode
    (fun e () ->
      Xdr.enc_uint e budget_ms;
      Xdr.enc_uint e proc;
      Xdr.enc_string e body)
    ()

let dec_deadline_call body =
  Xdr.decode
    (fun d ->
      let budget_ms = Xdr.dec_uint d in
      let proc = Xdr.dec_uint d in
      let body = Xdr.dec_string d in
      (budget_ms, proc, body))
    body

let enc_name_and_kib name kib =
  Xdr.encode
    (fun e () ->
      Xdr.enc_string e name;
      Xdr.enc_uint e kib)
    ()

let dec_name_and_kib body =
  Xdr.decode
    (fun d ->
      let name = Xdr.dec_string d in
      let kib = Xdr.dec_uint d in
      (name, kib))
    body

let enc_net_define ~name ~bridge ~ip_range =
  Xdr.encode
    (fun e () ->
      Xdr.enc_string e name;
      Xdr.enc_string e bridge;
      Xdr.enc_string e ip_range)
    ()

let dec_net_define body =
  Xdr.decode
    (fun d ->
      let name = Xdr.dec_string d in
      let bridge = Xdr.dec_string d in
      let ip_range = Xdr.dec_string d in
      (name, bridge, ip_range))
    body

let enc_net_info_into e (i : Net_backend.info) =
  Xdr.enc_string e i.Net_backend.net_name;
  enc_uuid e i.Net_backend.net_uuid;
  Xdr.enc_string e i.Net_backend.bridge;
  Xdr.enc_string e i.Net_backend.ip_range;
  Xdr.enc_bool e i.Net_backend.active;
  Xdr.enc_bool e i.Net_backend.autostart;
  Xdr.enc_uint e i.Net_backend.connected_ifaces

let dec_net_info_from d =
  let net_name = Xdr.dec_string d in
  let net_uuid = dec_uuid d in
  let bridge = Xdr.dec_string d in
  let ip_range = Xdr.dec_string d in
  let active = Xdr.dec_bool d in
  let autostart = Xdr.dec_bool d in
  let connected_ifaces = Xdr.dec_uint d in
  Net_backend.
    { net_name; net_uuid; bridge; ip_range; active; autostart; connected_ifaces }

let enc_net_info i = Xdr.encode enc_net_info_into i
let dec_net_info body = Xdr.decode dec_net_info_from body
let enc_net_info_list l = Xdr.encode (fun e -> Xdr.enc_array e enc_net_info_into) l

let dec_net_info_list body =
  Xdr.decode (fun d -> Xdr.dec_array d dec_net_info_from) body

let enc_name_and_bool name b =
  Xdr.encode
    (fun e () ->
      Xdr.enc_string e name;
      Xdr.enc_bool e b)
    ()

let dec_name_and_bool body =
  Xdr.decode
    (fun d ->
      let name = Xdr.dec_string d in
      let b = Xdr.dec_bool d in
      (name, b))
    body

let enc_pool_define ~name ~target_path ~capacity_b =
  Xdr.encode
    (fun e () ->
      Xdr.enc_string e name;
      Xdr.enc_string e target_path;
      Xdr.enc_hyper e (Int64.of_int capacity_b))
    ()

let dec_pool_define body =
  Xdr.decode
    (fun d ->
      let name = Xdr.dec_string d in
      let target_path = Xdr.dec_string d in
      let capacity_b = Int64.to_int (Xdr.dec_hyper d) in
      (name, target_path, capacity_b))
    body

let enc_pool_info_into e (i : Storage_backend.pool_info) =
  Xdr.enc_string e i.Storage_backend.pool_name;
  enc_uuid e i.Storage_backend.pool_uuid;
  Xdr.enc_string e i.Storage_backend.target_path;
  Xdr.enc_hyper e (Int64.of_int i.Storage_backend.capacity_b);
  Xdr.enc_hyper e (Int64.of_int i.Storage_backend.allocation_b);
  Xdr.enc_bool e i.Storage_backend.pool_active;
  Xdr.enc_uint e i.Storage_backend.volume_count

let dec_pool_info_from d =
  let pool_name = Xdr.dec_string d in
  let pool_uuid = dec_uuid d in
  let target_path = Xdr.dec_string d in
  let capacity_b = Int64.to_int (Xdr.dec_hyper d) in
  let allocation_b = Int64.to_int (Xdr.dec_hyper d) in
  let pool_active = Xdr.dec_bool d in
  let volume_count = Xdr.dec_uint d in
  Storage_backend.
    {
      pool_name;
      pool_uuid;
      target_path;
      capacity_b;
      allocation_b;
      pool_active;
      volume_count;
    }

let enc_pool_info i = Xdr.encode enc_pool_info_into i
let dec_pool_info body = Xdr.decode dec_pool_info_from body
let enc_pool_info_list l = Xdr.encode (fun e -> Xdr.enc_array e enc_pool_info_into) l

let dec_pool_info_list body =
  Xdr.decode (fun d -> Xdr.dec_array d dec_pool_info_from) body

let enc_vol_create ~pool ~name ~capacity_b ~format =
  Xdr.encode
    (fun e () ->
      Xdr.enc_string e pool;
      Xdr.enc_string e name;
      Xdr.enc_hyper e (Int64.of_int capacity_b);
      Xdr.enc_string e format)
    ()

let dec_vol_create body =
  Xdr.decode
    (fun d ->
      let pool = Xdr.dec_string d in
      let name = Xdr.dec_string d in
      let capacity_b = Int64.to_int (Xdr.dec_hyper d) in
      let format = Xdr.dec_string d in
      (pool, name, capacity_b, format))
    body

let enc_vol_ref ~pool ~name =
  Xdr.encode
    (fun e () ->
      Xdr.enc_string e pool;
      Xdr.enc_string e name)
    ()

let dec_vol_ref body =
  Xdr.decode
    (fun d ->
      let pool = Xdr.dec_string d in
      let name = Xdr.dec_string d in
      (pool, name))
    body

let enc_vol_info_into e (i : Storage_backend.vol_info) =
  Xdr.enc_string e i.Storage_backend.vol_name;
  Xdr.enc_string e i.Storage_backend.vol_key;
  Xdr.enc_hyper e (Int64.of_int i.Storage_backend.vol_capacity_b);
  Xdr.enc_string e i.Storage_backend.vol_format

let dec_vol_info_from d =
  let vol_name = Xdr.dec_string d in
  let vol_key = Xdr.dec_string d in
  let vol_capacity_b = Int64.to_int (Xdr.dec_hyper d) in
  let vol_format = Xdr.dec_string d in
  Storage_backend.{ vol_name; vol_key; vol_capacity_b; vol_format }

let enc_vol_info i = Xdr.encode enc_vol_info_into i
let dec_vol_info body = Xdr.decode dec_vol_info_from body
let enc_vol_info_list l = Xdr.encode (fun e -> Xdr.enc_array e enc_vol_info_into) l

let dec_vol_info_list body =
  Xdr.decode (fun d -> Xdr.dec_array d dec_vol_info_from) body

let enc_lifecycle_event (ev : Events.event) =
  Xdr.encode
    (fun e () ->
      Xdr.enc_string e ev.Events.domain_name;
      Xdr.enc_int e (Events.lifecycle_to_int ev.Events.lifecycle))
    ()

let dec_lifecycle_event body =
  Xdr.decode
    (fun d ->
      let domain_name = Xdr.dec_string d in
      match Events.lifecycle_of_int (Xdr.dec_int d) with
      | Ok lifecycle -> Events.{ domain_name; lifecycle; seq = 0 }
      | Error msg -> raise (Xdr.Error msg))
    body

(* ---- v1.5: lifecycle policy and reconciler status ---- *)

let enc_policy_into e (p : Dompolicy.t) =
  let b, s, r = Dompolicy.to_ints p in
  Xdr.enc_uint e b;
  Xdr.enc_uint e s;
  Xdr.enc_uint e r

let dec_policy_from d =
  let b = Xdr.dec_uint d in
  let s = Xdr.dec_uint d in
  let r = Xdr.dec_uint d in
  match Dompolicy.of_ints (b, s, r) with
  | Ok p -> p
  | Error e -> raise (Xdr.Error e.Verror.message)

let enc_policy p = Xdr.encode enc_policy_into p
let dec_policy body = Xdr.decode dec_policy_from body

let enc_set_policy name p =
  Xdr.encode
    (fun e () ->
      Xdr.enc_string e name;
      enc_policy_into e p)
    ()

let dec_set_policy body =
  Xdr.decode
    (fun d ->
      let name = Xdr.dec_string d in
      let p = dec_policy_from d in
      (name, p))
    body

let reconcile_status_to_int = function
  | Reconcile.St_converged -> 0
  | Reconcile.St_pending -> 1
  | Reconcile.St_diverged -> 2

let reconcile_status_of_int = function
  | 0 -> Reconcile.St_converged
  | 1 -> Reconcile.St_pending
  | 2 -> Reconcile.St_diverged
  | n -> raise (Xdr.Error (Printf.sprintf "unknown reconcile status %d" n))

(* Retry countdowns travel as milliseconds (uints); fractional seconds
   are a host-local detail. *)
let enc_reconcile_status ((s : Reconcile.summary), rows) =
  Xdr.encode
    (fun e () ->
      Xdr.enc_uint e s.Reconcile.sum_specs;
      Xdr.enc_uint e s.Reconcile.sum_converged;
      Xdr.enc_uint e s.Reconcile.sum_pending;
      Xdr.enc_uint e s.Reconcile.sum_diverged;
      Xdr.enc_uint e s.Reconcile.sum_plans;
      Xdr.enc_uint e s.Reconcile.sum_ops_applied;
      Xdr.enc_uint e s.Reconcile.sum_ops_skipped;
      Xdr.enc_uint e s.Reconcile.sum_ops_failed;
      Xdr.enc_bool e s.Reconcile.sum_resumed;
      Xdr.enc_array e
        (fun e (r : Reconcile.dom_status) ->
          Xdr.enc_string e r.Reconcile.ds_uri;
          Xdr.enc_string e r.Reconcile.ds_name;
          enc_policy_into e r.Reconcile.ds_policy;
          Xdr.enc_uint e (reconcile_status_to_int r.Reconcile.ds_status);
          Xdr.enc_uint e r.Reconcile.ds_attempts;
          Xdr.enc_uint e
            (int_of_float (Float.round (r.Reconcile.ds_retry_in_s *. 1000.)));
          Xdr.enc_string e r.Reconcile.ds_last_error)
        rows)
    ()

let dec_reconcile_status body =
  Xdr.decode
    (fun d ->
      let sum_specs = Xdr.dec_uint d in
      let sum_converged = Xdr.dec_uint d in
      let sum_pending = Xdr.dec_uint d in
      let sum_diverged = Xdr.dec_uint d in
      let sum_plans = Xdr.dec_uint d in
      let sum_ops_applied = Xdr.dec_uint d in
      let sum_ops_skipped = Xdr.dec_uint d in
      let sum_ops_failed = Xdr.dec_uint d in
      let sum_resumed = Xdr.dec_bool d in
      let rows =
        Xdr.dec_array d (fun d ->
            let ds_uri = Xdr.dec_string d in
            let ds_name = Xdr.dec_string d in
            let ds_policy = dec_policy_from d in
            let ds_status = reconcile_status_of_int (Xdr.dec_uint d) in
            let ds_attempts = Xdr.dec_uint d in
            let ds_retry_in_s = float_of_int (Xdr.dec_uint d) /. 1000. in
            let ds_last_error = Xdr.dec_string d in
            Reconcile.
              {
                ds_uri;
                ds_name;
                ds_policy;
                ds_status;
                ds_attempts;
                ds_retry_in_s;
                ds_last_error;
              })
      in
      ( Reconcile.
          {
            sum_specs;
            sum_converged;
            sum_pending;
            sum_diverged;
            sum_plans;
            sum_ops_applied;
            sum_ops_skipped;
            sum_ops_failed;
            sum_resumed;
          },
        rows ))
    body

(* ---- v1.6: resumable sequence-numbered event streams ---- *)

(* A resume call carries the last stream position the client processed;
   [-1] means "fresh subscription" (arm at the current head, replay
   nothing).  Positions are hypers on the wire: a busy daemon outlives
   2^31 events. *)
let enc_event_resume last_seq =
  Xdr.encode (fun e () -> Xdr.enc_hyper e (Int64.of_int last_seq)) ()

let dec_event_resume body = Xdr.decode (fun d -> Int64.to_int (Xdr.dec_hyper d)) body

type resume_reply = {
  rr_gap : bool;
  rr_head : int;
  rr_oldest : int;
  rr_events : Events.event list;
}

let enc_seq_event_into e (ev : Events.event) =
  Xdr.enc_hyper e (Int64.of_int ev.Events.seq);
  Xdr.enc_string e ev.Events.domain_name;
  Xdr.enc_int e (Events.lifecycle_to_int ev.Events.lifecycle)

let dec_seq_event_from d =
  let seq = Int64.to_int (Xdr.dec_hyper d) in
  let domain_name = Xdr.dec_string d in
  match Events.lifecycle_of_int (Xdr.dec_int d) with
  | Ok lifecycle -> Events.{ domain_name; lifecycle; seq }
  | Error msg -> raise (Xdr.Error msg)

let enc_seq_event (ev : Events.event) = Xdr.encode (fun e -> enc_seq_event_into e) ev
let dec_seq_event body = Xdr.decode dec_seq_event_from body

let enc_resume_reply r =
  Xdr.encode
    (fun e () ->
      Xdr.enc_bool e r.rr_gap;
      Xdr.enc_hyper e (Int64.of_int r.rr_head);
      Xdr.enc_hyper e (Int64.of_int r.rr_oldest);
      Xdr.enc_array e enc_seq_event_into r.rr_events)
    ()

let dec_resume_reply body =
  Xdr.decode
    (fun d ->
      let rr_gap = Xdr.dec_bool d in
      let rr_head = Int64.to_int (Xdr.dec_hyper d) in
      let rr_oldest = Int64.to_int (Xdr.dec_hyper d) in
      let rr_events = Xdr.dec_array d dec_seq_event_from in
      { rr_gap; rr_head; rr_oldest; rr_events })
    body

(* ---- v1.7: federation ---- *)

(* A fleet listing is a bulk listing plus the degradation markers: rows
   from the members that answered, one (member, error) pair per member
   that could not contribute, and the member count so a client can state
   completeness ("47 rows from 7/8 shards"). *)
let enc_fleet_listing_into e (l : Driver.fleet_listing) =
  Xdr.enc_array e enc_domain_record_into l.Driver.fl_records;
  Xdr.enc_array e
    (fun e (se : Driver.shard_error) ->
      Xdr.enc_string e se.Driver.se_member;
      enc_error_into e se.Driver.se_error)
    l.Driver.fl_shard_errors;
  Xdr.enc_uint e l.Driver.fl_members

let enc_fleet_listing l = Xdr.encode enc_fleet_listing_into l

let dec_fleet_listing_from d =
  let fl_records = Xdr.dec_array d dec_domain_record_from in
  let fl_shard_errors =
    Xdr.dec_array d (fun d ->
        let se_member = Xdr.dec_string d in
        let code = Verror.code_of_int (Xdr.dec_int d) in
        let message = Xdr.dec_string d in
        Driver.{ se_member; se_error = Verror.make code message })
  in
  let fl_members = Xdr.dec_uint d in
  Driver.{ fl_records; fl_shard_errors; fl_members }

let dec_fleet_listing body = Xdr.decode dec_fleet_listing_from body

let member_health_to_int = function
  | Driver.Mh_up -> 0
  | Driver.Mh_degraded -> 1
  | Driver.Mh_down -> 2

let member_health_of_int = function
  | 0 -> Driver.Mh_up
  | 1 -> Driver.Mh_degraded
  | 2 -> Driver.Mh_down
  | n -> raise (Xdr.Error (Printf.sprintf "unknown member health %d" n))

(* Domain counts travel as ints, not uints: [-1] = never listed. *)
let enc_fleet_status (s : Driver.fleet_status) =
  Xdr.encode
    (fun e () ->
      Xdr.enc_string e s.Driver.fs_fleet;
      Xdr.enc_array e
        (fun e (m : Driver.member_status) ->
          Xdr.enc_string e m.Driver.ms_name;
          Xdr.enc_uint e (member_health_to_int m.Driver.ms_health);
          Xdr.enc_uint e m.Driver.ms_consec_failures;
          Xdr.enc_uint e m.Driver.ms_probes;
          Xdr.enc_uint e m.Driver.ms_failures;
          Xdr.enc_int e m.Driver.ms_domains)
        s.Driver.fs_members;
      Xdr.enc_uint e s.Driver.fs_migrations_active;
      Xdr.enc_uint e s.Driver.fs_migrations_recovered;
      Xdr.enc_uint e s.Driver.fs_migrations_rolled_back)
    ()

let dec_fleet_status body =
  Xdr.decode
    (fun d ->
      let fs_fleet = Xdr.dec_string d in
      let fs_members =
        Xdr.dec_array d (fun d ->
            let ms_name = Xdr.dec_string d in
            let ms_health = member_health_of_int (Xdr.dec_uint d) in
            let ms_consec_failures = Xdr.dec_uint d in
            let ms_probes = Xdr.dec_uint d in
            let ms_failures = Xdr.dec_uint d in
            let ms_domains = Xdr.dec_int d in
            Driver.
              {
                ms_name;
                ms_health;
                ms_consec_failures;
                ms_probes;
                ms_failures;
                ms_domains;
              })
      in
      let fs_migrations_active = Xdr.dec_uint d in
      let fs_migrations_recovered = Xdr.dec_uint d in
      let fs_migrations_rolled_back = Xdr.dec_uint d in
      Driver.
        {
          fs_fleet;
          fs_members;
          fs_migrations_active;
          fs_migrations_recovered;
          fs_migrations_rolled_back;
        })
    body

let enc_fleet_migrate ~domain ~dest =
  Xdr.encode
    (fun e () ->
      Xdr.enc_string e domain;
      Xdr.enc_string e dest)
    ()

let dec_fleet_migrate body =
  Xdr.decode
    (fun d ->
      let domain = Xdr.dec_string d in
      let dest = Xdr.dec_string d in
      (domain, dest))
    body

(* ---- v1.8: conditional listings ---- *)

(* A token names the reply-cache fill a listing came from: the daemon's
   boot nonce and the fill number of its fleet_list_all entry, each a
   u32 on the wire.  Fill numbers only grow, and a key holds one entry
   whose number is its latest fill, so a token cut to 32 bits can only
   match the entry it was issued for. *)
type fleet_token = { ft_nonce : int; ft_fill : int }

let no_token = { ft_nonce = 0; ft_fill = 0 }

let enc_token_into e t =
  Xdr.enc_uint e (t.ft_nonce land 0xffff_ffff);
  Xdr.enc_uint e (t.ft_fill land 0xffff_ffff)

let dec_token_from d =
  let ft_nonce = Xdr.dec_uint d in
  let ft_fill = Xdr.dec_uint d in
  { ft_nonce; ft_fill }

let enc_fleet_token t = Xdr.encode enc_token_into t
let dec_fleet_token body = Xdr.decode dec_token_from body

type since_reply =
  | Since_unchanged of fleet_token
  | Since_full of fleet_token * Driver.fleet_listing

(* [token][discriminant], then on "full" the v1.7 listing body as is. *)
let since_unchanged = 0
let since_full = 1

let enc_since_unchanged t =
  Xdr.encode
    (fun e () ->
      enc_token_into e t;
      Xdr.enc_uint e since_unchanged)
    ()

let enc_since_full t listing =
  Xdr.encode
    (fun e () ->
      enc_token_into e t;
      Xdr.enc_uint e since_full;
      enc_fleet_listing_into e listing)
    ()

let enc_since_full_raw t listing_body =
  let e = Xdr.encoder ~size:(12 + String.length listing_body) () in
  enc_token_into e t;
  Xdr.enc_uint e since_full;
  Xdr.enc_raw e listing_body;
  Xdr.to_string e

let dec_since_reply body =
  Xdr.decode
    (fun d ->
      let t = dec_token_from d in
      match Xdr.dec_uint d with
      | 0 -> Since_unchanged t
      | 1 -> Since_full (t, dec_fleet_listing_from d)
      | n -> raise (Xdr.Error (Printf.sprintf "unknown listing discriminant %d" n)))
    body
