open Ovirt_core

let program = 0x20008086
let version = 1
let default_daemon = "ovirtd"
let mgmt_address daemon = daemon ^ "-sock"
let admin_address daemon = daemon ^ "-admin-sock"

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

(* ------------------------------------------------------------------ *)
(* Wire types: one codec each                                          *)
(* ------------------------------------------------------------------ *)

let error =
  Xdr.record2
    ( (fun (err : Verror.t) -> err.Verror.code),
      Xdr.conv Verror.code_to_int Verror.code_of_int Xdr.int )
    ((fun (err : Verror.t) -> err.Verror.message), Xdr.string)
    Verror.make

(* An OCaml int carried as a hyper: sizes and stream positions. *)
let hyper_int = Xdr.conv Int64.of_int Int64.to_int Xdr.hyper

let uuid =
  Xdr.conv Vmm.Uuid.to_string
    (fun s ->
      match Vmm.Uuid.of_string s with
      | Ok uuid -> uuid
      | Error msg -> raise (Xdr.Error msg))
    (Xdr.fixed_opaque 36)

let domain_ref =
  Xdr.record3
    ((fun (r : Driver.domain_ref) -> r.Driver.dom_name), Xdr.string)
    ((fun r -> r.Driver.dom_uuid), uuid)
    ((fun r -> r.Driver.dom_id), Xdr.option Xdr.int)
    (fun dom_name dom_uuid dom_id -> Driver.{ dom_name; dom_uuid; dom_id })

let domain_info =
  Xdr.record5
    ( (fun (i : Driver.domain_info) -> i.Driver.di_state),
      Xdr.enum "domain state" Xdr.int
        Vmm.Vm_state.[| Running; Blocked; Paused; Shutdown; Shutoff; Crashed |] )
    ((fun i -> i.Driver.di_max_mem_kib), Xdr.uint)
    ((fun i -> i.Driver.di_memory_kib), Xdr.uint)
    ((fun i -> i.Driver.di_vcpus), Xdr.uint)
    ((fun i -> i.Driver.di_cpu_time_ns), Xdr.hyper)
    (fun di_state di_max_mem_kib di_memory_kib di_vcpus di_cpu_time_ns ->
      Driver.{ di_state; di_max_mem_kib; di_memory_kib; di_vcpus; di_cpu_time_ns })

let domain_record =
  Xdr.record3
    ((fun (r : Driver.domain_record) -> r.Driver.rec_ref), domain_ref)
    ((fun r -> r.Driver.rec_info), domain_info)
    ((fun r -> r.Driver.rec_autostart), Xdr.option Xdr.bool)
    (fun rec_ref rec_info rec_autostart -> Driver.{ rec_ref; rec_info; rec_autostart })

(* Batch container: N (procedure, body) sub-calls in one frame, N
   (ok, body) sub-replies in the other — an error sub-reply's body is an
   {!error}.  Sub-call bodies travel as XDR strings (length-prefixed
   opaques), so the container never inspects them. *)
let batch_call = Xdr.array (Xdr.pair Xdr.uint Xdr.string)
let batch_reply = Xdr.array (Xdr.pair Xdr.bool Xdr.string)

(* Deadline envelope: [budget_ms (u32)][inner procedure (u32)][inner
   body (opaque)].  The budget is {e relative} — milliseconds left when
   the client sent the frame — so client and daemon clocks never need to
   agree; the daemon anchors the deadline at receive time.  The reply is
   the inner call's reply, so the envelope adds no round trip. *)
let deadline_call = Xdr.triple Xdr.uint Xdr.uint Xdr.string

let net_info =
  Xdr.record7
    ((fun (i : Net_backend.info) -> i.Net_backend.net_name), Xdr.string)
    ((fun i -> i.Net_backend.net_uuid), uuid)
    ((fun i -> i.Net_backend.bridge), Xdr.string)
    ((fun i -> i.Net_backend.ip_range), Xdr.string)
    ((fun i -> i.Net_backend.active), Xdr.bool)
    ((fun i -> i.Net_backend.autostart), Xdr.bool)
    ((fun i -> i.Net_backend.connected_ifaces), Xdr.uint)
    (fun net_name net_uuid bridge ip_range active autostart connected_ifaces ->
      Net_backend.
        { net_name; net_uuid; bridge; ip_range; active; autostart; connected_ifaces })

let pool_info =
  Xdr.record7
    ((fun (i : Storage_backend.pool_info) -> i.Storage_backend.pool_name), Xdr.string)
    ((fun i -> i.Storage_backend.pool_uuid), uuid)
    ((fun i -> i.Storage_backend.target_path), Xdr.string)
    ((fun i -> i.Storage_backend.capacity_b), hyper_int)
    ((fun i -> i.Storage_backend.allocation_b), hyper_int)
    ((fun i -> i.Storage_backend.pool_active), Xdr.bool)
    ((fun i -> i.Storage_backend.volume_count), Xdr.uint)
    (fun pool_name pool_uuid target_path capacity_b allocation_b pool_active
         volume_count ->
      Storage_backend.
        {
          pool_name;
          pool_uuid;
          target_path;
          capacity_b;
          allocation_b;
          pool_active;
          volume_count;
        })

let vol_info =
  Xdr.record4
    ((fun (i : Storage_backend.vol_info) -> i.Storage_backend.vol_name), Xdr.string)
    ((fun i -> i.Storage_backend.vol_key), Xdr.string)
    ((fun i -> i.Storage_backend.vol_capacity_b), hyper_int)
    ((fun i -> i.Storage_backend.vol_format), Xdr.string)
    (fun vol_name vol_key vol_capacity_b vol_format ->
      Storage_backend.{ vol_name; vol_key; vol_capacity_b; vol_format })

let lifecycle =
  Xdr.conv Events.lifecycle_to_int
    (fun n ->
      match Events.lifecycle_of_int n with
      | Ok lifecycle -> lifecycle
      | Error msg -> raise (Xdr.Error msg))
    Xdr.int

(* A plain lifecycle push carries no stream position: it decodes at 0. *)
let lifecycle_event =
  Xdr.record2
    ((fun (ev : Events.event) -> ev.Events.domain_name), Xdr.string)
    ((fun ev -> ev.Events.lifecycle), lifecycle)
    (fun domain_name lifecycle -> Events.{ domain_name; lifecycle; seq = 0 })

(* ---- v1.5: lifecycle policy and reconciler status ---- *)

(* Retry countdowns travel as milliseconds (uints); fractional seconds
   are a host-local detail. *)
let dom_status =
  Xdr.record7
    ((fun (r : Reconcile.dom_status) -> r.Reconcile.ds_uri), Xdr.string)
    ((fun r -> r.Reconcile.ds_name), Xdr.string)
    ((fun r -> r.Reconcile.ds_policy), Reconcile.policy)
    ( (fun r -> r.Reconcile.ds_status),
      Xdr.enum "reconcile status" Xdr.uint
        Reconcile.[| St_converged; St_pending; St_diverged |] )
    ((fun r -> r.Reconcile.ds_attempts), Xdr.uint)
    ( (fun r -> r.Reconcile.ds_retry_in_s),
      Xdr.conv
        (fun s -> int_of_float (Float.round (s *. 1000.)))
        (fun ms -> float_of_int ms /. 1000.)
        Xdr.uint )
    ((fun r -> r.Reconcile.ds_last_error), Xdr.string)
    (fun ds_uri ds_name ds_policy ds_status ds_attempts ds_retry_in_s
         ds_last_error ->
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

let reconcile_summary =
  Xdr.record9
    ((fun (s : Reconcile.summary) -> s.Reconcile.sum_specs), Xdr.uint)
    ((fun s -> s.Reconcile.sum_converged), Xdr.uint)
    ((fun s -> s.Reconcile.sum_pending), Xdr.uint)
    ((fun s -> s.Reconcile.sum_diverged), Xdr.uint)
    ((fun s -> s.Reconcile.sum_plans), Xdr.uint)
    ((fun s -> s.Reconcile.sum_ops_applied), Xdr.uint)
    ((fun s -> s.Reconcile.sum_ops_skipped), Xdr.uint)
    ((fun s -> s.Reconcile.sum_ops_failed), Xdr.uint)
    ((fun s -> s.Reconcile.sum_resumed), Xdr.bool)
    (fun sum_specs sum_converged sum_pending sum_diverged sum_plans
         sum_ops_applied sum_ops_skipped sum_ops_failed sum_resumed ->
      Reconcile.
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
        })

let reconcile_status = Xdr.pair reconcile_summary (Xdr.array dom_status)

(* ---- v1.6: resumable sequence-numbered event streams ---- *)

type resume_reply = {
  rr_gap : bool;
  rr_head : int;
  rr_oldest : int;
  rr_events : Events.event list;
}

(* Positions are hypers on the wire: a busy daemon outlives 2^31
   events. *)
let seq_event =
  Xdr.record3
    ((fun (ev : Events.event) -> ev.Events.seq), hyper_int)
    ((fun ev -> ev.Events.domain_name), Xdr.string)
    ((fun ev -> ev.Events.lifecycle), lifecycle)
    (fun seq domain_name lifecycle -> Events.{ domain_name; lifecycle; seq })

let resume_reply =
  Xdr.record4
    ((fun r -> r.rr_gap), Xdr.bool)
    ((fun r -> r.rr_head), hyper_int)
    ((fun r -> r.rr_oldest), hyper_int)
    ((fun r -> r.rr_events), Xdr.array seq_event)
    (fun rr_gap rr_head rr_oldest rr_events -> { rr_gap; rr_head; rr_oldest; rr_events })

(* ---- v1.7: federation ---- *)

(* A fleet listing is a bulk listing plus the degradation markers: rows
   from the members that answered, one (member, error) pair per member
   that could not contribute, and the member count so a client can state
   completeness ("47 rows from 7/8 shards"). *)
let fleet_listing =
  Xdr.record3
    ((fun (l : Driver.fleet_listing) -> l.Driver.fl_records), Xdr.array domain_record)
    ( (fun l -> l.Driver.fl_shard_errors),
      Xdr.array
        (Xdr.record2
           ((fun (se : Driver.shard_error) -> se.Driver.se_member), Xdr.string)
           ((fun se -> se.Driver.se_error), error)
           (fun se_member se_error -> Driver.{ se_member; se_error })) )
    ((fun l -> l.Driver.fl_members), Xdr.uint)
    (fun fl_records fl_shard_errors fl_members ->
      Driver.{ fl_records; fl_shard_errors; fl_members })

(* Domain counts travel as ints, not uints: [-1] = never listed. *)
let member_status =
  Xdr.record6
    ((fun (m : Driver.member_status) -> m.Driver.ms_name), Xdr.string)
    ( (fun m -> m.Driver.ms_health),
      Xdr.enum "member health" Xdr.uint Driver.[| Mh_up; Mh_degraded; Mh_down |] )
    ((fun m -> m.Driver.ms_consec_failures), Xdr.uint)
    ((fun m -> m.Driver.ms_probes), Xdr.uint)
    ((fun m -> m.Driver.ms_failures), Xdr.uint)
    ((fun m -> m.Driver.ms_domains), Xdr.int)
    (fun ms_name ms_health ms_consec_failures ms_probes ms_failures ms_domains ->
      Driver.
        { ms_name; ms_health; ms_consec_failures; ms_probes; ms_failures; ms_domains })

let fleet_health =
  Xdr.record5
    ((fun (s : Driver.fleet_status) -> s.Driver.fs_fleet), Xdr.string)
    ((fun s -> s.Driver.fs_members), Xdr.array member_status)
    ((fun s -> s.Driver.fs_migrations_active), Xdr.uint)
    ((fun s -> s.Driver.fs_migrations_recovered), Xdr.uint)
    ((fun s -> s.Driver.fs_migrations_rolled_back), Xdr.uint)
    (fun fs_fleet fs_members fs_migrations_active fs_migrations_recovered
         fs_migrations_rolled_back ->
      Driver.
        {
          fs_fleet;
          fs_members;
          fs_migrations_active;
          fs_migrations_recovered;
          fs_migrations_rolled_back;
        })

(* ---- v1.8: conditional listings ---- *)

(* A token names the reply-cache fill a listing came from: the daemon's
   boot nonce and the fill number of its fleet_list_all entry, each a
   u32 on the wire.  Fill numbers only grow, and a key holds one entry
   whose number is its latest fill, so a token cut to 32 bits can only
   match the entry it was issued for. *)
type fleet_token = { ft_nonce : int; ft_fill : int }

let no_token = { ft_nonce = 0; ft_fill = 0 }
let u32 = Xdr.conv (fun n -> n land 0xffff_ffff) Fun.id Xdr.uint

let fleet_token =
  Xdr.record2
    ((fun t -> t.ft_nonce), u32)
    ((fun t -> t.ft_fill), u32)
    (fun ft_nonce ft_fill -> { ft_nonce; ft_fill })

type since_reply =
  | Since_unchanged of fleet_token
  | Since_full of fleet_token * Driver.fleet_listing

(* [token][discriminant], then on "full" the v1.7 listing body as is. *)
let since_tag = Xdr.enum "listing discriminant" Xdr.uint [| `Unchanged; `Full |]

let since_reply =
  Xdr.codec
    (fun e -> function
      | Since_unchanged t ->
        Xdr.write fleet_token e t;
        Xdr.write since_tag e `Unchanged
      | Since_full (t, listing) ->
        Xdr.write fleet_token e t;
        Xdr.write since_tag e `Full;
        Xdr.write fleet_listing e listing)
    (fun d ->
      let t = Xdr.read fleet_token d in
      match Xdr.read since_tag d with
      | `Unchanged -> Since_unchanged t
      | `Full -> Since_full (t, Xdr.read fleet_listing d))

let enc_since_full_raw t listing_body =
  let e = Xdr.encoder ~size:(12 + String.length listing_body) () in
  Xdr.write fleet_token e t;
  Xdr.write since_tag e `Full;
  Xdr.enc_raw e listing_body;
  Xdr.to_string e

(* ------------------------------------------------------------------ *)
(* Procedure table                                                     *)
(* ------------------------------------------------------------------ *)

type serve_path = Cached_listing | Inline | Pooled

type descriptor = {
  proc : procedure;
  number : int;
  since : int;
  high_priority : bool;
  idempotent : bool;
  path : serve_path;
}

type ('a, 'r) signature = {
  sg_proc : procedure;
  sg_args : 'a Xdr.codec;
  sg_ret : 'r Xdr.codec;
}

(* Rows in definition order, newest first, until [table] is built. *)
let rows = ref []

(* Every fact is a required argument, so a row cannot leave one out; the
   fields are documented in the interface.  Registration calls are not
   [idem]: they re-run as part of the reconnect handshake instead.
   Append-only: the row's position IS its wire number (1-based). *)
let row proc ~since ~high ~idem ~path args ret =
  rows :=
    { proc; number = List.length !rows + 1; since; high_priority = high;
      idempotent = idem; path }
    :: !rows;
  { sg_proc = proc; sg_args = args; sg_ret = ret }

let name_and_bool = Xdr.pair Xdr.string Xdr.bool

let open_ = row Proc_open ~since:0 ~high:true ~idem:false ~path:Pooled Xdr.string Xdr.unit
let close = row Proc_close ~since:0 ~high:true ~idem:false ~path:Pooled Xdr.unit Xdr.unit

let get_capabilities =
  row Proc_get_capabilities ~since:0 ~high:true ~idem:true ~path:Inline Xdr.unit Xdr.string

let get_hostname =
  row Proc_get_hostname ~since:0 ~high:true ~idem:true ~path:Pooled Xdr.unit Xdr.string

let list_domains =
  row Proc_list_domains ~since:0 ~high:true ~idem:true ~path:Pooled Xdr.unit
    (Xdr.array domain_ref)

let list_defined =
  row Proc_list_defined ~since:0 ~high:true ~idem:true ~path:Pooled Xdr.unit
    (Xdr.array Xdr.string)

let lookup_by_name =
  row Proc_lookup_by_name ~since:0 ~high:true ~idem:true ~path:Inline Xdr.string domain_ref

(* The UUID travels as its string: a malformed one is the handler's
   [Invalid_arg], not a malformed body. *)
let lookup_by_uuid =
  row Proc_lookup_by_uuid ~since:0 ~high:true ~idem:true ~path:Inline Xdr.string domain_ref

let define_xml =
  row Proc_define_xml ~since:0 ~high:false ~idem:false ~path:Inline Xdr.string domain_ref

(* A v1.0 mutation of the object its argument names.  A domain's waits
   (its node lock, simulated hypervisor time) all come before its first
   effect, so it may run inline (DESIGN §3.8 has the audit); network and
   pool mutations, which that audit does not cover, stay pool jobs. *)
let name_row ~path proc = row proc ~since:0 ~high:false ~idem:false ~path Xdr.string Xdr.unit
let undefine = name_row ~path:Inline Proc_undefine
let dom_create = name_row ~path:Inline Proc_dom_create
let dom_suspend = name_row ~path:Inline Proc_dom_suspend
let dom_resume = name_row ~path:Inline Proc_dom_resume
let dom_shutdown = name_row ~path:Inline Proc_dom_shutdown
let dom_destroy = name_row ~path:Inline Proc_dom_destroy

let dom_get_info =
  row Proc_dom_get_info ~since:0 ~high:true ~idem:true ~path:Inline Xdr.string domain_info

let dom_get_xml =
  row Proc_dom_get_xml ~since:0 ~high:true ~idem:true ~path:Inline Xdr.string Xdr.string

let dom_set_memory =
  row Proc_dom_set_memory ~since:0 ~high:false ~idem:false ~path:Inline
    (Xdr.pair Xdr.string Xdr.uint) Xdr.unit

let net_list =
  row Proc_net_list ~since:0 ~high:false ~idem:true ~path:Pooled Xdr.unit (Xdr.array net_info)

let net_define =
  row Proc_net_define ~since:0 ~high:false ~idem:false ~path:Pooled
    (Xdr.triple Xdr.string Xdr.string Xdr.string) net_info

let net_start = name_row ~path:Pooled Proc_net_start
let net_stop = name_row ~path:Pooled Proc_net_stop
let net_undefine = name_row ~path:Pooled Proc_net_undefine

let net_set_autostart =
  row Proc_net_set_autostart ~since:0 ~high:false ~idem:false ~path:Pooled name_and_bool
    Xdr.unit

let net_lookup =
  row Proc_net_lookup ~since:0 ~high:false ~idem:true ~path:Pooled Xdr.string net_info

let pool_list =
  row Proc_pool_list ~since:0 ~high:false ~idem:true ~path:Pooled Xdr.unit
    (Xdr.array pool_info)

let pool_define =
  row Proc_pool_define ~since:0 ~high:false ~idem:false ~path:Pooled
    (Xdr.triple Xdr.string Xdr.string hyper_int) pool_info

let pool_start = name_row ~path:Pooled Proc_pool_start
let pool_stop = name_row ~path:Pooled Proc_pool_stop
let pool_undefine = name_row ~path:Pooled Proc_pool_undefine

let pool_lookup =
  row Proc_pool_lookup ~since:0 ~high:false ~idem:true ~path:Pooled Xdr.string pool_info

let vol_create =
  row Proc_vol_create ~since:0 ~high:false ~idem:false ~path:Pooled
    (Xdr.record4
       ((fun (p, _, _, _) -> p), Xdr.string)
       ((fun (_, n, _, _) -> n), Xdr.string)
       ((fun (_, _, c, _) -> c), hyper_int)
       ((fun (_, _, _, f) -> f), Xdr.string)
       (fun p n c f -> (p, n, c, f)))
    vol_info

let vol_delete =
  row Proc_vol_delete ~since:0 ~high:false ~idem:false ~path:Pooled
    (Xdr.pair Xdr.string Xdr.string) Xdr.unit

let vol_list =
  row Proc_vol_list ~since:0 ~high:false ~idem:true ~path:Pooled Xdr.string
    (Xdr.array vol_info)

let event_register =
  row Proc_event_register ~since:0 ~high:true ~idem:false ~path:Pooled Xdr.unit Xdr.unit

let event_deregister =
  row Proc_event_deregister ~since:0 ~high:true ~idem:false ~path:Pooled Xdr.unit Xdr.unit

(* Server → client: the push's body is [args]; nothing replies. *)
let event_lifecycle =
  row Proc_event_lifecycle ~since:0 ~high:false ~idem:false ~path:Pooled lifecycle_event
    Xdr.unit

let echo = row Proc_echo ~since:0 ~high:true ~idem:true ~path:Pooled Xdr.raw Xdr.raw
let ping = row Proc_ping ~since:0 ~high:true ~idem:true ~path:Pooled Xdr.unit Xdr.unit

(* v1.1: managed save *)
let dom_save =
  row Proc_dom_save ~since:1 ~high:false ~idem:false ~path:Pooled Xdr.string Xdr.unit

let dom_restore =
  row Proc_dom_restore ~since:1 ~high:false ~idem:false ~path:Pooled Xdr.string Xdr.unit

let dom_has_managed_save =
  row Proc_dom_has_managed_save ~since:1 ~high:true ~idem:true ~path:Inline Xdr.string Xdr.bool

(* v1.2: autostart *)
let dom_set_autostart =
  row Proc_dom_set_autostart ~since:2 ~high:false ~idem:false ~path:Inline name_and_bool
    Xdr.unit

let dom_get_autostart =
  row Proc_dom_get_autostart ~since:2 ~high:true ~idem:true ~path:Inline Xdr.string Xdr.bool

(* v1.3: negotiation + bulk/batch.  A batch may carry mutations, so it is
   never retried; its sub-calls may be arbitrary and vol_lookup walks
   pools, so neither is high priority. *)
let proto_minor =
  row Proc_proto_minor ~since:3 ~high:true ~idem:true ~path:Pooled Xdr.unit Xdr.int

let dom_list_all =
  row Proc_dom_list_all ~since:3 ~high:true ~idem:true ~path:Cached_listing Xdr.unit
    (Xdr.array domain_record)

let call_batch =
  row Proc_call_batch ~since:3 ~high:false ~idem:false ~path:Pooled batch_call batch_reply

let vol_lookup =
  row Proc_vol_lookup ~since:3 ~high:false ~idem:true ~path:Inline Xdr.string vol_info

(* v1.4: per-call deadline envelope.  Its priority and idempotency are
   those of its inner call, resolved by the dispatcher after peeking into
   the body and by the client per call. *)
let call_deadline =
  row Proc_call_deadline ~since:4 ~high:false ~idem:false ~path:Pooled deadline_call Xdr.raw

(* v1.5: declarative lifecycle policy / reconciler.  set_policy is a
   journaled last-writer-wins upsert — replaying it is harmless — but it
   stays non-idempotent so retry behaviour matches set_autostart, its
   v1.2 sibling. *)
let dom_set_policy =
  row Proc_dom_set_policy ~since:5 ~high:false ~idem:false ~path:Pooled
    (Xdr.pair Xdr.string Reconcile.policy) Xdr.unit

let dom_get_policy =
  row Proc_dom_get_policy ~since:5 ~high:true ~idem:true ~path:Pooled Xdr.string Reconcile.policy

let daemon_reconcile_status =
  row Proc_daemon_reconcile_status ~since:5 ~high:true ~idem:true ~path:Pooled Xdr.unit
    reconcile_status

(* v1.6: resumable sequence-numbered event streams; resume is part of
   the reconnect handshake, like event_register.  Its argument is the
   last stream position the client processed, [-1] for a fresh
   subscription. *)
let event_resume =
  row Proc_event_resume ~since:6 ~high:true ~idem:false ~path:Pooled hyper_int resume_reply

let event_lifecycle_seq =
  row Proc_event_lifecycle_seq ~since:6 ~high:false ~idem:false ~path:Pooled seq_event Xdr.unit

(* v1.7: federation.  A fleet listing scatters to member daemons and a
   migration drives two of them through a multi-step handshake (a lost
   one may have passed its commit point); status is answered from
   controller-local health state.  On a plain daemon the listing is its
   own rows under constant markers, cached like dom_list_all; a
   controller's ops carry no generation stamp, so its scattered listing
   is never cached. *)
let fleet_list_all =
  row Proc_fleet_list_all ~since:7 ~high:false ~idem:true ~path:Cached_listing Xdr.unit
    fleet_listing

let fleet_status =
  row Proc_fleet_status ~since:7 ~high:true ~idem:true ~path:Pooled Xdr.unit fleet_health

let fleet_migrate =
  row Proc_fleet_migrate ~since:7 ~high:false ~idem:false ~path:Pooled
    (Xdr.pair Xdr.string Xdr.string) Xdr.unit

(* v1.8: conditional listing.  Its reply depends on the caller's token,
   so it is never cached itself; the daemon answers it from the
   fleet_list_all entry of the reply cache. *)
let fleet_list_since =
  row Proc_fleet_list_since ~since:8 ~high:false ~idem:true ~path:Cached_listing fleet_token
    since_reply

let table = Array.of_list (List.rev !rows)

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
let serve_path proc = (describe proc).path

(* The bodies the repository benchmark encodes and decodes directly. *)
let enc_string_body = Xdr.encode Xdr.string
let dec_string_body = Xdr.decode Xdr.string
let enc_domain_info = Xdr.encode domain_info
let dec_domain_info = Xdr.decode domain_info
let enc_domain_record_list = Xdr.encode dom_list_all.sg_ret
let dec_domain_record_list = Xdr.decode dom_list_all.sg_ret
let enc_name_and_bool name b = Xdr.encode name_and_bool (name, b)
