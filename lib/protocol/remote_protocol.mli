(** The remote program: procedure numbers and body codecs shared by the
    remote driver (client) and the daemon (server).

    Wire stability rules as in libvirt: procedure numbers are append-only;
    bodies are XDR; every reply with [Status_error] carries a serialized
    {!Ovirt_core.Verror.t}. *)

val program : int
val version : int

val minor : int
(** Highest protocol minor this build speaks: the largest [since] in the
    procedure table.  The wire [version] never changes; the minor gates
    which procedures a daemon serves and is negotiated per connection
    with [Proc_proto_minor] (an older daemon answers it with "unknown
    remote procedure", and the remote driver refuses it). *)

type procedure =
  | Proc_open  (** args: URI string; ret: none *)
  | Proc_close
  | Proc_get_capabilities  (** ret: capabilities XML *)
  | Proc_get_hostname
  | Proc_list_domains  (** ret: domain_ref array *)
  | Proc_list_defined  (** ret: string array *)
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
  | Proc_event_lifecycle  (** server → client event *)
  | Proc_echo  (** benchmark aid: body echoed back verbatim *)
  | Proc_ping
  | Proc_dom_save  (** appended in protocol v1.1: managed save *)
  | Proc_dom_restore
  | Proc_dom_has_managed_save
  | Proc_dom_set_autostart  (** appended in protocol v1.2: autostart *)
  | Proc_dom_get_autostart
  | Proc_proto_minor  (** appended in v1.3: ret: server's minor (int) *)
  | Proc_dom_list_all  (** ret: domain_record array, one-lock snapshot *)
  | Proc_call_batch  (** args: (proc, body) array; ret: (ok, body) array *)
  | Proc_vol_lookup  (** args: volume path; ret: vol_info *)
  | Proc_call_deadline
      (** appended in v1.4: deadline envelope — args:
          [(budget_ms, inner proc, inner body)]; ret: the inner reply *)
  | Proc_dom_set_policy
      (** appended in v1.5: args: (name, policy); ret: none — declares
          the domain's lifecycle policy to the daemon-side reconciler *)
  | Proc_dom_get_policy  (** args: name; ret: policy *)
  | Proc_daemon_reconcile_status
      (** ret: reconciler summary + per-domain rows *)
  | Proc_event_resume
      (** appended in v1.6: args: last processed stream position (hyper,
          [-1] = fresh subscription); ret: {!resume_reply}.  Atomically
          arms a sequence-numbered event subscription and replays every
          retained event newer than the given position — or reports a
          gap when the daemon's ring has wrapped past it. *)
  | Proc_event_lifecycle_seq
      (** server → client event tagged with its stream position *)
  | Proc_fleet_list_all
      (** appended in v1.7: ret: {!Ovirt_core.Driver.fleet_listing} — a
          bulk listing annotated with per-shard errors.  A plain daemon
          answers with its own rows and [fl_members = 1]; a fleet
          controller scatter-gathers its members. *)
  | Proc_fleet_status
      (** ret: {!Ovirt_core.Driver.fleet_status} — member health as seen
          by the controller's prober.  [Operation_unsupported] on a
          non-fleet connection. *)
  | Proc_fleet_migrate
      (** args: (domain, destination member); ret: none — journaled
          two-phase cross-daemon migration through the controller *)
  | Proc_fleet_list_since
      (** appended in v1.8: args: {!fleet_token}; ret: {!since_reply} — a
          conditional [Proc_fleet_list_all]: a daemon whose listing still
          carries the caller's token answers "unchanged" in 12 bytes *)

val enc_bool_body : bool -> string
val dec_bool_body : string -> bool

(** {1 Procedure table}

    One row per procedure, in wire order: adding a procedure means adding
    one row, and every per-procedure fact below is read from it. *)

type descriptor = private {
  proc : procedure;
  number : int;  (** wire number: the row's 1-based position *)
  since : int;  (** protocol minor the procedure first appeared in *)
  high_priority : bool;
      (** finishes without talking to a hypervisor, so priority workers
          may run it *)
  idempotent : bool;
      (** safe to re-issue after a connection death: the read-only set,
          never a mutating call, which may have been applied *)
  cacheable : bool;  (** the daemon's reply cache may serve it *)
}

val describe : procedure -> descriptor

val descriptor_of_int :
  minor:int -> int -> (descriptor, Ovirt_core.Verror.t) result
(** The row a build of protocol [minor] has for a wire number, else the
    [Rpc_failure] "unknown remote procedure N" that build replies. *)

val proc_to_int : procedure -> int
val proc_of_int : int -> (procedure, string) result
val proc_min_minor : procedure -> int
val is_high_priority : procedure -> bool
val is_idempotent : procedure -> bool
val is_cacheable : procedure -> bool

(** {1 Body codecs} *)

val enc_error : Ovirt_core.Verror.t -> string

val dec_error : string -> Ovirt_core.Verror.t
(** @raise Xdr.Error on corruption. *)

val enc_string_body : string -> string
val dec_string_body : string -> string
val enc_unit_body : string
val dec_unit_body : string -> unit

val enc_string_list : string list -> string
val dec_string_list : string -> string list

val enc_domain_ref : Ovirt_core.Driver.domain_ref -> string
val dec_domain_ref : string -> Ovirt_core.Driver.domain_ref
val enc_domain_ref_list : Ovirt_core.Driver.domain_ref list -> string
val dec_domain_ref_list : string -> Ovirt_core.Driver.domain_ref list

val enc_domain_info : Ovirt_core.Driver.domain_info -> string
val dec_domain_info : string -> Ovirt_core.Driver.domain_info

val enc_domain_record_list : Ovirt_core.Driver.domain_record list -> string
val dec_domain_record_list : string -> Ovirt_core.Driver.domain_record list

val enc_int_body : int -> string
val dec_int_body : string -> int

val enc_batch_call : (int * string) list -> string
val dec_batch_call : string -> (int * string) list
(** Sub-calls as (wire procedure number, encoded args body). *)

val enc_batch_reply : (bool * string) list -> string
val dec_batch_reply : string -> (bool * string) list
(** Sub-replies as (ok, body); a [false] body is an {!enc_error}. *)

val enc_deadline_call : budget_ms:int -> proc:int -> string -> string
val dec_deadline_call : string -> int * int * string
(** Deadline envelope (v1.4): the {e relative} budget in milliseconds
    plus the wrapped (procedure, body).  Relative so client and daemon
    clocks need not agree; the daemon anchors the absolute deadline at
    receive time.  @raise Xdr.Error on corruption. *)

val enc_name_and_kib : string -> int -> string
val dec_name_and_kib : string -> string * int

val enc_net_define : name:string -> bridge:string -> ip_range:string -> string
val dec_net_define : string -> string * string * string

val enc_net_info : Ovirt_core.Net_backend.info -> string
val dec_net_info : string -> Ovirt_core.Net_backend.info
val enc_net_info_list : Ovirt_core.Net_backend.info list -> string
val dec_net_info_list : string -> Ovirt_core.Net_backend.info list

val enc_name_and_bool : string -> bool -> string
val dec_name_and_bool : string -> string * bool

val enc_pool_define : name:string -> target_path:string -> capacity_b:int -> string
val dec_pool_define : string -> string * string * int

val enc_pool_info : Ovirt_core.Storage_backend.pool_info -> string
val dec_pool_info : string -> Ovirt_core.Storage_backend.pool_info
val enc_pool_info_list : Ovirt_core.Storage_backend.pool_info list -> string
val dec_pool_info_list : string -> Ovirt_core.Storage_backend.pool_info list

val enc_vol_create :
  pool:string -> name:string -> capacity_b:int -> format:string -> string
val dec_vol_create : string -> string * string * int * string

val enc_vol_ref : pool:string -> name:string -> string
val dec_vol_ref : string -> string * string

val enc_vol_info : Ovirt_core.Storage_backend.vol_info -> string
val dec_vol_info : string -> Ovirt_core.Storage_backend.vol_info
val enc_vol_info_list : Ovirt_core.Storage_backend.vol_info list -> string
val dec_vol_info_list : string -> Ovirt_core.Storage_backend.vol_info list

val enc_lifecycle_event : Ovirt_core.Events.event -> string
val dec_lifecycle_event : string -> Ovirt_core.Events.event

(** {1 v1.5: lifecycle policy / reconciler status} *)

val enc_policy : Ovirt_core.Dompolicy.t -> string
val dec_policy : string -> Ovirt_core.Dompolicy.t

val enc_set_policy : string -> Ovirt_core.Dompolicy.t -> string
val dec_set_policy : string -> string * Ovirt_core.Dompolicy.t

val enc_reconcile_status : Reconcile.summary * Reconcile.dom_status list -> string
val dec_reconcile_status : string -> Reconcile.summary * Reconcile.dom_status list
(** Per-row retry countdowns are rounded to milliseconds on the wire. *)

(** {1 v1.6: resumable sequence-numbered event streams} *)

val enc_event_resume : int -> string
val dec_event_resume : string -> int
(** Last stream position the client processed; [-1] = fresh subscription
    (arm at the current head, replay nothing). *)

type resume_reply = {
  rr_gap : bool;
      (** the ring wrapped past the client's position (or the position is
          from a different daemon incarnation): the replay is incomplete
          and the client must flush cached state and resync *)
  rr_head : int;  (** newest seq assigned at the subscription snapshot *)
  rr_oldest : int;  (** lowest seq still retained in the ring *)
  rr_events : Ovirt_core.Events.event list;
      (** retained events newer than the client's position, oldest first;
          empty on gap or fresh subscription *)
}

val enc_resume_reply : resume_reply -> string
val dec_resume_reply : string -> resume_reply

val enc_seq_event : Ovirt_core.Events.event -> string
val dec_seq_event : string -> Ovirt_core.Events.event
(** Body of a [Proc_event_lifecycle_seq] push: (seq, domain, lifecycle). *)

(** {1 v1.7: federation} *)

val enc_fleet_listing : Ovirt_core.Driver.fleet_listing -> string
val dec_fleet_listing : string -> Ovirt_core.Driver.fleet_listing
(** Bulk listing + per-shard degradation markers + member count. *)

val enc_fleet_status : Ovirt_core.Driver.fleet_status -> string
val dec_fleet_status : string -> Ovirt_core.Driver.fleet_status
(** Member health rows; domain counts travel as signed ints ([-1] =
    never listed). *)

val enc_fleet_migrate : domain:string -> dest:string -> string
val dec_fleet_migrate : string -> string * string

(** {1 v1.8: conditional listings} *)

type fleet_token = { ft_nonce : int; ft_fill : int }
(** The listing a client holds: the daemon's boot nonce plus the fill
    number of the reply-cache entry that produced it.  Each is a u32 on
    the wire. *)

val no_token : fleet_token
(** The zero token: names no listing, so the reply is always "full".  A
    daemon that cannot answer conditionally (reply cache off, or a node
    without a generation stamp) hands it out. *)

val enc_fleet_token : fleet_token -> string
val dec_fleet_token : string -> fleet_token

type since_reply =
  | Since_unchanged of fleet_token  (** the caller's listing is current *)
  | Since_full of fleet_token * Ovirt_core.Driver.fleet_listing

val enc_since_unchanged : fleet_token -> string
(** 12 bytes: the token and the "unchanged" discriminant. *)

val enc_since_full : fleet_token -> Ovirt_core.Driver.fleet_listing -> string
(** The token, the "full" discriminant, then the listing as
    {!enc_fleet_listing} encodes it. *)

val enc_since_full_raw : fleet_token -> string -> string
(** {!enc_since_full} for a listing already encoded: [listing_body] is
    copied verbatim. *)

val dec_since_reply : string -> since_reply
