(** The remote program: procedure numbers and body codecs shared by the
    remote driver (client) and the daemon (server).

    Wire stability rules as in libvirt: procedure numbers are append-only;
    bodies are XDR; every reply with [Status_error] carries a serialized
    {!Ovirt_core.Verror.t}. *)

val program : int
val version : int

(** {1 Daemon addresses}

    The one naming rule that daemons listen by and clients connect by. *)

val default_daemon : string
(** ["ovirtd"]: the daemon a URI without [?daemon=] names. *)

val mgmt_address : string -> string
(** ["<daemon>-sock"]: this program, over any transport kind. *)

val admin_address : string -> string
(** ["<daemon>-admin-sock"]: the admin program, unix only. *)

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

(** {1 Wire types}

    One {!Xdr.codec} per wire type: the layout is written once and both
    directions read it. *)

val error : Ovirt_core.Verror.t Xdr.codec
(** The body of every reply with [Status_error]: code, message. *)

val domain_ref : Ovirt_core.Driver.domain_ref Xdr.codec
val domain_info : Ovirt_core.Driver.domain_info Xdr.codec
val domain_record : Ovirt_core.Driver.domain_record Xdr.codec

val batch_call : (int * string) list Xdr.codec
(** Sub-calls as (wire procedure number, encoded args body). *)

val batch_reply : (bool * string) list Xdr.codec
(** Sub-replies as (ok, body); a [false] body is an {!error}. *)

val deadline_call : (int * int * string) Xdr.codec
(** Deadline envelope (v1.4): the {e relative} budget in milliseconds
    plus the wrapped (procedure, body).  Relative so client and daemon
    clocks need not agree; the daemon anchors the absolute deadline at
    receive time. *)

val net_info : Ovirt_core.Net_backend.info Xdr.codec
val pool_info : Ovirt_core.Storage_backend.pool_info Xdr.codec
val vol_info : Ovirt_core.Storage_backend.vol_info Xdr.codec

val lifecycle_event : Ovirt_core.Events.event Xdr.codec
(** (domain, lifecycle); decodes with [seq = 0]. *)

val reconcile_status : (Reconcile.summary * Reconcile.dom_status list) Xdr.codec
(** Per-row retry countdowns are rounded to milliseconds on the wire. *)

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

val resume_reply : resume_reply Xdr.codec

val seq_event : Ovirt_core.Events.event Xdr.codec
(** Body of a [Proc_event_lifecycle_seq] push: (seq, domain, lifecycle). *)

val fleet_listing : Ovirt_core.Driver.fleet_listing Xdr.codec
(** Bulk listing + per-shard degradation markers + member count. *)

val fleet_health : Ovirt_core.Driver.fleet_status Xdr.codec
(** Member health rows; domain counts travel as signed ints ([-1] =
    never listed). *)

type fleet_token = { ft_nonce : int; ft_fill : int }
(** The listing a client holds: the daemon's boot nonce plus the fill
    number of the reply-cache entry that produced it.  Each is a u32 on
    the wire. *)

val no_token : fleet_token
(** The zero token: names no listing, so the reply is always "full".  A
    daemon that cannot answer conditionally (reply cache off, or a node
    without a generation stamp) hands it out. *)

val fleet_token : fleet_token Xdr.codec

type since_reply =
  | Since_unchanged of fleet_token  (** the caller's listing is current *)
  | Since_full of fleet_token * Ovirt_core.Driver.fleet_listing

val since_reply : since_reply Xdr.codec
(** The token, then a u32 discriminant: 0 "unchanged" (12 bytes in all),
    or 1 "full" followed by the listing as {!fleet_listing} encodes it. *)

val enc_since_full_raw : fleet_token -> string -> string
(** A "full" {!since_reply} for a listing already encoded:
    [listing_body] is copied verbatim. *)

(** {1 Procedure table}

    One row per procedure, in wire order: adding a procedure means adding
    one row, and every per-procedure fact below is read from it. *)

(** How the daemon serves a call of the procedure. *)
type serve_path =
  | Cached_listing
      (** a bulk listing, answered from the node's reply cache when a
          live entry holds it: [dom_list_all], [fleet_list_all], and the
          v1.8 conditional listing the [fleet_list_all] entry answers *)
  | Inline
      (** a call on one object whose every wait (the node lock, only
          tried; simulated hypervisor time) comes before its first
          effect, kept out of the reply cache: on a local node the
          receiving thread may run it, and a run that would wait has
          changed nothing yet and goes to the pool.  Point reads, the
          domain lifecycle writes, [define_xml], [undefine],
          [dom_set_memory] and the autostart and managed-save
          queries *)
  | Pooled  (** every other procedure: a pool job *)

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
  path : serve_path;
}

val descriptor_of_int :
  minor:int -> int -> (descriptor, Ovirt_core.Verror.t) result
(** The row a build of protocol [minor] has for a wire number, else the
    [Rpc_failure] "unknown remote procedure N" that build replies. *)

val proc_to_int : procedure -> int
val proc_of_int : int -> (procedure, string) result
val proc_min_minor : procedure -> int
val is_high_priority : procedure -> bool
val is_idempotent : procedure -> bool
val serve_path : procedure -> serve_path

(** {1 Signatures}

    One value per procedure, built by its table row: the procedure with
    its argument and reply codecs.  The remote driver calls through it
    and the daemon serves through it, so the two cannot disagree on a
    body.  Server → client events carry their push body as [sg_args]. *)

type ('a, 'r) signature = private {
  sg_proc : procedure;
  sg_args : 'a Xdr.codec;
  sg_ret : 'r Xdr.codec;
}

open Ovirt_core

val open_ : (string, unit) signature
(** the URI to open *)

val close : (unit, unit) signature

val get_capabilities : (unit, string) signature
(** capabilities XML *)

val get_hostname : (unit, string) signature
val list_domains : (unit, Driver.domain_ref list) signature
val list_defined : (unit, string list) signature
val lookup_by_name : (string, Driver.domain_ref) signature

val lookup_by_uuid : (string, Driver.domain_ref) signature
(** the UUID's text *)

val define_xml : (string, Driver.domain_ref) signature
val undefine : (string, unit) signature
val dom_create : (string, unit) signature
val dom_suspend : (string, unit) signature
val dom_resume : (string, unit) signature
val dom_shutdown : (string, unit) signature
val dom_destroy : (string, unit) signature
val dom_get_info : (string, Driver.domain_info) signature
val dom_get_xml : (string, string) signature

val dom_set_memory : (string * int, unit) signature
(** name, KiB *)

val net_list : (unit, Net_backend.info list) signature

val net_define : (string * string * string, Net_backend.info) signature
(** name, bridge, IP range *)

val net_start : (string, unit) signature
val net_stop : (string, unit) signature
val net_undefine : (string, unit) signature
val net_set_autostart : (string * bool, unit) signature
val net_lookup : (string, Net_backend.info) signature
val pool_list : (unit, Storage_backend.pool_info list) signature

val pool_define : (string * string * int, Storage_backend.pool_info) signature
(** name, target path, capacity in bytes *)

val pool_start : (string, unit) signature
val pool_stop : (string, unit) signature
val pool_undefine : (string, unit) signature
val pool_lookup : (string, Storage_backend.pool_info) signature

val vol_create :
  (string * string * int * string, Storage_backend.vol_info) signature
(** pool, name, capacity in bytes, format *)

val vol_delete : (string * string, unit) signature
(** pool, name *)

val vol_list : (string, Storage_backend.vol_info list) signature
(** pool *)

val event_register : (unit, unit) signature
val event_deregister : (unit, unit) signature
val event_lifecycle : (Events.event, unit) signature

val echo : (string, string) signature
(** the body, verbatim both ways *)

val ping : (unit, unit) signature
val dom_save : (string, unit) signature
val dom_restore : (string, unit) signature
val dom_has_managed_save : (string, bool) signature
val dom_set_autostart : (string * bool, unit) signature
val dom_get_autostart : (string, bool) signature
val proto_minor : (unit, int) signature
val dom_list_all : (unit, Driver.domain_record list) signature
val call_batch : ((int * string) list, (bool * string) list) signature

val vol_lookup : (string, Storage_backend.vol_info) signature
(** a volume path *)

val call_deadline : (int * int * string, string) signature
(** The reply is the inner call's, verbatim. *)

val dom_set_policy : (string * Dompolicy.t, unit) signature
val dom_get_policy : (string, Dompolicy.t) signature

val daemon_reconcile_status :
  (unit, Reconcile.summary * Reconcile.dom_status list) signature

val event_resume : (int, resume_reply) signature
(** The last stream position the client processed; [-1] = fresh
    subscription (arm at the current head, replay nothing). *)

val event_lifecycle_seq : (Events.event, unit) signature
val fleet_list_all : (unit, Driver.fleet_listing) signature
val fleet_status : (unit, Driver.fleet_status) signature

val fleet_migrate : (string * string, unit) signature
(** domain, destination *)

val fleet_list_since : (fleet_token, since_reply) signature

(** {1 Bodies the repository benchmark codes directly}

    Each is [Xdr.encode] or [Xdr.decode] over its codec. *)

val enc_string_body : string -> string
val dec_string_body : string -> string
val enc_domain_info : Driver.domain_info -> string
val dec_domain_info : string -> Driver.domain_info
val enc_domain_record_list : Driver.domain_record list -> string
val dec_domain_record_list : string -> Driver.domain_record list
val enc_name_and_bool : string -> bool -> string
