(** Xen-like bare-metal hypervisor simulator.

    The control path is the real one: the toolstack (our Xen driver) makes
    {e hypercalls} against the domain table and mirrors control data into
    {!Xenstore}, where frontend/backend information lives.  Domain0 exists
    from boot and cannot be touched.  The hypervisor only knows {e active}
    domains — persistence of configurations is the toolstack's job, which
    is exactly why the libvirt Xen driver is stateful. *)

type t
type domid = int

type dominfo = {
  domid : domid;
  dom_uuid : Vmm.Uuid.t;
  dom_state : Vmm.Vm_state.state;
  memory_kib : int;
  vcpus : int;
  cpu_time_ns : int64;  (** accumulated fake CPU time *)
}

val boot : Hostinfo.t -> t
(** Brings up the hypervisor with Domain0 occupying 512 MiB. *)

val attach : string -> t
(** The process-global hypervisor for a hostname (booted on the
    {!Hostinfo.shared} host on first use).  Active domains survive a
    simulated manager crash — a restarted toolstack attaches instead of
    booting. *)

val store : t -> Xenstore.t
val host : t -> Hostinfo.t

(** {1 Hypercalls}

    All return [Error msg] in the style of hypercall failures; [Ok]
    results have already updated the store. *)

val domctl_create : t -> Vmm.Vm_config.t -> (domid, string) result
(** Builds the domain {e paused}, allocates its memory image, reserves
    host resources, populates [/local/domain/<id>/...]. *)

val domctl_unpause : t -> domid -> (unit, string) result
val domctl_pause : t -> domid -> (unit, string) result

val domctl_shutdown : t -> domid -> (unit, string) result
(** Cooperative shutdown; the simulated guest completes it immediately,
    after which the domain is torn down. *)

val domctl_destroy : t -> domid -> (unit, string) result
(** Hard destroy: releases resources, clears the store subtree. *)

val domain_info : t -> domid -> (dominfo, string) result
val list_domains : t -> domid list
(** Ascending domids of active domains, Domain0 included. *)

val lookup_by_name : t -> string -> domid option
val lookup_by_uuid : t -> Vmm.Uuid.t -> domid option

val guest_image : t -> domid -> (Vmm.Guest_image.t, string) result
(** The live memory image (migration source/destination handle).
    Domain0 refuses. *)

