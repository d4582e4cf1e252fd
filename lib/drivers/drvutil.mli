(** Shared helpers for driver implementations. *)

val host_summary :
  node_name:string -> Hvsim.Hostinfo.t -> Ovirt_core.Capabilities.host_summary

val parse_domain_xml :
  expect_os:Vmm.Vm_config.os_kind list ->
  string ->
  (Vmm.Vm_config.t, Ovirt_core.Verror.t) result
(** Parse and check that the OS kind is one the driver can run. *)
