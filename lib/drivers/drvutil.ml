open Ovirt_core

let host_summary ~node_name host =
  let info = Hvsim.Hostinfo.node_info host in
  Capabilities.
    {
      host_name = node_name;
      host_memory_kib = info.Hvsim.Hostinfo.memory_kib;
      host_cpus = info.Hvsim.Hostinfo.cpus;
      host_mhz = info.Hvsim.Hostinfo.mhz;
      host_arch = info.Hvsim.Hostinfo.model;
    }

let parse_domain_xml ~expect_os xml =
  match Vmm.Domxml.of_xml xml with
  | Error msg -> Verror.error Verror.Invalid_arg "bad domain XML: %s" msg
  | Ok (cfg, _virt_type) ->
    if List.mem cfg.Vmm.Vm_config.os expect_os then Ok cfg
    else
      Verror.error Verror.Invalid_arg "OS type %S is not runnable by this driver"
        (Vmm.Vm_config.os_kind_name cfg.Vmm.Vm_config.os)
