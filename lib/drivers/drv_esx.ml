module X = Mini_xml
module Vm_config = Vmm.Vm_config
module Vm_state = Vmm.Vm_state
module Esx_host = Hvsim.Esx_host
open Ovirt_core

(* Substrate state: the simulated ESX server itself.  The driver is
   stateless — VM registrations live server-side — so the node's
   Domstore goes unused; the node still provides the shared rwlock that
   orders concurrent sessions against one host. *)
type payload = Esx_host.t

type node = payload Drvnode.node

let nodes : payload Drvnode.registry =
  Drvnode.registry (fun ~node_name ->
      Esx_host.create (Hvsim.Hostinfo.create ~hostname:node_name ()))

let get_node name : node = Drvnode.get_node nodes name
let get_host name = (get_node name).Drvnode.payload

(* A connection is a logged-in session against one host. *)
type session = { node : node; token : string }

let esx session = session.node.Drvnode.payload
let esx_name session = session.node.Drvnode.node_name

let ( let* ) = Result.bind

(* One protocol exchange: build the <request>, send, classify the reply. *)
let call session ~op ?name ?(body = []) () =
  let attrs =
    [ ("op", op); ("session", session.token) ]
    @ match name with Some n -> [ ("name", n) ] | None -> []
  in
  let request = X.to_string (X.elt "request" ~attrs body) in
  let reply = Esx_host.endpoint_request (esx session) request in
  match X.of_string reply with
  | exception X.Parse_error msg ->
    Verror.error Verror.Rpc_failure "unparseable ESX response: %s" msg
  | root when root.X.tag = "response" -> Ok root
  | root when root.X.tag = "fault" ->
    let msg = X.text_content root in
    let code =
      if String.length msg >= 2 && String.sub msg 0 2 = "no" then Verror.No_domain
      else if msg = "invalid session token" then Verror.Auth_failed
      else Verror.Operation_invalid
    in
    Error (Verror.make code msg)
  | root -> Verror.error Verror.Rpc_failure "unexpected ESX reply <%s>" root.X.tag

let login (node : node) ~username ~password =
  let request =
    X.to_string
      (X.elt "request" ~attrs:[ ("op", "Login") ]
         [ X.leaf "username" username; X.leaf "password" password ])
  in
  let reply = Esx_host.endpoint_request node.Drvnode.payload request in
  match X.of_string reply with
  | exception X.Parse_error msg ->
    Verror.error Verror.Rpc_failure "unparseable ESX response: %s" msg
  | root when root.X.tag = "fault" ->
    Error (Verror.make Verror.Auth_failed (X.text_content root))
  | root ->
    (try
       let token = X.attr_exn (X.child_exn root "session") "token" in
       Ok { node; token }
     with X.Parse_error msg ->
       Verror.error Verror.Rpc_failure "bad login reply: %s" msg)

(* ------------------------------------------------------------------ *)
(* Response decoding                                                   *)
(* ------------------------------------------------------------------ *)

let vm_ref_of_summary elt =
  let* uuid =
    Result.map_error (Verror.make Verror.Rpc_failure)
      (Vmm.Uuid.of_string (X.attr_exn elt "uuid"))
  in
  Ok Driver.{ dom_name = X.attr_exn elt "name"; dom_uuid = uuid; dom_id = None }

let vm_state_of_summary elt =
  Result.map_error (Verror.make Verror.Rpc_failure)
    (Vm_state.state_of_name (X.attr_exn elt "state"))

let get_summary session name =
  let* resp = call session ~op:"GetVM" ~name () in
  match X.child resp "vm" with
  | Some vm -> Ok vm
  | None -> Verror.error Verror.Rpc_failure "GetVM reply lacks <vm>"

(* ------------------------------------------------------------------ *)
(* Driver operations                                                   *)
(*                                                                     *)
(* Sessions against one host share its node lock: query exchanges run  *)
(* under the read section, state-changing ones under the write section.*)
(* ------------------------------------------------------------------ *)

let with_read session f = Drvnode.with_read session.node f
let with_write session f = Drvnode.with_write session.node f

let list_domains session =
  with_read session (fun () ->
      let* resp = call session ~op:"ListVMs" () in
      X.children_named resp "vm"
      |> List.filter_map (fun vm ->
             match vm_state_of_summary vm with
             | Ok state when Vm_state.is_active state ->
               (match vm_ref_of_summary vm with Ok r -> Some r | Error _ -> None)
             | Ok _ | Error _ -> None)
      |> List.sort (fun a b -> compare a.Driver.dom_name b.Driver.dom_name)
      |> Result.ok)

let list_defined session =
  with_read session (fun () ->
      let* resp = call session ~op:"ListVMs" () in
      X.children_named resp "vm"
      |> List.filter_map (fun vm ->
             match vm_state_of_summary vm with
             | Ok Vm_state.Shutoff -> X.attr vm "name"
             | Ok _ | Error _ -> None)
      |> List.sort compare
      |> Result.ok)

let lookup_by_name session name =
  with_read session (fun () ->
      let* vm = get_summary session name in
      vm_ref_of_summary vm)

let lookup_by_uuid session uuid =
  with_read session (fun () ->
      let* resp = call session ~op:"ListVMs" () in
      let matching =
        X.children_named resp "vm"
        |> List.find_opt (fun vm ->
               X.attr vm "uuid" = Some (Vmm.Uuid.to_string uuid))
      in
      match matching with
      | Some vm -> vm_ref_of_summary vm
      | None ->
        Verror.error Verror.No_domain "no domain with UUID %s"
          (Vmm.Uuid.to_string uuid))

let define_xml session xml =
  let* cfg = Drvutil.parse_domain_xml ~expect_os:[ Vm_config.Hvm ] xml in
  with_write session (fun () ->
      let body = [ X.node (Vmm.Domxml.to_element ~virt_type:"vmware" cfg) ] in
      let* resp = call session ~op:"RegisterVM" ~body () in
      match X.child resp "vm" with
      | Some vm -> vm_ref_of_summary vm
      | None -> Verror.error Verror.Rpc_failure "RegisterVM reply lacks <vm>")

let undefine session name =
  with_write session (fun () ->
      let* _ = call session ~op:"UnregisterVM" ~name () in
      Ok ())

let power_op op session name =
  with_write session (fun () ->
      let* _ = call session ~op ~name () in
      Ok ())

let dom_create = power_op "PowerOnVM"
let dom_suspend = power_op "SuspendVM"
let dom_resume = power_op "ResumeVM"
let dom_destroy = power_op "PowerOffVM"

(* ESX exposes no guest-cooperative shutdown without in-guest tools — the
   exact intrusiveness gap E7 measures. *)
let dom_shutdown session name =
  ignore session;
  ignore name;
  Driver.unsupported ~drv:"esx" ~op:"shutdown (requires in-guest tools)"

let dom_get_info session name =
  with_read session (fun () ->
      let* vm = get_summary session name in
      let* state = vm_state_of_summary vm in
      let memory = X.int_attr_exn vm "memoryKiB" in
      Ok
        Driver.
          {
            di_state = state;
            di_max_mem_kib = memory;
            di_memory_kib = memory;
            di_vcpus = X.int_attr_exn vm "vcpus";
            di_cpu_time_ns = 0L;
          })

let dom_get_xml session name =
  with_read session (fun () ->
      let* resp = call session ~op:"GetVM" ~name () in
      match X.child resp "domain" with
      | Some dom -> Ok (X.to_string dom)
      | None -> Verror.error Verror.Rpc_failure "GetVM reply lacks <domain>")

(* Native bulk listing: the ListVMs summaries already carry everything a
   domain_record needs, so the whole inventory costs one endpoint
   exchange instead of a GetVM per domain (the N+1 the per-op fallback
   would pay).  ESX has no autostart concept here: [rec_autostart=None]. *)
let dom_list_all session =
  with_read session (fun () ->
      let* resp = call session ~op:"ListVMs" () in
      X.children_named resp "vm"
      |> List.filter_map (fun vm ->
             match (vm_ref_of_summary vm, vm_state_of_summary vm) with
             | Ok rec_ref, Ok state ->
               let memory = X.int_attr_exn vm "memoryKiB" in
               Some
                 Driver.
                   {
                     rec_ref;
                     rec_info =
                       {
                         di_state = state;
                         di_max_mem_kib = memory;
                         di_memory_kib = memory;
                         di_vcpus = X.int_attr_exn vm "vcpus";
                         di_cpu_time_ns = 0L;
                       };
                     rec_autostart = None;
                   }
             | (Error _ | Ok _), _ -> None)
      |> List.sort (fun a b ->
             compare a.Driver.rec_ref.Driver.dom_name b.Driver.rec_ref.Driver.dom_name)
      |> Result.ok)

let capabilities session =
  with_read session (fun () ->
      Capabilities.
        {
          driver_name = "esx";
          virt_kind = "full-virt";
          stateful = false;
          guest_os_kinds = [ Vm_config.Hvm ];
          features =
            [
              Feat_define; Feat_start; Feat_suspend; Feat_resume; Feat_destroy;
              Feat_remote_native;
            ];
          host =
            Drvutil.host_summary ~node_name:(esx_name session)
              (Esx_host.host (esx session));
        })

let close session = ignore (call session ~op:"Logout" ())

let open_conn uri =
  let node = get_node (Option.value uri.Vuri.host ~default:"esx01") in
  let username = Option.value uri.Vuri.user ~default:"root" in
  let password = Option.value (Vuri.param uri "password") ~default:"esx" in
  let* session = login node ~username ~password in
  Ok
    (Driver.make_ops ~drv_name:"esx"
       ~get_capabilities:(fun () -> capabilities session)
       ~get_hostname:(fun () -> esx_name session)
       ~close:(fun () -> close session)
       ~list_domains:(fun () -> list_domains session)
       ~list_defined:(fun () -> list_defined session)
       ~lookup_by_name:(lookup_by_name session)
       ~lookup_by_uuid:(lookup_by_uuid session) ~define_xml:(define_xml session)
       ~undefine:(undefine session) ~dom_create:(dom_create session)
       ~dom_suspend:(dom_suspend session) ~dom_resume:(dom_resume session)
       ~dom_shutdown:(dom_shutdown session) ~dom_destroy:(dom_destroy session)
       ~dom_get_info:(dom_get_info session) ~dom_get_xml:(dom_get_xml session)
       ~dom_list_all:(fun () -> dom_list_all session)
       ~generation:(fun () -> Drvnode.generation session.node)
       ())

let register () =
  (* Custom probe: the hypervisor carries its own remote endpoint, so
     esx:// URIs never route to the remote driver, transport or not. *)
  Drvnode.register ~name:"esx"
    ~probe:(fun uri -> uri.Vuri.scheme = "esx")
    ~open_conn ()
