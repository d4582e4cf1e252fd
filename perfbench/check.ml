(* Answer checks.  Every operation's reply is compared with what the
   generator says it must be; a mismatch is a failed operation, the same
   as an error return.  Pure functions, so checker_test can feed them
   corrupted expectations. *)

module Driver = Ovirt.Driver
module Vm_config = Vmm.Vm_config
module Vm_state = Vmm.Vm_state

let fail fmt = Printf.ksprintf (fun s -> Error s) fmt
let ( let* ) = Result.bind

let info ~(cfg : Vm_config.t) ~state (i : Driver.domain_info) =
  if i.Driver.di_state <> state then
    fail "%s: state %s, want %s" cfg.Vm_config.name (Vm_state.state_name i.Driver.di_state)
      (Vm_state.state_name state)
  else if i.Driver.di_max_mem_kib <> cfg.Vm_config.memory_kib then
    fail "%s: max memory %d KiB, want %d" cfg.Vm_config.name i.Driver.di_max_mem_kib
      cfg.Vm_config.memory_kib
  else if i.Driver.di_vcpus <> cfg.Vm_config.vcpus then
    fail "%s: %d vcpus, want %d" cfg.Vm_config.name i.Driver.di_vcpus cfg.Vm_config.vcpus
  else Ok ()

(* [expected] is the XML the generator rendered for [cfg]; a reply that
   differs only in layout still passes if it parses back to [cfg]. *)
let xml ~(cfg : Vm_config.t) ~expected got =
  if String.equal got expected then Ok ()
  else
    match Vmm.Domxml.of_xml got with
    | Ok (c, _) when Vm_config.equal c cfg -> Ok ()
    | Ok _ -> fail "%s: XML describes another configuration" cfg.Vm_config.name
    | Error e -> fail "%s: unparsable XML: %s" cfg.Vm_config.name e

let autostart ~name ~expected got =
  if got = expected then Ok () else fail "%s: autostart %b, want %b" name got expected

(* A complete listing: exactly [rows] rows, all UUIDs distinct, every
   UUID of [must_contain] present, and no shard error. *)
let listing ~rows ~must_contain ~shard_errors (records : Driver.domain_record list) =
  let seen = Hashtbl.create (2 * rows) in
  let n = List.length records in
  List.iter
    (fun r -> Hashtbl.replace seen r.Driver.rec_ref.Driver.dom_uuid ())
    records;
  if shard_errors > 0 then fail "listing reported %d shard error(s)" shard_errors
  else if n <> rows then fail "listing has %d rows, want %d" n rows
  else if Hashtbl.length seen <> n then fail "listing has %d distinct UUIDs in %d rows" (Hashtbl.length seen) n
  else
    match Array.find_opt (fun u -> not (Hashtbl.mem seen u)) must_contain with
    | Some u -> fail "listing lacks seeded domain %s" (Vmm.Uuid.to_string u)
    | None -> Ok ()

type expected_domain = {
  e_cfg : Vm_config.t;
  e_state : Vm_state.state;
  e_autostart : bool;
}

(* The node's final listing against the generator's model: every
   modelled domain present with its UUID, state and autostart flag, and
   no rows beyond the model but [extra] (the test driver's built-in
   domain). *)
let final_states ~extra (expected : expected_domain list) (records : Driver.domain_record list) =
  let by_name = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace by_name r.Driver.rec_ref.Driver.dom_name r) records;
  let* () =
    List.fold_left
      (fun acc e ->
        let* () = acc in
        let name = e.e_cfg.Vm_config.name in
        match Hashtbl.find_opt by_name name with
        | None -> fail "%s: missing from the final listing" name
        | Some r ->
          if not (Vmm.Uuid.equal r.Driver.rec_ref.Driver.dom_uuid e.e_cfg.Vm_config.uuid) then
            fail "%s: UUID changed" name
          else
            let* () = info ~cfg:e.e_cfg ~state:e.e_state r.Driver.rec_info in
            autostart ~name ~expected:e.e_autostart
              (Option.value r.Driver.rec_autostart ~default:false))
      (Ok ()) expected
  in
  let want = List.length expected + extra in
  if List.length records <> want then
    fail "final listing has %d rows, want %d" (List.length records) want
  else Ok ()
