(* The answer checker must report a failure whenever the reply and the
   generator's expectation disagree: each case corrupts one expected
   field and asserts the checker rejects the true answer. *)

module Driver = Ovirt.Driver
module Vm_config = Vmm.Vm_config
module Vm_state = Vmm.Vm_state

let failures = ref 0

let expect label ~ok r =
  match (ok, r) with
  | true, Ok () | false, Error _ -> Printf.printf "ok    %s\n" label
  | true, Error e ->
    incr failures;
    Printf.printf "FAIL  %s: unexpected rejection: %s\n" label e
  | false, Ok () ->
    incr failures;
    Printf.printf "FAIL  %s: corrupted expectation accepted\n" label

let () =
  let rng = Random.State.make [| 42 |] in
  let cfgs = Gen.domains rng ~nics:true ~max_vcpus:4 ~prefix:"ck" 3 in
  let cfg = cfgs.(0) in
  let info =
    {
      Driver.di_state = Vm_state.Running;
      di_max_mem_kib = cfg.Vm_config.memory_kib;
      di_memory_kib = cfg.Vm_config.memory_kib;
      di_vcpus = cfg.Vm_config.vcpus;
      di_cpu_time_ns = 0L;
    }
  in
  let xml = Vmm.Domxml.to_xml ~virt_type:"test" cfg in
  let corrupt = { cfg with Vm_config.memory_kib = cfg.Vm_config.memory_kib + 1024 } in
  expect "info matches" ~ok:true (Check.info ~cfg ~state:Vm_state.Running info);
  expect "info: wrong state" ~ok:false (Check.info ~cfg ~state:Vm_state.Paused info);
  expect "info: wrong memory" ~ok:false (Check.info ~cfg:corrupt ~state:Vm_state.Running info);
  expect "xml matches" ~ok:true (Check.xml ~cfg ~expected:xml xml);
  expect "xml: other config" ~ok:false
    (Check.xml ~cfg:corrupt ~expected:(Vmm.Domxml.to_xml ~virt_type:"test" corrupt) xml);
  expect "xml: garbage" ~ok:false (Check.xml ~cfg ~expected:xml "<domain");
  expect "autostart matches" ~ok:true (Check.autostart ~name:"d" ~expected:true true);
  expect "autostart: flipped" ~ok:false (Check.autostart ~name:"d" ~expected:false true);
  let record c =
    {
      Driver.rec_ref = { Driver.dom_name = c.Vm_config.name; dom_uuid = c.Vm_config.uuid; dom_id = None };
      rec_info = { info with Driver.di_state = Vm_state.Shutoff; di_max_mem_kib = c.Vm_config.memory_kib;
                   di_vcpus = c.Vm_config.vcpus };
      rec_autostart = Some false;
    }
  in
  let records = Array.to_list (Array.map record cfgs) in
  let uuids = Array.map (fun c -> c.Vm_config.uuid) cfgs in
  expect "listing matches" ~ok:true (Check.listing ~rows:3 ~must_contain:uuids ~shard_errors:0 records);
  expect "listing: row count" ~ok:false (Check.listing ~rows:4 ~must_contain:uuids ~shard_errors:0 records);
  expect "listing: shard error" ~ok:false (Check.listing ~rows:3 ~must_contain:uuids ~shard_errors:1 records);
  expect "listing: duplicate UUID" ~ok:false
    (Check.listing ~rows:3 ~must_contain:uuids ~shard_errors:0
       (List.hd records :: List.tl (List.rev records)));
  let stranger = (Gen.domains rng ~nics:true ~max_vcpus:4 ~prefix:"zz" 1).(0) in
  expect "listing: seeded domain missing" ~ok:false
    (Check.listing ~rows:3 ~must_contain:(Array.append uuids [| stranger.Vm_config.uuid |]) ~shard_errors:0
       records);
  let expected =
    Array.to_list
      (Array.map (fun c -> { Check.e_cfg = c; e_state = Vm_state.Shutoff; e_autostart = false }) cfgs)
  in
  expect "final states match" ~ok:true (Check.final_states ~extra:0 expected records);
  expect "final: wrong state" ~ok:false
    (Check.final_states ~extra:0
       ({ (List.hd expected) with Check.e_state = Vm_state.Running } :: List.tl expected)
       records);
  expect "final: wrong autostart" ~ok:false
    (Check.final_states ~extra:0 ({ (List.hd expected) with Check.e_autostart = true } :: List.tl expected) records);
  expect "final: extra row" ~ok:false (Check.final_states ~extra:0 (List.tl expected) records);
  expect "final: missing domain" ~ok:false
    (Check.final_states ~extra:0 ({ (List.hd expected) with Check.e_cfg = stranger } :: expected) records);
  (* The churn model walks start, suspend, resume, autostart flip,
     destroy, and redefines after every third cycle. *)
  let ops = Gen.churn_sequence rng ~n_domains:1 ~rounds:1 in
  let states = Array.to_list (Array.map (fun o -> Vm_state.state_name o.Gen.c_state) ops) in
  let want =
    List.concat (List.init 3 (fun _ -> [ "running"; "paused"; "running"; "running"; "shut off" ])) @ [ "shut off" ]
  in
  expect "churn model: state sequence" ~ok:true
    (if states = want then Ok () else Error (String.concat "," states));
  expect "churn model: redefine clears autostart" ~ok:true
    (if ops.(15).Gen.c_write = Gen.Redefine && not ops.(15).Gen.c_autostart && ops.(14).Gen.c_autostart then Ok ()
     else Error "autostart not cleared");
  let ops = Gen.churn_sequence rng ~n_domains:3 ~rounds:2 in
  expect "churn model: a whole pass returns every domain to its start" ~ok:true
    (if
       Array.for_all
         (fun m -> m.Gen.m_state = Vm_state.Shutoff && not m.Gen.m_autostart)
         (Gen.models_after ops ~n_domains:3 ~executed:(Array.length ops - 1))
     then Error "the sequence ends before its last write"
     else if
       Array.for_all
         (fun m -> m.Gen.m_state = Vm_state.Shutoff && not m.Gen.m_autostart)
         (Gen.models_after ops ~n_domains:3 ~executed:(2 * Array.length ops))
     then Ok ()
     else Error "a domain does not end a pass as it started");
  if !failures > 0 then begin
    Printf.printf "%d checker case(s) failed\n" !failures;
    exit 1
  end
