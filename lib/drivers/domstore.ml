module Vm_config = Vmm.Vm_config
module Verror = Ovirt_core.Verror
module Journal = Persist.Journal

(* Immutable: every change goes through [set_entry], which keeps
   [snapshot_size] in step. *)
type entry = { e_cfg : Vm_config.t; e_autostart : bool; e_running : bool }

type t = {
  mutex : Mutex.t;
  configs : (string, entry) Hashtbl.t;
  (* Secondary index: uuid string -> name.  Kept in sync with [configs]
     under [mutex] so define/by_uuid are O(1) instead of a full fold. *)
  uuids : (string, string) Hashtbl.t;
  mutable journal : Journal.t option;
  (* Records a snapshot of [configs] would hold, so the compaction
     check is O(1) instead of rendering every domain's XML. *)
  mutable snapshot_size : int;
}

type recovery = { rc_replayed : int; rc_torn_bytes : int; rc_compacted : bool }

let create () =
  {
    mutex = Mutex.create ();
    configs = Hashtbl.create 16;
    uuids = Hashtbl.create 16;
    journal = None;
    snapshot_size = 0;
  }

let with_lock store f =
  Mutex.lock store.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock store.mutex) f

(* --- journal records ----------------------------------------------------- *)
(* One record per mutation, [tag char ^ body]:
     'D' ^ domain XML      define / redefine
     'U' ^ name            undefine
     'A' ^ ('0'|'1') ^ name  autostart off/on
     'R' ^ name            domain started (running at crash time)
     'S' ^ name            domain stopped
   The 'R'/'S' pair is the analogue of libvirt's per-domain status XML:
   it records which domains the manager believes are running, which is
   what reconciliation diffs against the surviving hypervisor state. *)

let rec_define cfg = "D" ^ Vmm.Domxml.to_xml ~virt_type:"persist" cfg
let rec_undefine name = "U" ^ name
let rec_autostart name flag = "A" ^ (if flag then "1" else "0") ^ name
let rec_running name flag = (if flag then "R" else "S") ^ name

let journal_append store payload =
  match store.journal with None -> () | Some j -> Journal.append j payload

(* One entry's share of a snapshot, unrendered: its definition, then
   one record per set flag.  Counting it renders no XML. *)
let entry_records name e =
  (lazy (rec_define e.e_cfg)
   :: (if e.e_autostart then [ lazy (rec_autostart name true) ] else []))
  @ if e.e_running then [ lazy (rec_running name true) ] else []

let entry_weight name = function
  | Some e -> List.length (entry_records name e)
  | None -> 0

(* The one place [configs] changes ([None] removes the name). *)
let set_entry store name next =
  store.snapshot_size <-
    store.snapshot_size
    - entry_weight name (Hashtbl.find_opt store.configs name)
    + entry_weight name next;
  match next with
  | Some e -> Hashtbl.replace store.configs name e
  | None -> Hashtbl.remove store.configs name

(* Snapshot: the minimal record sequence reproducing the live state. *)
let snapshot_records store =
  Hashtbl.fold (fun name e acc -> (name, e) :: acc) store.configs []
  |> List.sort compare
  |> List.concat_map (fun (name, e) -> List.map Lazy.force (entry_records name e))

(* Compact when the log carries several times more records than a fresh
   snapshot would need; keeps replay O(live state), not O(history). *)
let compact_factor = 4
let compact_slack = 16

let maybe_compact_locked store =
  match store.journal with
  | None -> false
  | Some j ->
    if Journal.record_count j > (compact_factor * store.snapshot_size) + compact_slack
    then begin
      Journal.rewrite j (snapshot_records store);
      true
    end
    else false

(* --- core mutations (locked helpers) ------------------------------------- *)

let uuid_key u = Vmm.Uuid.to_string u

let define_locked store config =
  let name = config.Vm_config.name in
  let key = uuid_key config.Vm_config.uuid in
  let uuid_clash =
    match Hashtbl.find_opt store.uuids key with
    | Some owner -> owner <> name
    | None -> false
  in
  if uuid_clash then
    Verror.error Verror.Dup_name "UUID of %S already used by another domain" name
  else
    match Hashtbl.find_opt store.configs name with
    | Some existing
      when not (Vmm.Uuid.equal existing.e_cfg.Vm_config.uuid config.Vm_config.uuid)
      ->
      Verror.error Verror.Dup_name
        "domain %S already defined with a different UUID" name
    | Some existing ->
      set_entry store name (Some { existing with e_cfg = config });
      Ok ()
    | None ->
      set_entry store name
        (Some { e_cfg = config; e_autostart = false; e_running = false });
      Hashtbl.replace store.uuids key name;
      Ok ()

let undefine_locked store name =
  match Hashtbl.find_opt store.configs name with
  | Some e ->
    set_entry store name None;
    Hashtbl.remove store.uuids (uuid_key e.e_cfg.Vm_config.uuid);
    Ok ()
  | None -> Verror.error Verror.No_domain "no persistent domain named %S" name

(* --- public API ----------------------------------------------------------- *)

let define store config =
  with_lock store (fun () ->
      match define_locked store config with
      | Ok () ->
        journal_append store (rec_define config);
        ignore (maybe_compact_locked store);
        Ok ()
      | Error _ as e -> e)

let undefine store name =
  with_lock store (fun () ->
      match undefine_locked store name with
      | Ok () ->
        journal_append store (rec_undefine name);
        ignore (maybe_compact_locked store);
        Ok ()
      | Error _ as e -> e)

let get store name =
  with_lock store (fun () ->
      Option.map (fun e -> e.e_cfg) (Hashtbl.find_opt store.configs name))

let by_uuid store uuid =
  with_lock store (fun () ->
      match Hashtbl.find_opt store.uuids (uuid_key uuid) with
      | Some name ->
        Option.map (fun e -> e.e_cfg) (Hashtbl.find_opt store.configs name)
      | None -> None)

let names store =
  with_lock store (fun () ->
      Hashtbl.fold (fun name _ acc -> name :: acc) store.configs []
      |> List.sort compare)

let mem store name = with_lock store (fun () -> Hashtbl.mem store.configs name)

let set_autostart store name flag =
  with_lock store (fun () ->
      match Hashtbl.find_opt store.configs name with
      | Some e ->
        if e.e_autostart <> flag then begin
          set_entry store name (Some { e with e_autostart = flag });
          journal_append store (rec_autostart name flag)
        end;
        Ok ()
      | None ->
        Verror.error Verror.No_domain "no persistent domain named %S" name)

let get_autostart store name =
  with_lock store (fun () ->
      match Hashtbl.find_opt store.configs name with
      | Some e -> Ok e.e_autostart
      | None ->
        Verror.error Verror.No_domain "no persistent domain named %S" name)

let note_running store name flag =
  with_lock store (fun () ->
      match Hashtbl.find_opt store.configs name with
      | Some e when e.e_running <> flag ->
        set_entry store name (Some { e with e_running = flag });
        journal_append store (rec_running name flag)
      | Some _ | None -> ())

let note_started store name = note_running store name true
let note_stopped store name = note_running store name false

let was_running store name =
  with_lock store (fun () ->
      match Hashtbl.find_opt store.configs name with
      | Some e -> e.e_running
      | None -> false)

let entries store =
  with_lock store (fun () ->
      Hashtbl.fold
        (fun name e acc -> (name, e.e_cfg, e.e_autostart, e.e_running) :: acc)
        store.configs []
      |> List.sort compare)

(* --- journal replay ------------------------------------------------------- *)

let apply_record store payload =
  if String.length payload = 0 then ()
  else
    let body = String.sub payload 1 (String.length payload - 1) in
    match payload.[0] with
    | 'D' -> (
      match Vmm.Domxml.of_xml body with
      | Ok (cfg, _virt_type) -> ignore (define_locked store cfg)
      | Error _ -> ())
    | 'U' -> ignore (undefine_locked store body)
    | 'A' when String.length body >= 1 -> (
      let flag = body.[0] = '1' in
      let name = String.sub body 1 (String.length body - 1) in
      match Hashtbl.find_opt store.configs name with
      | Some e -> set_entry store name (Some { e with e_autostart = flag })
      | None -> ())
    | 'R' | 'S' -> (
      match Hashtbl.find_opt store.configs body with
      | Some e -> set_entry store body (Some { e with e_running = payload.[0] = 'R' })
      | None -> ())
    | _ -> () (* unknown tag: forward compatibility, skip *)

let attach store ~path =
  with_lock store (fun () ->
      if store.journal <> None then invalid_arg "Domstore.attach: already attached";
      if Hashtbl.length store.configs > 0 then
        invalid_arg "Domstore.attach: store not empty";
      let j, replay = Journal.open_ path in
      List.iter (apply_record store) replay.Journal.rp_records;
      store.journal <- Some j;
      let compacted = maybe_compact_locked store in
      {
        rc_replayed = List.length replay.Journal.rp_records;
        rc_torn_bytes = replay.Journal.rp_torn_bytes;
        rc_compacted = compacted;
      })
