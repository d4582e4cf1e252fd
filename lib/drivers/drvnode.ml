open Ovirt_core
module Rwlock = Ovsync.Rwlock

type recovery = {
  rec_replayed : int;
  rec_torn_bytes : int;
  rec_adopted : string list;
  rec_autostarted : string list;
  rec_lost : string list;
  rec_appeared : string list;
  rec_unknown : string list;
}

type 'p node = {
  node_name : string;
  store : Domstore.t;
  lock : Rwlock.t;
  net : Net_backend.t;
  storage : Storage_backend.t;
  events : Events.bus;
  payload : 'p;
  gen : int Atomic.t;
  mutable recovered : recovery option;
}

type 'p registry = {
  reg_mutex : Mutex.t;
  reg_nodes : (string, 'p node) Hashtbl.t;
  reg_make : node_name:string -> 'p;
  reg_init : 'p node -> unit;
  reg_journal_dir : string option;
  reg_recover : ('p node -> Domstore.recovery -> unit) option;
  reg_uuid_scope : string option;
}

let registry ?(init = fun _ -> ()) ?journal_dir ?recover ?uuid_scope make =
  {
    reg_mutex = Mutex.create ();
    reg_nodes = Hashtbl.create 4;
    reg_make = make;
    reg_init = init;
    reg_journal_dir = journal_dir;
    reg_recover = recover;
    reg_uuid_scope = uuid_scope;
  }

let with_registry reg f =
  Mutex.lock reg.reg_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock reg.reg_mutex) f

let get_node reg name =
  with_registry reg (fun () ->
      match Hashtbl.find_opt reg.reg_nodes name with
      | Some node -> node
      | None ->
        let store = Domstore.create () in
        let scope = Option.map (fun s -> s ^ "://" ^ name) reg.reg_uuid_scope in
        (* Journal replay happens before the payload is built and before
           init: a restarted driver sees its pre-crash definitions, then
           reconciles them against whatever hypervisor state survived. *)
        let attach_info =
          Option.map
            (fun dir -> Domstore.attach store ~path:(dir ^ "/" ^ name ^ ".journal"))
            reg.reg_journal_dir
        in
        let node =
          {
            node_name = name;
            store;
            lock = Rwlock.create ();
            net = Net_backend.create ?scope ();
            storage = Storage_backend.create ?scope ();
            events = Events.create_bus ();
            payload = reg.reg_make ~node_name:name;
            gen = Atomic.make 0;
            recovered = None;
          }
        in
        Hashtbl.add reg.reg_nodes name node;
        reg.reg_init node;
        (match (attach_info, reg.reg_recover) with
         | Some info, Some recover -> recover node info
         | Some _, None | None, _ -> ());
        node)

let reset_nodes reg = with_registry reg (fun () -> Hashtbl.reset reg.reg_nodes)

(* Boot-path budget hook.  Autostart (and reconciler-triggered) starts
   run outside any RPC dispatch, so no deadline is on the thread; the
   daemon installs a wrapper here that runs the start under a fresh
   reqctx budget derived from wall_limit_ms, putting boot-time starts
   under the same watchdog as every dispatched job.  Default: run
   as-is. *)
let start_budget_hook :
    ((unit -> (unit, Verror.t) result) -> (unit, Verror.t) result) ref =
  ref (fun f -> f ())

let set_start_budget_hook f = start_budget_hook := f

let lock_expired node =
  Verror.raise_err Verror.Operation_failed
    "deadline expired waiting for lock on node %S" node.node_name

(* Driver sections observe the caller's remaining budget: a waiter whose
   deadline passes gives up instead of piling onto a stuck writer.  The
   result type of [f] is opaque here, so expiry surfaces as the same
   [Virt_error] the dispatcher already maps to an error reply. *)
let with_read node f =
  match Reqctx.deadline () with
  | None -> Rwlock.with_read node.lock f
  | Some deadline -> (
    match Rwlock.with_read_until node.lock ~deadline f with
    | Ok v -> v
    | Error `Timeout -> lock_expired node)

(* Every write-classified section stamps the node: the generation is
   bumped in the [finally] of the section body, i.e. after the mutation
   but {e before} the write lock is released.  A cache fill that
   snapshots the generation and then takes the read lock therefore
   cannot capture post-write data under a pre-write stamp: any write
   that overlaps the fill leaves the fill's snapshot stale, and the
   stale stamp invalidates the entry on its next lookup.  Failed writes
   bump too — a spurious invalidation, never a missed one. *)
let with_write node f =
  let f () = Fun.protect ~finally:(fun () -> Atomic.incr node.gen) f in
  match Reqctx.deadline () with
  | None -> Rwlock.with_write node.lock f
  | Some deadline -> (
    match Rwlock.with_write_until node.lock ~deadline f with
    | Ok v -> v
    | Error `Timeout -> lock_expired node)

(* One write stamp for the whole node: driver writes ([with_write]) plus
   the network and storage backends, which carry their own locks and
   mutate outside the node lock.  Each addend is monotonic, so the sum
   is, and any single mutation changes it. *)
let generation node =
  Atomic.get node.gen
  + Net_backend.generation node.net
  + Storage_backend.generation node.storage

(* Lifecycle events double as durable run-state notes: every driver
   already emits at every lifecycle site, so routing emission through
   here keeps the journal's view of "which domains are running" in sync
   without touching each call site.  (Suspended/crashed guests still
   have a live process — only clean stops clear the flag.) *)
let emit node domain_name lifecycle =
  (match lifecycle with
   | Events.Ev_started | Events.Ev_resumed | Events.Ev_adopted ->
     Domstore.note_started node.store domain_name
   | Events.Ev_stopped | Events.Ev_shutdown ->
     Domstore.note_stopped node.store domain_name
   | _ -> ());
  Events.emit node.events ~domain_name lifecycle

let ( let* ) = Result.bind

let require_config ?(what = "domain") node name =
  match Domstore.get node.store name with
  | Some cfg -> Ok cfg
  | None -> Verror.error Verror.No_domain "no %s named %S" what name

let domain_ref_of ?what node ~dom_id name =
  let* cfg = require_config ?what node name in
  Ok
    Driver.
      { dom_name = name; dom_uuid = cfg.Vmm.Vm_config.uuid; dom_id = dom_id name }

let lookup_by_name node ref_of name = with_read node (fun () -> ref_of name)

let lookup_by_uuid ?(what = "domain") node ref_of uuid =
  with_read node (fun () ->
      match Domstore.by_uuid node.store uuid with
      | Some cfg -> ref_of cfg.Vmm.Vm_config.name
      | None ->
        Verror.error Verror.No_domain "no %s with UUID %s" what
          (Vmm.Uuid.to_string uuid))

let list_defined node ~active =
  with_read node (fun () ->
      Domstore.names node.store
      |> List.filter (fun name -> not (active name))
      |> Result.ok)

(* Native bulk listing: the whole store walked under ONE read section,
   so the returned records are a consistent snapshot — no domain can be
   started/undefined between rows, unlike a list + per-domain lookup
   sequence.  [info] runs with the lock already held and therefore must
   not re-enter [with_read] (the rwlock is not re-entrant); [prepare]
   models one hypervisor round per listing (vs one per domain). *)
let list_all node ?(prepare = fun () -> ()) ~dom_id ~info () =
  with_read node (fun () ->
      prepare ();
      Domstore.entries node.store
      |> List.filter_map (fun (name, cfg, autostart, _running) ->
             match info name cfg with
             | Error _ -> None (* row vanished from the substrate: skip *)
             | Ok rec_info ->
               Some
                 Driver.
                   {
                     rec_ref =
                       {
                         dom_name = name;
                         dom_uuid = cfg.Vmm.Vm_config.uuid;
                         dom_id = dom_id name;
                       };
                     rec_info;
                     rec_autostart = Some autostart;
                   })
      |> Result.ok)

let set_autostart node name flag =
  with_write node (fun () -> Domstore.set_autostart node.store name flag)

let get_autostart node name =
  with_read node (fun () -> Domstore.get_autostart node.store name)

(* Reconciliation: diff the replayed journal against the hypervisor
   state that survived the crash.  Running guests the journal expects
   are re-adopted in place — [adopt] rebuilds manager bookkeeping only
   and must issue no lifecycle commands.  Guests that died or appeared
   while the manager was down are divergences: reported as events,
   never silently repaired.  Inactive domains marked autostart are
   started through the driver's ordinary [start] path. *)
let reconcile node ~attach_info ~running ~adopt ~start =
  let live = running () in
  let live_tbl = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace live_tbl n ()) live;
  let adopted = ref [] in
  let lost = ref [] in
  let appeared = ref [] in
  let to_autostart = ref [] in
  List.iter
    (fun (name, cfg, autostart, was_running) ->
      if Hashtbl.mem live_tbl name then begin
        adopt name cfg;
        if not was_running then begin
          appeared := name :: !appeared;
          emit node name Events.Ev_diverged
        end;
        emit node name Events.Ev_adopted;
        adopted := name :: !adopted
      end
      else begin
        if was_running then begin
          lost := name :: !lost;
          Domstore.note_stopped node.store name;
          emit node name Events.Ev_diverged
        end;
        if autostart then to_autostart := name :: !to_autostart
      end)
    (Domstore.entries node.store);
  let unknown =
    List.filter (fun n -> not (Domstore.mem node.store n)) live
  in
  List.iter
    (fun n -> Events.emit node.events ~domain_name:n Events.Ev_diverged)
    unknown;
  let autostarted =
    List.filter
      (fun name ->
        match !start_budget_hook (fun () -> start name) with
        | Ok () -> true
        | Error _ -> false)
      (List.rev !to_autostart)
  in
  let report =
    {
      rec_replayed = attach_info.Domstore.rc_replayed;
      rec_torn_bytes = attach_info.Domstore.rc_torn_bytes;
      rec_adopted = List.rev !adopted;
      rec_autostarted = autostarted;
      rec_lost = List.rev !lost;
      rec_appeared = List.rev !appeared;
      rec_unknown = unknown;
    }
  in
  node.recovered <- Some report;
  Atomic.incr node.gen;
  report

let node_of_uri ?(default = "localhost") uri =
  match uri.Vuri.host with Some host -> host | None -> default

let register ~name ?schemes ?probe ~open_conn () =
  let schemes = Option.value schemes ~default:[ name ] in
  let probe =
    Option.value probe
      ~default:(fun uri ->
        List.mem uri.Vuri.scheme schemes && uri.Vuri.transport = None)
  in
  Driver.register { Driver.reg_name = name; probe; open_conn }
