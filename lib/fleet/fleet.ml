(* The federated control plane: one controller, many member daemons.

   A fleet owns a registry of member daemons and answers the ordinary
   driver surface by scatter-gather (reads) or placement-routed
   forwarding (writes).  Partial failure is the normal case at fleet
   scale, so the layer is built robustness-first:

   - every member carries a health state (Up/Degraded/Down) fed by a
     single shared prober thread and by data-path outcomes, with probe
     backoff while Down and hysteresis on recovery;
   - a scatter gives each shard its own slice of the request deadline;
     a failed or timed-out shard contributes a structured shard_error
     marker instead of poisoning the reply;
   - mutating operations route to exactly one member by consistent-hash
     placement (pluggable) plus a learned location table;
   - cross-daemon migration is a journaled two-phase handshake that
     rolls back to a running source on any failure before the
     switchover record, and rolls forward after it — a controller kill
     at any journaled boundary converges on recovery. *)

open Ovirt_core
module Rp = Protocol.Remote_protocol
module Journal = Persist.Journal
module Uuid = Vmm.Uuid

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Members and fleets                                                  *)
(* ------------------------------------------------------------------ *)

type member = {
  m_name : string;
  m_uri : string;  (** driver URI the controller opens for data calls *)
  m_probe_address : string;
  m_probe_kind : Ovnet.Transport.kind;
  mutable m_ops : (Driver.ops * Events.subscription) option;
      (** lazily opened member connection, and the subscription that
          forwards its events onto the fleet bus *)
  mutable m_health : Driver.member_health;
  mutable m_consec_failures : int;
  mutable m_consec_successes : int;
  mutable m_probes : int;
  mutable m_failures : int;
  mutable m_domains : int;  (** last known count; -1 = never listed *)
  mutable m_next_probe : float;  (** absolute *)
  mutable m_backoff_s : float;  (** probe interval while Down *)
}

type t = {
  f_name : string;
  f_mutex : Mutex.t;
  mutable f_members : member list;  (** join order *)
  f_place : Uuid.t -> string list -> string;
  f_shard_slice_s : float;
  f_probe_interval_s : float;
  f_probe_timeout_s : float;
  f_down_threshold : int;
  f_locations : (string, string) Hashtbl.t;
      (** domain name -> member; written by learning passes and through
          [relocate_locked], nowhere else *)
  mutable f_loc_version : int;  (** bumped by [relocate_locked] *)
  mutable f_learned : learned;
  mutable f_locations_learned : int;  (** rows written by learning passes *)
  f_events : Events.bus;
  f_journal : Journal.t;
  mutable f_sub_errors : int;  (** shard errors surfaced to this fleet's users *)
  mutable f_migrations_active : int;
  mutable f_migrations_recovered : int;
  mutable f_migrations_rolled_back : int;
}

(* The last listing the controller learned from. *)
and learned = {
  ln_lists : (string * Driver.domain_record list) list;  (** per member *)
  ln_merged : Driver.domain_record list;  (** their merge *)
  ln_version : int;  (** [f_loc_version] when they were learned *)
}

let with_lock t f =
  Mutex.lock t.f_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.f_mutex) f

(* Every write to [f_locations] outside a learning pass goes through
   here.  The bump tells the next listing that the table may no longer
   be what learning the last lists left, so that listing learns in full
   (see [scatter_list]).  Callers hold [f_mutex]. *)
let relocate_locked t f =
  t.f_loc_version <- t.f_loc_version + 1;
  f t.f_locations

(* ------------------------------------------------------------------ *)
(* Placement: consistent-hash ring                                     *)
(* ------------------------------------------------------------------ *)

(* Default placement: each member contributes [vnodes] points on a hash
   ring; a UUID lands on the first point clockwise.  Adding or removing
   one member only moves the keys adjacent to its points — the property
   that makes rebalancing a per-shard, not per-fleet, affair. *)
let ring_vnodes = 64

let consistent_hash_place uuid member_names =
  match member_names with
  | [] -> invalid_arg "consistent_hash_place: no members"
  | [ only ] -> only
  | names ->
    let points =
      List.concat_map
        (fun name ->
          List.init ring_vnodes (fun i ->
              (Hashtbl.hash (name ^ "#" ^ string_of_int i), name)))
        names
    in
    let points = List.sort compare points in
    (* The text form, not the raw bytes: placements already made must
       not move. *)
    let key = Hashtbl.hash (Uuid.to_string uuid) in
    (match List.find_opt (fun (h, _) -> h >= key) points with
     | Some (_, name) -> name
     | None -> snd (List.hd points))

(* ------------------------------------------------------------------ *)
(* Health state machine                                                *)
(* ------------------------------------------------------------------ *)

(* Callers hold [f_mutex].  Transitions:
     Up --failure--> Degraded --(threshold consecutive)--> Down
     Down --success--> Degraded --(2nd consecutive success)--> Up
   The Down->Up path deliberately passes through Degraded (hysteresis):
   one lucky probe against a flapping daemon must not flip the member
   straight back into full rotation. *)
let note_success_locked t m =
  m.m_consec_failures <- 0;
  m.m_consec_successes <- m.m_consec_successes + 1;
  m.m_backoff_s <- t.f_probe_interval_s;
  m.m_next_probe <- Unix.gettimeofday () +. t.f_probe_interval_s;
  match m.m_health with
  | Driver.Mh_up -> ()
  | Driver.Mh_down ->
    m.m_health <- Driver.Mh_degraded;
    m.m_consec_successes <- 1
  | Driver.Mh_degraded ->
    if m.m_consec_successes >= 2 then m.m_health <- Driver.Mh_up

let note_failure_locked t m =
  m.m_failures <- m.m_failures + 1;
  m.m_consec_failures <- m.m_consec_failures + 1;
  m.m_consec_successes <- 0;
  let now = Unix.gettimeofday () in
  if m.m_consec_failures >= t.f_down_threshold then begin
    (if m.m_health <> Driver.Mh_down then begin
       m.m_health <- Driver.Mh_down;
       (* Fleet-level gap marker: subscribers tracking fleet state must
          resync — a member's events are lost while it is down. *)
       Events.emit t.f_events ~domain_name:"" Events.Ev_resync
     end);
    (* Exponential probe backoff while Down, capped at 16 intervals. *)
    m.m_backoff_s <-
      Float.min (m.m_backoff_s *. 2.) (t.f_probe_interval_s *. 16.);
    m.m_next_probe <- now +. m.m_backoff_s
  end
  else begin
    m.m_health <- Driver.Mh_degraded;
    m.m_next_probe <- now +. t.f_probe_interval_s
  end

(* ------------------------------------------------------------------ *)
(* Global fleet registry and the shared prober thread                  *)
(* ------------------------------------------------------------------ *)

let fleets : (string, t) Hashtbl.t = Hashtbl.create 4
let fleets_mutex = Mutex.create ()
let prober_cond = Condition.create ()
let prober_spawned = ref 0

let with_fleets f =
  Mutex.lock fleets_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock fleets_mutex) f

let prober_thread_count () = !prober_spawned

(* Every fleet's scatters share one set of spare threads, as they share
   the prober. *)
let shard_threads = Ovsync.Spare_threads.create ()
let shard_thread_count () = Ovsync.Spare_threads.spawned shard_threads

(* Wake the prober (membership changed, or the data path wants a member
   re-probed now).  Never called with [f_mutex] held. *)
let poke_prober () =
  with_fleets (fun () -> Condition.broadcast prober_cond)

let probe_member t m =
  let outcome =
    match
      Rpc_client.connect ~address:m.m_probe_address ~kind:m.m_probe_kind
        ~program:Rp.program ~version:Rp.version ()
    with
    | Error e -> Error e
    | Ok rpc ->
      let r =
        Rpc_client.call rpc
          ~procedure:(Rp.proc_to_int Rp.Proc_ping)
          ~body:Rp.enc_unit_body ~timeout_s:t.f_probe_timeout_s ()
      in
      Rpc_client.close rpc;
      Result.map (fun (_ : string) -> ()) r
  in
  with_lock t (fun () ->
      m.m_probes <- m.m_probes + 1;
      match outcome with
      | Ok () -> note_success_locked t m
      | Error _ -> note_failure_locked t m)

(* One prober thread for every fleet in the process (keepalive-style
   liveness without a poll thread per member): sleep on the shared
   timekeeper until the earliest scheduled probe, run every due probe,
   repeat.  Spawned on first fleet creation, never again. *)
let prober_loop () =
  while true do
    let now = Unix.gettimeofday () in
    let all = with_fleets (fun () -> Hashtbl.fold (fun _ t acc -> t :: acc) fleets []) in
    let due = ref [] in
    let next = ref (now +. 5.) in
    List.iter
      (fun t ->
        with_lock t (fun () ->
            List.iter
              (fun m ->
                if m.m_next_probe <= now then due := (t, m) :: !due
                else next := Float.min !next m.m_next_probe)
              t.f_members))
      all;
    List.iter (fun (t, m) -> probe_member t m) !due;
    if !due = [] then
      with_fleets (fun () ->
          Ovsync.Timedwait.wait fleets_mutex prober_cond ~until:!next)
  done

(* Synchronously probe every member once, regardless of schedule.  The
   prober thread does this on its own clock; tests call it to advance
   the health machine deterministically. *)
let probe_now t =
  List.iter
    (fun m -> probe_member t m)
    (with_lock t (fun () -> t.f_members))

let ensure_prober () =
  with_fleets (fun () ->
      if !prober_spawned = 0 then begin
        incr prober_spawned;
        ignore (Thread.create prober_loop ())
      end)

(* ------------------------------------------------------------------ *)
(* Member connections                                                  *)
(* ------------------------------------------------------------------ *)

let member_ops t m =
  match with_lock t (fun () -> m.m_ops) with
  | Some (ops, _) -> Ok ops
  | None ->
    let* uri = Vuri.parse m.m_uri in
    let* ops = Driver.open_uri uri in
    let keep =
      with_lock t (fun () ->
          match m.m_ops with
          | Some (existing, _) -> `Lost existing
          | None when not (List.memq m t.f_members) ->
            (* Removed while this was opening: nobody would close it. *)
            `Gone
          | None ->
            (* Forward member lifecycle events onto the fleet bus, so one
               subscription on the controller observes the whole fleet. *)
            let sub =
              Events.subscribe ops.Driver.events (fun ev ->
                  Events.emit t.f_events ~domain_name:ev.Events.domain_name
                    ev.Events.lifecycle)
            in
            m.m_ops <- Some (ops, sub);
            `Won)
    in
    (match keep with
     | `Lost existing ->
       ops.Driver.close ();
       Ok existing
     | `Gone ->
       ops.Driver.close ();
       Verror.error Verror.No_connect "member %s left the fleet" m.m_name
     | `Won -> Ok ops)

(* Close a member's connection and stop forwarding its events; a later
   [member_ops] opens a fresh one. *)
let close_member t m =
  let conn =
    with_lock t (fun () ->
        let c = m.m_ops in
        m.m_ops <- None;
        c)
  in
  match conn with
  | None -> ()
  | Some (ops, sub) ->
    Events.unsubscribe ops.Driver.events sub;
    ops.Driver.close ()

let find_member t name =
  with_lock t (fun () ->
      List.find_opt (fun m -> m.m_name = name) t.f_members)

let member_names t = with_lock t (fun () -> List.map (fun m -> m.m_name) t.f_members)

(* ------------------------------------------------------------------ *)
(* Scatter-gather with per-shard deadline slices                       *)
(* ------------------------------------------------------------------ *)

(* Each shard's slice: the configured per-shard budget, clamped to
   whatever remains of the request deadline when the call arrived
   through a daemon dispatch (reqctx installed it on this thread).
   Shards run in parallel, so every shard shares the same absolute
   sub-deadline — a slow shard can burn its slice without extending the
   caller's wait past one slice. *)
let slice_deadline t =
  let now = Unix.gettimeofday () in
  let slice =
    match Reqctx.remaining_s () with
    | Some r -> Float.min t.f_shard_slice_s (Float.max 0. r)
    | None -> t.f_shard_slice_s
  in
  now +. slice

let shard_err member code fmt =
  Printf.ksprintf
    (fun msg -> Driver.{ se_member = member; se_error = Verror.make code msg })
    fmt

(* Run [job] against every non-Down member in parallel and gather until
   every shard answered or the slice deadline passed.  Down members are
   skipped instantly (their breaker is open — re-probing them is the
   prober's job, not the data path's).  Shards run on spare threads, so
   a scatter creates none once the process has seen as many shards at
   once.  A shard that outlives the deadline is abandoned: its late
   result lands in a cell nobody reads, its member is charged a failure,
   and its thread parks again only when the late call returns. *)
let scatter t job =
  let members = with_lock t (fun () -> t.f_members) in
  let deadline = slice_deadline t in
  let gm = Mutex.create () in
  let gc = Condition.create () in
  let arrived : (string * ('a, Verror.t) result) list ref = ref [] in
  let pending = ref 0 in
  let live, down =
    List.partition
      (fun m -> with_lock t (fun () -> m.m_health <> Driver.Mh_down))
      members
  in
  List.iter
    (fun m ->
      incr pending;
      Ovsync.Spare_threads.run shard_threads (fun () ->
          let r =
            try
              match member_ops t m with
              | Ok ops -> job m ops
              | Error e -> Error e
            with
            | Verror.Virt_error e -> Error e
            | exn ->
              Verror.error Verror.Internal_error "member %s: %s" m.m_name
                (Printexc.to_string exn)
          in
          Mutex.lock gm;
          arrived := (m.m_name, r) :: !arrived;
          decr pending;
          Condition.broadcast gc;
          Mutex.unlock gm))
    live;
  Mutex.lock gm;
  while !pending > 0 && Unix.gettimeofday () < deadline do
    Ovsync.Timedwait.wait gm gc ~until:deadline
  done;
  let got = !arrived in
  Mutex.unlock gm;
  let ok, errors =
    List.fold_left
      (fun (ok, errors) m ->
        match List.assoc_opt m.m_name got with
        | Some (Ok v) ->
          with_lock t (fun () -> note_success_locked t m);
          ((m.m_name, v) :: ok, errors)
        | Some (Error e) ->
          with_lock t (fun () -> note_failure_locked t m);
          (ok, Driver.{ se_member = m.m_name; se_error = e } :: errors)
        | None ->
          (* Timed out: the shard gets its slice and no more. *)
          with_lock t (fun () -> note_failure_locked t m);
          ( ok,
            shard_err m.m_name Verror.Operation_failed
              "per-shard deadline slice (%.3fs) exceeded" t.f_shard_slice_s
            :: errors ))
      ([], []) live
  in
  (* A success only moves a member's next probe later. *)
  if errors <> [] then poke_prober ();
  let errors =
    List.fold_left
      (fun errors m ->
        shard_err m.m_name Verror.No_connect "member down (probe circuit open)"
        :: errors)
      errors down
  in
  (List.rev ok, errors, List.length members)

let is_active = function Vmm.Vm_state.Shutoff -> false | _ -> true

(* Merge per-member listings, deduplicating by UUID.  A domain may be
   momentarily defined on two members mid-migration (reserved on the
   destination while still running on the source); the running row wins,
   so nothing is ever double-counted. *)
let merge_records per_member =
  let rows =
    List.fold_left (fun n (_, records) -> n + List.length records) 0 per_member
  in
  (* Sized for every row up front: the table never grows mid-merge. *)
  let seen : (Uuid.t, Driver.domain_record) Hashtbl.t = Hashtbl.create rows in
  let order = ref [] in
  List.iter
    (fun (_member, records) ->
      List.iter
        (fun (r : Driver.domain_record) ->
          let key = r.Driver.rec_ref.Driver.dom_uuid in
          match Hashtbl.find_opt seen key with
          | None ->
            Hashtbl.replace seen key r;
            order := key :: !order
          | Some prev ->
            if
              is_active r.Driver.rec_info.Driver.di_state
              && not (is_active prev.Driver.rec_info.Driver.di_state)
            then Hashtbl.replace seen key r)
        records)
    per_member;
  List.rev_map (fun key -> Hashtbl.find seen key) !order

type repeat = Same_lists | Same_names | Changed

(* The one test of whether a listing repeats the last one.  A member
   connection hands back the very list it returned last time when its
   reply repeats (see the remote driver); a state change alone gives a
   new list of the same names.  [last] and [per_member] pair member
   names with lists; the names must match in order. *)
let repeat_of last per_member =
  let same_names rs rs' =
    List.equal
      (fun (r : Driver.domain_record) (r' : Driver.domain_record) ->
        String.equal r.Driver.rec_ref.Driver.dom_name r'.Driver.rec_ref.Driver.dom_name)
      rs rs'
  in
  let rec go verdict last per_member =
    match (last, per_member) with
    | [], [] -> verdict
    | (n, rs) :: last, (n', rs') :: per_member when String.equal n n' ->
      if rs == rs' then go verdict last per_member
      else if same_names rs rs' then go Same_names last per_member
      else Changed
    | _ -> Changed
  in
  go Same_lists last per_member

(* Learn locations and per-member domain counts from every row: the
   last member to list a name owns it.  Callers hold [f_mutex]. *)
let learn_locked t per_member =
  List.iter
    (fun (name, records) ->
      let n = List.length records in
      (match List.find_opt (fun m -> m.m_name = name) t.f_members with
       | Some m -> m.m_domains <- n
       | None -> ());
      t.f_locations_learned <- t.f_locations_learned + n;
      List.iter
        (fun (r : Driver.domain_record) ->
          Hashtbl.replace t.f_locations r.Driver.rec_ref.Driver.dom_name name)
        records)
    per_member

let scatter_list t =
  let per_member, errors, members =
    scatter t (fun _m ops -> Driver.list_all ops)
  in
  let merged =
    with_lock t (fun () ->
        let last = t.f_learned in
        let repeat = repeat_of last.ln_lists per_member in
        (* The same members listing the same names in the same order
           each own the same names as when [last] was learned, and count
           as many: learning them again changes nothing in a table no
           write has touched since. *)
        if repeat = Changed || last.ln_version <> t.f_loc_version then
          learn_locked t per_member;
        let merged =
          if repeat = Same_lists then last.ln_merged else merge_records per_member
        in
        t.f_learned <-
          { ln_lists = per_member; ln_merged = merged; ln_version = t.f_loc_version };
        merged)
  in
  Driver.
    {
      fl_records = merged;
      fl_shard_errors = errors;
      fl_members = members;
    }

(* Listing through the driver surface: shard errors degrade the reply
   and are counted so partial-failure exit codes surface in the CLI. *)
let listing_counted t =
  let listing = scatter_list t in
  with_lock t (fun () ->
      t.f_sub_errors <-
        t.f_sub_errors + List.length listing.Driver.fl_shard_errors);
  listing

(* ------------------------------------------------------------------ *)
(* Ownership and routing                                               *)
(* ------------------------------------------------------------------ *)

let owner_of t name =
  match
    with_lock t (fun () ->
        match Hashtbl.find_opt t.f_locations name with
        | Some member when List.exists (fun m -> m.m_name = member) t.f_members
          ->
          Some member
        | _ -> None)
  with
  | Some member -> Ok member
  | None -> (
    (* Location unknown: refresh the table with one scatter. *)
    let (_ : Driver.fleet_listing) = scatter_list t in
    match with_lock t (fun () -> Hashtbl.find_opt t.f_locations name) with
    | Some member -> Ok member
    | None ->
      Verror.error Verror.No_domain "no domain with name %S on any member" name)

let routed t name f =
  let* owner = owner_of t name in
  match find_member t owner with
  | None ->
    Verror.error Verror.No_connect "member %s left the fleet" owner
  | Some m ->
    if with_lock t (fun () -> m.m_health = Driver.Mh_down) then
      Verror.error Verror.No_connect
        "domain %S is owned by member %s, which is down" name m.m_name
    else
      let* ops = member_ops t m in
      let r =
        try f m ops
        with Verror.Virt_error e -> Error e
      in
      (match r with
       | Ok _ -> with_lock t (fun () -> note_success_locked t m)
       | Error err ->
         (* The domain genuinely not being there is a stale location, not
            a sick member. *)
         (match err.Verror.code with
          | Verror.No_domain ->
            with_lock t (fun () ->
                relocate_locked t (fun locs -> Hashtbl.remove locs name))
          | _ -> with_lock t (fun () -> note_failure_locked t m)));
      r

(* Define routes by placement: the domain does not exist yet, so its
   UUID (from the XML) decides the member. *)
let fleet_define t xml =
  match Vmm.Domxml.of_xml xml with
  | Error msg -> Verror.error Verror.Invalid_arg "bad domain XML: %s" msg
  | Ok (cfg, _) -> (
    let names = member_names t in
    if names = [] then
      Verror.error Verror.Operation_failed "fleet %s has no members" t.f_name
    else
      let owner = t.f_place cfg.Vmm.Vm_config.uuid names in
      match find_member t owner with
      | None ->
        Verror.error Verror.Internal_error
          "placement chose %S, which is not a member" owner
      | Some m ->
        if with_lock t (fun () -> m.m_health = Driver.Mh_down) then
          Verror.error Verror.No_connect
            "placement owner %s is down; refusing to define elsewhere (a \
             second copy would split-brain on recovery)"
            m.m_name
        else
          let* ops = member_ops t m in
          let* dref = ops.Driver.define_xml xml in
          with_lock t (fun () ->
              note_success_locked t m;
              relocate_locked t (fun locs ->
                  Hashtbl.replace locs dref.Driver.dom_name m.m_name));
          Ok dref)

(* ------------------------------------------------------------------ *)
(* Journaled cross-daemon migration                                    *)
(* ------------------------------------------------------------------ *)

(* Journal records: phase-tagged, '\x1f'-separated fields.  The begin
   record carries everything recovery needs (domain, source,
   destination, run state, config XML); later records only advance the
   phase.  Phases, in order:

     begin      -> destination may or may not hold a reservation
     reserved   -> destination holds a defined (stopped) copy
     switchover -> THE COMMIT POINT: roll forward from here
     finished   -> domain runs on the destination; source may linger
     end        -> source released; migration complete
     abort      -> rolled back; source untouched and authoritative

   Crash before [switchover]: roll back (undefine the reservation; the
   source was never stopped).  Crash at/after: roll forward (stop and
   release the source, ensure the destination runs).  Every recovery
   step is idempotent, so recovering a recovery converges too. *)

let sep = '\x1f'

let enc_rec fields = String.concat (String.make 1 sep) fields
let dec_rec record = String.split_on_char sep record

type mig = {
  mutable g_phase : string;
  g_domain : string;
  g_src : string;
  g_dest : string;
  g_running : bool;
  g_xml : string;
}

(* Crash injection seam: called at every journaled boundary with the
   phase just made durable.  The crash-point sweep makes it raise,
   simulating a controller death mid-handshake — the exception escapes
   without running the in-process rollback, exactly as a kill would. *)
let crash_hook : (string -> unit) ref = ref (fun _ -> ())

let phase_rank = function
  | "begin" -> 0
  | "reserved" -> 1
  | "switchover" -> 2
  | "finished" -> 3
  | _ -> 4

(* Replay the journal into the set of unfinished migrations. *)
let unfinished_migrations records =
  let tbl : (string, mig) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun record ->
      match dec_rec record with
      | [ "begin"; domain; src; dest; running; xml ] ->
        Hashtbl.replace tbl domain
          {
            g_phase = "begin";
            g_domain = domain;
            g_src = src;
            g_dest = dest;
            g_running = running = "1";
            g_xml = xml;
          }
      | [ ("reserved" | "switchover" | "finished") as phase; domain ] -> (
        match Hashtbl.find_opt tbl domain with
        | Some g when phase_rank phase > phase_rank g.g_phase ->
          g.g_phase <- phase
        | _ -> ())
      | [ ("end" | "abort"); domain ] -> Hashtbl.remove tbl domain
      | _ -> ())
    records;
  Hashtbl.fold (fun _ g acc -> g :: acc) tbl []

let dom_state ops name =
  match ops.Driver.dom_get_info name with
  | Ok info -> Some info.Driver.di_state
  | Error _ -> None

(* Idempotent recovery primitives: each checks before acting, so a
   half-applied step re-applies cleanly. *)
let ensure_stopped ops name =
  match dom_state ops name with
  | Some s when is_active s -> ignore (ops.Driver.dom_destroy name)
  | _ -> ()

let ensure_running ops name =
  match dom_state ops name with
  | Some Vmm.Vm_state.Shutoff -> ignore (ops.Driver.dom_create name)
  | _ -> ()

let ensure_defined ops name xml =
  match dom_state ops name with
  | None -> ignore (ops.Driver.define_xml xml)
  | Some _ -> ()

let ensure_absent ops name =
  ensure_stopped ops name;
  match dom_state ops name with
  | Some _ -> ignore (ops.Driver.undefine name)
  | None -> ()

let member_ops_by_name t name =
  match find_member t name with
  | None -> Error (Verror.make Verror.No_connect ("member left the fleet: " ^ name))
  | Some m -> member_ops t m

(* Roll one unfinished migration to a safe state.  Pre-switchover the
   source is authoritative: drop any reservation and keep the source as
   it was.  Post-switchover the destination is authoritative: finish
   the handshake.  Either way exactly one member ends up owning the
   domain — the no-lost-domain / no-split-brain invariant. *)
let recover_migration t (g : mig) =
  let src = member_ops_by_name t g.g_src in
  let dest = member_ops_by_name t g.g_dest in
  match (src, dest) with
  | Error _, _ | _, Error _ ->
    (* A member is gone entirely; leave the record for the next
       recovery rather than guess. *)
    ()
  | Ok src, Ok dest ->
    if phase_rank g.g_phase >= phase_rank "switchover" then begin
      (* Roll forward. *)
      ensure_stopped src g.g_domain;
      ensure_absent src g.g_domain;
      ensure_defined dest g.g_domain g.g_xml;
      if g.g_running then ensure_running dest g.g_domain;
      with_lock t (fun () ->
          relocate_locked t (fun locs -> Hashtbl.replace locs g.g_domain g.g_dest);
          t.f_migrations_recovered <- t.f_migrations_recovered + 1);
      Journal.append t.f_journal (enc_rec [ "end"; g.g_domain ])
    end
    else begin
      (* Roll back: the reservation (if any) is the only thing to undo.
         The source was never stopped before the switchover record, so
         it is still running if it was. *)
      ensure_absent dest g.g_domain;
      if g.g_running then ensure_running src g.g_domain;
      with_lock t (fun () ->
          relocate_locked t (fun locs -> Hashtbl.replace locs g.g_domain g.g_src);
          t.f_migrations_rolled_back <- t.f_migrations_rolled_back + 1);
      Journal.append t.f_journal (enc_rec [ "abort"; g.g_domain ])
    end

let recover t records =
  List.iter (fun g -> recover_migration t g) (unfinished_migrations records)

let fleet_migrate t ~domain ~dest =
  let* src_name = owner_of t domain in
  if src_name = dest then
    Verror.error Verror.Operation_invalid "domain %S is already on member %s"
      domain dest
  else
    let* src = member_ops_by_name t src_name in
    let* dst = member_ops_by_name t dest in
    let* info = src.Driver.dom_get_info domain in
    let* xml = src.Driver.dom_get_xml domain in
    let was_running = is_active info.Driver.di_state in
    with_lock t (fun () ->
        t.f_migrations_active <- t.f_migrations_active + 1);
    let finish_active () =
      with_lock t (fun () ->
          t.f_migrations_active <- t.f_migrations_active - 1)
    in
    let rollback err =
      ensure_absent dst domain;
      if was_running then ensure_running src domain;
      with_lock t (fun () ->
          relocate_locked t (fun locs -> Hashtbl.replace locs domain src_name);
          t.f_migrations_rolled_back <- t.f_migrations_rolled_back + 1);
      Journal.append t.f_journal (enc_rec [ "abort"; domain ]);
      finish_active ();
      Error err
    in
    Journal.append t.f_journal
      (enc_rec
         [ "begin"; domain; src_name; dest; (if was_running then "1" else "0");
           xml ]);
    !crash_hook "begin";
    (* Phase 1: reserve on the destination.  The copy travels with the
       reservation — config XML now, the managed-save image model is the
       same "define first, animate later" shape. *)
    match dst.Driver.define_xml xml with
    | Error err -> rollback err
    | Ok _ -> (
      Journal.append t.f_journal (enc_rec [ "reserved"; domain ]);
      !crash_hook "reserved";
      (* Phase 2: switchover.  Writing the record IS the commit point:
         from here recovery rolls forward, so the stop/start below can
         crash anywhere without losing the domain. *)
      Journal.append t.f_journal (enc_rec [ "switchover"; domain ]);
      !crash_hook "switchover";
      ensure_stopped src domain;
      let started =
        if was_running then dst.Driver.dom_create domain else Ok ()
      in
      match started with
      | Error err ->
        (* Past the commit point a destination start failure still rolls
           forward (recovery would): retry via the idempotent path. *)
        ensure_running dst domain;
        (match dom_state dst domain with
         | Some s when is_active s ->
           Journal.append t.f_journal (enc_rec [ "finished"; domain ]);
           !crash_hook "finished";
           ensure_absent src domain;
           !crash_hook "released";
           with_lock t (fun () ->
               relocate_locked t (fun locs -> Hashtbl.replace locs domain dest));
           Journal.append t.f_journal (enc_rec [ "end"; domain ]);
           !crash_hook "end";
           finish_active ();
           Events.emit t.f_events ~domain_name:domain Events.Ev_migrated;
           Ok ()
         | _ ->
           finish_active ();
           Error err)
      | Ok () ->
        Journal.append t.f_journal (enc_rec [ "finished"; domain ]);
        !crash_hook "finished";
        (* Release: the source copy is now just a stale definition. *)
        ensure_absent src domain;
        !crash_hook "released";
        with_lock t (fun () ->
            relocate_locked t (fun locs -> Hashtbl.replace locs domain dest));
        Journal.append t.f_journal (enc_rec [ "end"; domain ]);
        !crash_hook "end";
        finish_active ();
        Events.emit t.f_events ~domain_name:domain Events.Ev_migrated;
        Ok ())

(* ------------------------------------------------------------------ *)
(* Status                                                              *)
(* ------------------------------------------------------------------ *)

let status t =
  with_lock t (fun () ->
      Driver.
        {
          fs_fleet = t.f_name;
          fs_members =
            List.map
              (fun m ->
                {
                  ms_name = m.m_name;
                  ms_health = m.m_health;
                  ms_consec_failures = m.m_consec_failures;
                  ms_probes = m.m_probes;
                  ms_failures = m.m_failures;
                  ms_domains = m.m_domains;
                })
              t.f_members;
          fs_migrations_active = t.f_migrations_active;
          fs_migrations_recovered = t.f_migrations_recovered;
          fs_migrations_rolled_back = t.f_migrations_rolled_back;
        })

(* ------------------------------------------------------------------ *)
(* The fleet's driver surface                                          *)
(* ------------------------------------------------------------------ *)

let capabilities t =
  Capabilities.
    {
      driver_name = "fleet";
      virt_kind = "federated";
      stateful = false;
      guest_os_kinds = [];
      features = [ Feat_define; Feat_start; Feat_destroy; Feat_shutdown ];
      host =
        {
          host_name = t.f_name;
          host_memory_kib = 0;
          host_cpus = 0;
          host_mhz = 0;
          host_arch = "fleet";
        };
    }

let fleet_view t =
  Driver.
    {
      fleet_list_all = (fun () -> Ok (listing_counted t));
      fleet_status = (fun () -> Ok (status t));
      fleet_migrate = (fun ~domain ~dest -> fleet_migrate t ~domain ~dest);
      fleet_owner = (fun name -> owner_of t name);
    }

let ops_of t =
  let list_refs pred () =
    let listing = listing_counted t in
    Ok
      (List.filter_map
         (fun (r : Driver.domain_record) ->
           if pred r.Driver.rec_info.Driver.di_state then
             Some r.Driver.rec_ref
           else None)
         listing.Driver.fl_records)
  in
  Driver.make_ops ~drv_name:"fleet"
    ~get_capabilities:(fun () -> capabilities t)
    ~get_hostname:(fun () -> t.f_name)
    ~list_domains:(list_refs is_active)
    ~list_defined:(fun () ->
      let* refs = list_refs (fun s -> not (is_active s)) () in
      Ok (List.map (fun r -> r.Driver.dom_name) refs))
    ~lookup_by_name:(fun name ->
      routed t name (fun _ ops -> ops.Driver.lookup_by_name name))
    ~lookup_by_uuid:(fun uuid ->
      let listing = listing_counted t in
      match
        List.find_opt
          (fun (r : Driver.domain_record) ->
            Uuid.equal r.Driver.rec_ref.Driver.dom_uuid uuid)
          listing.Driver.fl_records
      with
      | Some r -> Ok r.Driver.rec_ref
      | None ->
        Verror.error Verror.No_domain "no domain with uuid %s on any member"
          (Uuid.to_string uuid))
    ~define_xml:(fun xml -> fleet_define t xml)
    ~undefine:(fun name ->
      let* () = routed t name (fun _ ops -> ops.Driver.undefine name) in
      with_lock t (fun () -> relocate_locked t (fun locs -> Hashtbl.remove locs name));
      Ok ())
    ~dom_create:(fun name -> routed t name (fun _ ops -> ops.Driver.dom_create name))
    ~dom_suspend:(fun name ->
      routed t name (fun _ ops -> ops.Driver.dom_suspend name))
    ~dom_resume:(fun name -> routed t name (fun _ ops -> ops.Driver.dom_resume name))
    ~dom_shutdown:(fun name ->
      routed t name (fun _ ops -> ops.Driver.dom_shutdown name))
    ~dom_destroy:(fun name ->
      routed t name (fun _ ops -> ops.Driver.dom_destroy name))
    ~dom_get_info:(fun name ->
      routed t name (fun _ ops -> ops.Driver.dom_get_info name))
    ~dom_get_xml:(fun name ->
      routed t name (fun _ ops -> ops.Driver.dom_get_xml name))
    ~dom_set_memory:(fun name kib ->
      routed t name (fun _ ops -> ops.Driver.dom_set_memory name kib))
    ~dom_set_autostart:(fun name flag ->
      routed t name (fun _ ops ->
          match ops.Driver.dom_set_autostart with
          | Some f -> f name flag
          | None -> Driver.unsupported ~drv:"fleet" ~op:"autostart"))
    ~dom_get_autostart:(fun name ->
      routed t name (fun _ ops ->
          match ops.Driver.dom_get_autostart with
          | Some f -> f name
          | None -> Driver.unsupported ~drv:"fleet" ~op:"autostart"))
    ~dom_list_all:(fun () ->
      Ok (listing_counted t).Driver.fl_records)
    ~fleet:(fleet_view t) ~events:t.f_events ()

(* ------------------------------------------------------------------ *)
(* Stats for direct fleet:// connections                               *)
(* ------------------------------------------------------------------ *)

type stats = { st_sub_errors : int; st_locations_learned : int }

(* The CLI's partial-failure accounting: a fleet connection is matched
   by its event bus (the one physical token every ops built from this
   fleet shares), mirroring the remote driver's [conn_stats]. *)
let conn_stats (ops : Driver.ops) =
  with_fleets (fun () ->
      Hashtbl.fold
        (fun _ t acc ->
          match acc with
          | Some _ -> acc
          | None ->
            if t.f_events == ops.Driver.events then
              with_lock t (fun () ->
                  Some
                    {
                      st_sub_errors = t.f_sub_errors;
                      st_locations_learned = t.f_locations_learned;
                    })
            else None)
        fleets None)

(* ------------------------------------------------------------------ *)
(* Fleet lifecycle                                                     *)
(* ------------------------------------------------------------------ *)

let journal_dir = "/var/lib/ovirt/fleet/"

(* Probe endpoint for a member URI: the daemon's management socket, by
   the same naming rule the remote driver uses. *)
let probe_endpoint uri_string =
  match Vuri.parse uri_string with
  | Error _ -> ("ovirtd-sock", Ovnet.Transport.Unix_sock)
  | Ok uri ->
    let daemon = Option.value (Vuri.param uri "daemon") ~default:"ovirtd" in
    let kind =
      match uri.Vuri.transport with
      | Some "tcp" -> Ovnet.Transport.Tcp
      | Some "tls" -> Ovnet.Transport.Tls
      | Some _ | None -> Ovnet.Transport.Unix_sock
    in
    (daemon ^ "-sock", kind)

let make_member t ~name ~uri =
  let address, kind = probe_endpoint uri in
  {
    m_name = name;
    m_uri = uri;
    m_probe_address = address;
    m_probe_kind = kind;
    m_ops = None;
    m_health = Driver.Mh_up;
    m_consec_failures = 0;
    m_consec_successes = 0;
    m_probes = 0;
    m_failures = 0;
    m_domains = -1;
    m_next_probe = Unix.gettimeofday () +. t.f_probe_interval_s;
    m_backoff_s = t.f_probe_interval_s;
  }

let add_member t ~name ~uri =
  with_lock t (fun () ->
      if List.exists (fun m -> m.m_name = name) t.f_members then
        Verror.error Verror.Dup_name "member %S already in fleet %s" name
          t.f_name
      else begin
        t.f_members <- t.f_members @ [ make_member t ~name ~uri ];
        Ok ()
      end)
  |> fun r ->
  poke_prober ();
  r

(* The bump comes even when the member owned no location: a member
   re-added under the name starts uncounted, and its first listing may
   be the very list the old one returned. *)
let remove_member t name =
  let gone =
    with_lock t (fun () ->
        let gone, kept = List.partition (fun m -> m.m_name = name) t.f_members in
        t.f_members <- kept;
        relocate_locked t
          (Hashtbl.filter_map_inplace (fun _ owner ->
               if owner = name then None else Some owner));
        gone)
  in
  List.iter (close_member t) gone

let find name = with_fleets (fun () -> Hashtbl.find_opt fleets name)

let install_status_hook () =
  Driver.set_fleet_status_hook (fun () ->
      let all =
        with_fleets (fun () -> Hashtbl.fold (fun _ t acc -> t :: acc) fleets [])
      in
      List.map status
        (List.sort (fun a b -> compare a.f_name b.f_name) all))

let close_members t = List.iter (close_member t) (with_lock t (fun () -> t.f_members))

(* Create (or re-create) a fleet.  Re-creating under the same name
   models a controller restart: the new instance replays the journal
   and converges every migration the old one left mid-flight, then
   replaces the old instance in the registry (latest wins) and closes
   its member connections, as [dissolve] does. *)
let create ~name ?(members = []) ?place ?(shard_slice_s = 1.0)
    ?(probe_interval_s = 0.5) ?(probe_timeout_s = 0.25) ?(down_threshold = 3)
    () =
  let journal, replay = Journal.open_ (journal_dir ^ name ^ ".journal") in
  let t =
    {
      f_name = name;
      f_mutex = Mutex.create ();
      f_members = [];
      f_place = Option.value place ~default:consistent_hash_place;
      f_shard_slice_s = shard_slice_s;
      f_probe_interval_s = probe_interval_s;
      f_probe_timeout_s = probe_timeout_s;
      f_down_threshold = down_threshold;
      f_locations = Hashtbl.create 64;
      f_loc_version = 0;
      f_learned = { ln_lists = []; ln_merged = []; ln_version = 0 };
      f_locations_learned = 0;
      f_events = Events.create_bus ();
      f_journal = journal;
      f_sub_errors = 0;
      f_migrations_active = 0;
      f_migrations_recovered = 0;
      f_migrations_rolled_back = 0;
    }
  in
  List.iter
    (fun (mname, uri) ->
      t.f_members <- t.f_members @ [ make_member t ~name:mname ~uri ])
    members;
  recover t replay.Journal.rp_records;
  let replaced =
    with_fleets (fun () ->
        let old = Hashtbl.find_opt fleets name in
        Hashtbl.replace fleets name t;
        Condition.broadcast prober_cond;
        old)
  in
  Option.iter close_members replaced;
  install_status_hook ();
  ensure_prober ();
  t

let name t = t.f_name

let dissolve name =
  Option.iter close_members
    (with_fleets (fun () ->
         let t = Hashtbl.find_opt fleets name in
         Hashtbl.remove fleets name;
         t))

(* ------------------------------------------------------------------ *)
(* Driver registration                                                 *)
(* ------------------------------------------------------------------ *)

let fleet_of_uri uri =
  match uri.Vuri.host with
  | Some host when host <> "" -> host
  | _ -> (
    match uri.Vuri.path with
    | "" | "/" -> ""
    | path -> String.sub path 1 (String.length path - 1))

(* fleet:///NAME opens the named in-process fleet.  Through a daemon the
   client says fleet+unix:///NAME?daemon=X: the remote driver forwards
   it, the daemon strips the transport and lands back here — the
   controller is just a daemon whose driver happens to federate. *)
let register () =
  Driver.register
    {
      Driver.reg_name = "fleet";
      probe =
        (fun uri -> uri.Vuri.scheme = "fleet" && uri.Vuri.transport = None);
      open_conn =
        (fun uri ->
          let fname = fleet_of_uri uri in
          match find fname with
          | Some t -> Ok (ops_of t)
          | None ->
            Verror.error Verror.No_connect "no fleet named %S in this process"
              fname);
    }
