(* Declarative desired-state reconciliation.

   The engine holds one declared {!Dompolicy.t} per (uri, domain) and a
   convergence loop that diffs spec against actual run-state, plans the
   minimal set of lifecycle operations, and applies them under a
   [parallel_shutdown] concurrency bound.  Every plan is journaled
   through {!Persist.Journal} *before* application and checkpointed
   per-op, so a daemon kill at any point resumes (or safely skips) the
   plan on restart: the invariant is "spec eventually holds despite
   kills at any point", with exactly-once side effects guaranteed by a
   per-op precondition check on resume.

   Journal record formats (tag byte + length-prefixed fields):
     'P' uri name b s r      policy declared (b/s/r = Dompolicy codes)
     'X' uri name            policy cleared
     'B' id kind n op*       plan begin, ops = (uri, name, op_kind)*
     'C' id idx ok applied   per-op checkpoint (applied=1: side effect ran)
     'E' id                  plan complete
     'F' uri name n          divergence attempt counter (n=0 resets)

   A 'B' without its 'E' is a plan interrupted by a crash.  Convergence
   plans are resumed op-by-op (skipping checkpointed ops and ops whose
   postcondition already holds — the kill-between-apply-and-checkpoint
   window).  Drain plans (kind=1, the on_shutdown pass) are abandoned on
   replay instead: after a restart the boot semantics take over, and
   finishing a half-done shutdown sweep would fight them. *)

open Ovirt_core
module Journal = Persist.Journal

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)
(* ------------------------------------------------------------------ *)

type op_kind = Op_start | Op_resume | Op_shutdown | Op_save

type op = { op_uri : string; op_name : string; op_kind : op_kind }

let op_kind_name = function
  | Op_start -> "start"
  | Op_resume -> "resume"
  | Op_shutdown -> "shutdown"
  | Op_save -> "save"

let op_kind_to_int = function
  | Op_start -> 0
  | Op_resume -> 1
  | Op_shutdown -> 2
  | Op_save -> 3

let op_kind_of_int = function
  | 0 -> Some Op_start
  | 1 -> Some Op_resume
  | 2 -> Some Op_shutdown
  | 3 -> Some Op_save
  | _ -> None

(* The postcondition the op establishes.  Checked before applying — on
   plan resume this is what makes re-application safe: if the crash fell
   between the side effect and its checkpoint, the state already holds
   and the op is skipped, never duplicated. *)
let op_satisfied kind (state : Vmm.Vm_state.state option) =
  match kind, state with
  | Op_start, Some s -> Vmm.Vm_state.is_active s
  | Op_start, None -> false
  | Op_resume, Some (Running | Blocked) -> true
  | Op_resume, _ -> false
  | Op_shutdown, Some s -> not (Vmm.Vm_state.is_active s)
  | Op_shutdown, None -> true
  | Op_save, Some Running -> false
  | Op_save, _ -> true

(* ------------------------------------------------------------------ *)
(* IO surface                                                          *)
(* ------------------------------------------------------------------ *)

(* The engine never touches a driver directly; the daemon supplies the
   IO surface (listing via the drvnode registry, application through
   the batch-proc dispatch path under a reqctx deadline budget).  Tests
   supply stubs. *)
type io = {
  io_actual :
    string -> ((string * Vmm.Vm_state.state) list, Verror.t) result;
      (** all domains and their states on [uri] *)
  io_state :
    string -> string -> (Vmm.Vm_state.state option, Verror.t) result;
      (** one domain's state; [Ok None] when undefined *)
  io_apply : string -> op -> (unit, Verror.t) result;
      (** apply one lifecycle op (daemon: through the batch dispatch
          path, bounded by a per-op deadline) *)
  io_log : string -> unit;
}

type config = {
  rcfg_interval_s : float;
  rcfg_parallel : int;  (** parallel_shutdown: concurrent op bound *)
  rcfg_diverged_after : int;  (** failed attempts before Diverged *)
  rcfg_backoff_base_s : float;
  rcfg_backoff_cap_s : float;
  rcfg_compact_factor : int;  (** journal compaction: factor·|specs|+slack *)
  rcfg_compact_slack : int;
}

let default_config =
  {
    rcfg_interval_s = 2.0;
    rcfg_parallel = 4;
    rcfg_diverged_after = 3;
    rcfg_backoff_base_s = 0.25;
    rcfg_backoff_cap_s = 30.0;
    rcfg_compact_factor = 4;
    rcfg_compact_slack = 16;
  }

(* ------------------------------------------------------------------ *)
(* Status                                                              *)
(* ------------------------------------------------------------------ *)

type status = St_converged | St_pending | St_diverged

let status_name = function
  | St_converged -> "converged"
  | St_pending -> "pending"
  | St_diverged -> "diverged"

type dom_status = {
  ds_uri : string;
  ds_name : string;
  ds_policy : Dompolicy.t;
  ds_status : status;
  ds_attempts : int;
  ds_retry_in_s : float;  (** 0. when no retry is scheduled *)
  ds_last_error : string;  (** "" when none *)
}

type summary = {
  sum_specs : int;
  sum_converged : int;
  sum_pending : int;
  sum_diverged : int;
  sum_plans : int;  (** plans journaled by this incarnation *)
  sum_ops_applied : int;  (** side effects actually performed *)
  sum_ops_skipped : int;  (** postcondition already held *)
  sum_ops_failed : int;
  sum_resumed : bool;  (** this incarnation resumed a journaled plan *)
}

(* ------------------------------------------------------------------ *)
(* Engine state                                                        *)
(* ------------------------------------------------------------------ *)

type attempt = {
  mutable at_count : int;
  mutable at_next : float;  (** absolute; 0. = retry immediately *)
  mutable at_err : string;
}

type plan_kind = Pk_converge | Pk_drain

type plan = {
  pl_id : int;
  pl_kind : plan_kind;
  pl_ops : op array;
  pl_done : bool array;
}

type t = {
  io : io;
  cfg : config;
  j : Journal.t;
  m : Mutex.t;
  specs : (string * string, Dompolicy.t) Hashtbl.t;
  attempts : (string * string, attempt) Hashtbl.t;
  unconverged : (string * string, unit) Hashtbl.t;
      (* keys that had a planned op or failure at the last pass *)
  mutable pending : plan option;
  mutable next_id : int;
  mutable booted : bool;  (* on_boot pass done this incarnation *)
  mutable stopping : bool;
  mutable kicked : bool;
  wake : Condition.t;  (* signalled by kicks and [stop] *)
  mutable thread : Thread.t option;
  mutable plans : int;
  mutable ops_applied : int;
  mutable ops_skipped : int;
  mutable ops_failed : int;
  mutable resumed : bool;
}

(* Crash-injection hook for the chaos sweeps: called at the named sites;
   raising aborts the pass exactly as a daemon kill would (journal and
   hypervisor state left as they are). *)
let crash_hook : (string -> unit) ref = ref (fun _ -> ())

let with_lock t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

(* ------------------------------------------------------------------ *)
(* Record encoding                                                     *)
(* ------------------------------------------------------------------ *)

let put_u32 buf v =
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (v land 0xff))

let put_str buf s =
  put_u32 buf (String.length s);
  Buffer.add_string buf s

(* Decoders return [None] on any malformed field: a record that does
   not parse is skipped, the Domstore forward-compatibility rule. *)
let get_u32 s pos =
  if !pos + 4 > String.length s then None
  else begin
    let v =
      (Char.code s.[!pos] lsl 24)
      lor (Char.code s.[!pos + 1] lsl 16)
      lor (Char.code s.[!pos + 2] lsl 8)
      lor Char.code s.[!pos + 3]
    in
    pos := !pos + 4;
    Some v
  end

let get_str s pos =
  match get_u32 s pos with
  | None -> None
  | Some len ->
    if !pos + len > String.length s then None
    else begin
      let v = String.sub s !pos len in
      pos := !pos + len;
      Some v
    end

let get_byte s pos =
  if !pos >= String.length s then None
  else begin
    let v = Char.code s.[!pos] in
    incr pos;
    Some v
  end

let enc_policy uri name (p : Dompolicy.t) =
  let b, s, r = Dompolicy.to_ints p in
  let buf = Buffer.create 64 in
  Buffer.add_char buf 'P';
  put_str buf uri;
  put_str buf name;
  Buffer.add_char buf (Char.chr b);
  Buffer.add_char buf (Char.chr s);
  Buffer.add_char buf (Char.chr r);
  Buffer.contents buf

let enc_clear uri name =
  let buf = Buffer.create 32 in
  Buffer.add_char buf 'X';
  put_str buf uri;
  put_str buf name;
  Buffer.contents buf

let enc_plan_begin id kind ops =
  let buf = Buffer.create 256 in
  Buffer.add_char buf 'B';
  put_u32 buf id;
  Buffer.add_char buf (match kind with Pk_converge -> '\000' | Pk_drain -> '\001');
  put_u32 buf (Array.length ops);
  Array.iter
    (fun o ->
      put_str buf o.op_uri;
      put_str buf o.op_name;
      Buffer.add_char buf (Char.chr (op_kind_to_int o.op_kind)))
    ops;
  Buffer.contents buf

let enc_checkpoint id idx ~ok ~applied =
  let buf = Buffer.create 16 in
  Buffer.add_char buf 'C';
  put_u32 buf id;
  put_u32 buf idx;
  Buffer.add_char buf (if ok then '\001' else '\000');
  Buffer.add_char buf (if applied then '\001' else '\000');
  Buffer.contents buf

let enc_plan_end id =
  let buf = Buffer.create 8 in
  Buffer.add_char buf 'E';
  put_u32 buf id;
  Buffer.contents buf

let enc_attempts uri name n =
  let buf = Buffer.create 32 in
  Buffer.add_char buf 'F';
  put_str buf uri;
  put_str buf name;
  put_u32 buf n;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Backoff                                                             *)
(* ------------------------------------------------------------------ *)

(* Same finalizer family as the journal checksum; the jitter must be a
   pure function of (key, attempt) so replayed backoff state matches
   what the dead incarnation had. *)
let mix x =
  let x = x + 0x9e3779b9 in
  let x = (x lxor (x lsr 30)) * 0x4f6cdd1d in
  let x = (x lxor (x lsr 27)) * 0x2545f491 in
  (x lxor (x lsr 31)) land max_int

let backoff_delay cfg (uri, name) n =
  let base = cfg.rcfg_backoff_base_s *. (2. ** float_of_int (min 16 (n - 1))) in
  let capped = Float.min cfg.rcfg_backoff_cap_s base in
  let h = mix (Hashtbl.hash (uri, name, n)) in
  (* +/- 12.5% deterministic jitter, desynchronizing retry herds *)
  capped *. (1.0 +. ((float_of_int (h mod 256) /. 256.0) -. 0.5) /. 4.0)

(* ------------------------------------------------------------------ *)
(* Journal maintenance (call with the lock held)                       *)
(* ------------------------------------------------------------------ *)

let snapshot_locked t =
  let acc = ref [] in
  Hashtbl.iter (fun (uri, name) p -> acc := enc_policy uri name p :: !acc) t.specs;
  Hashtbl.iter
    (fun (uri, name) a ->
      if a.at_count > 0 then acc := enc_attempts uri name a.at_count :: !acc)
    t.attempts;
  !acc

(* Live set = one 'P' per spec plus the nonzero attempt counters.  A
   pending plan pins the journal: its 'B'/'C' records must survive a
   crash, so compaction waits for the 'E'. *)
let maybe_compact_locked t =
  if t.pending = None then begin
    let live = Hashtbl.length t.specs + Hashtbl.length t.attempts in
    if
      Journal.record_count t.j
      > (t.cfg.rcfg_compact_factor * live) + t.cfg.rcfg_compact_slack
    then Journal.rewrite t.j (snapshot_locked t)
  end

let bump_attempts_locked t key err =
  let a =
    match Hashtbl.find_opt t.attempts key with
    | Some a -> a
    | None ->
      let a = { at_count = 0; at_next = 0.; at_err = "" } in
      Hashtbl.replace t.attempts key a;
      a
  in
  a.at_count <- a.at_count + 1;
  a.at_next <- Unix.gettimeofday () +. backoff_delay t.cfg key a.at_count;
  a.at_err <- err;
  let uri, name = key in
  Journal.append t.j (enc_attempts uri name a.at_count)

let reset_attempts_locked t key =
  if Hashtbl.mem t.attempts key then begin
    Hashtbl.remove t.attempts key;
    let uri, name = key in
    Journal.append t.j (enc_attempts uri name 0)
  end

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

let replay_record t now payload =
  if String.length payload = 0 then ()
  else
    let pos = ref 1 in
    match payload.[0] with
    | 'P' ->
      (match get_str payload pos, get_str payload pos with
       | Some uri, Some name ->
         (match get_byte payload pos, get_byte payload pos, get_byte payload pos with
          | Some b, Some s, Some r ->
            (match Dompolicy.of_ints (b, s, r) with
             | Ok p -> Hashtbl.replace t.specs (uri, name) p
             | Error _ -> ())
          | _ -> ())
       | _ -> ())
    | 'X' ->
      (match get_str payload pos, get_str payload pos with
       | Some uri, Some name ->
         Hashtbl.remove t.specs (uri, name);
         Hashtbl.remove t.attempts (uri, name)
       | _ -> ())
    | 'F' ->
      (match get_str payload pos, get_str payload pos with
       | Some uri, Some name ->
         (match get_u32 payload pos with
          | Some 0 | None -> Hashtbl.remove t.attempts (uri, name)
          | Some n ->
            Hashtbl.replace t.attempts (uri, name)
              {
                at_count = n;
                at_next = now +. backoff_delay t.cfg (uri, name) n;
                at_err = "restored from journal";
              })
       | _ -> ())
    | 'B' ->
      (match get_u32 payload pos, get_byte payload pos, get_u32 payload pos with
       | Some id, Some kind, Some n when n <= 1_000_000 ->
         let ops = ref [] in
         let broken = ref false in
         for _ = 1 to n do
           match get_str payload pos, get_str payload pos, get_byte payload pos with
           | Some uri, Some name, Some k ->
             (match op_kind_of_int k with
              | Some op_kind ->
                ops := { op_uri = uri; op_name = name; op_kind } :: !ops
              | None -> broken := true)
           | _ -> broken := true
         done;
         if not !broken then begin
           let pl_ops = Array.of_list (List.rev !ops) in
           let pl_kind = if kind = 1 then Pk_drain else Pk_converge in
           t.pending <-
             Some
               {
                 pl_id = id;
                 pl_kind;
                 pl_ops;
                 pl_done = Array.make (Array.length pl_ops) false;
               };
           if id >= t.next_id then t.next_id <- id + 1
         end
       | _ -> ())
    | 'C' ->
      (match get_u32 payload pos, get_u32 payload pos with
       | Some id, Some idx ->
         (match t.pending with
          | Some pl when pl.pl_id = id && idx < Array.length pl.pl_done ->
            pl.pl_done.(idx) <- true
          | _ -> ())
       | _ -> ())
    | 'E' ->
      (match get_u32 payload pos with
       | Some id ->
         (match t.pending with
          | Some pl when pl.pl_id = id -> t.pending <- None
          | _ -> ())
       | None -> ())
    | _ -> ()  (* unknown tag: a newer build's record, skip *)

(* ------------------------------------------------------------------ *)
(* Plan application                                                    *)
(* ------------------------------------------------------------------ *)

(* Counting semaphore bounding concurrent lifecycle applications — the
   [parallel_shutdown] knob. *)
module Sem = struct
  type s = { sm : Mutex.t; sc : Condition.t; mutable avail : int }

  let make n = { sm = Mutex.create (); sc = Condition.create (); avail = max 1 n }

  let acquire s =
    Mutex.lock s.sm;
    while s.avail = 0 do
      Condition.wait s.sc s.sm
    done;
    s.avail <- s.avail - 1;
    Mutex.unlock s.sm

  let release s =
    Mutex.lock s.sm;
    s.avail <- s.avail + 1;
    Condition.signal s.sc;
    Mutex.unlock s.sm
end

(* Apply one op of [pl]: postcondition precheck (the exactly-once
   guard), side effect, checkpoint, attempt accounting.  Any exception
   (notably an injected crash) propagates — the checkpoint simply never
   happens, which is the crash being modelled. *)
let apply_one t pl idx =
  let o = pl.pl_ops.(idx) in
  let key = (o.op_uri, o.op_name) in
  !crash_hook "pre_apply";
  let already =
    match t.io.io_state o.op_uri o.op_name with
    | Ok st -> op_satisfied o.op_kind st
    | Error _ -> false
  in
  if already then begin
    with_lock t (fun () ->
        Journal.append t.j (enc_checkpoint pl.pl_id idx ~ok:true ~applied:false);
        pl.pl_done.(idx) <- true;
        t.ops_skipped <- t.ops_skipped + 1;
        reset_attempts_locked t key)
  end
  else begin
    let result = t.io.io_apply o.op_uri o in
    !crash_hook "post_apply";
    match result with
    | Ok () ->
      with_lock t (fun () ->
          Journal.append t.j (enc_checkpoint pl.pl_id idx ~ok:true ~applied:true);
          pl.pl_done.(idx) <- true;
          t.ops_applied <- t.ops_applied + 1;
          reset_attempts_locked t key)
    | Error e ->
      t.io.io_log
        (Printf.sprintf "reconcile: %s %s on %s failed: %s"
           (op_kind_name o.op_kind) o.op_name o.op_uri (Verror.to_string e));
      with_lock t (fun () ->
          Journal.append t.j (enc_checkpoint pl.pl_id idx ~ok:false ~applied:false);
          pl.pl_done.(idx) <- true;
          t.ops_failed <- t.ops_failed + 1;
          bump_attempts_locked t key (Verror.to_string e))
  end;
  !crash_hook "post_checkpoint"

(* Run every not-yet-checkpointed op of [pl], bounded by the semaphore.
   Single-threaded when the bound is 1 (the deterministic mode the
   crash sweeps rely on); otherwise a small worker pool drains a shared
   index queue.  The first exception aborts the pool and is re-raised:
   the plan stays pending in the journal, exactly as a kill would leave
   it. *)
let run_plan t pl =
  let todo =
    Array.to_list (Array.mapi (fun i _ -> i) pl.pl_ops)
    |> List.filter (fun i -> not pl.pl_done.(i))
  in
  let parallel = max 1 t.cfg.rcfg_parallel in
  if parallel = 1 || List.length todo <= 1 then
    List.iter (fun idx -> apply_one t pl idx) todo
  else begin
    let sem = Sem.make parallel in
    let qm = Mutex.create () in
    let queue = ref todo in
    let failure = ref None in
    let next () =
      Mutex.lock qm;
      let item =
        match !queue, !failure with
        | _, Some _ | [], _ -> None
        | idx :: rest, None ->
          queue := rest;
          Some idx
      in
      Mutex.unlock qm;
      item
    in
    let worker () =
      let rec loop () =
        match next () with
        | None -> ()
        | Some idx ->
          Sem.acquire sem;
          (try
             Fun.protect ~finally:(fun () -> Sem.release sem) (fun () ->
                 apply_one t pl idx)
           with exn ->
             Mutex.lock qm;
             if !failure = None then failure := Some exn;
             Mutex.unlock qm);
          loop ()
      in
      loop ()
    in
    let n = min parallel (List.length todo) in
    let threads = List.init n (fun _ -> Thread.create worker ()) in
    List.iter Thread.join threads;
    match !failure with Some exn -> raise exn | None -> ()
  end

let finish_plan t pl =
  with_lock t (fun () ->
      Journal.append t.j (enc_plan_end pl.pl_id);
      t.pending <- None;
      maybe_compact_locked t)

(* ------------------------------------------------------------------ *)
(* Planning                                                            *)
(* ------------------------------------------------------------------ *)

(* One pass of the diff: what op, if any, does [key] need right now?
   [boot] selects the on_boot semantics of the first pass after (re)start. *)
let plan_op ~boot (p : Dompolicy.t) (state : Vmm.Vm_state.state option) =
  let want_running =
    p.run_state = Dompolicy.Rs_running
    || (boot && p.on_boot = Dompolicy.Boot_start && p.run_state <> Dompolicy.Rs_stopped)
  in
  if want_running then
    match state with
    | Some (Running | Blocked) -> None
    | Some Paused -> Some Op_resume
    | Some (Shutdown | Shutoff | Crashed) | None -> Some Op_start
  else if p.run_state = Dompolicy.Rs_stopped then
    match state with
    | Some s when Vmm.Vm_state.is_active s -> Some Op_shutdown
    | _ -> None
  else None

let build_plan_locked t ~now ~boot =
  (* group spec'd uris, fetch each node's actual state once *)
  let uris = Hashtbl.create 7 in
  Hashtbl.iter (fun (uri, _) _ -> Hashtbl.replace uris uri ()) t.specs;
  let actual = Hashtbl.create 7 in
  Hashtbl.iter
    (fun uri () ->
      match t.io.io_actual uri with
      | Ok l -> Hashtbl.replace actual uri l
      | Error e ->
        t.io.io_log
          (Printf.sprintf "reconcile: listing %s failed: %s" uri
             (Verror.to_string e)))
    uris;
  Hashtbl.reset t.unconverged;
  let ops = ref [] in
  Hashtbl.iter
    (fun (uri, name) p ->
      match Hashtbl.find_opt actual uri with
      | None -> Hashtbl.replace t.unconverged (uri, name) ()  (* node listing failed *)
      | Some listing ->
        let in_backoff =
          match Hashtbl.find_opt t.attempts (uri, name) with
          | Some a -> a.at_next > now
          | None -> false
        in
        let state = List.assoc_opt name listing in
        (match plan_op ~boot p state with
         | None -> ()
         | Some kind ->
           Hashtbl.replace t.unconverged (uri, name) ();
           if not in_backoff then
             ops := { op_uri = uri; op_name = name; op_kind = kind } :: !ops))
    t.specs;
  List.rev !ops

(* ------------------------------------------------------------------ *)
(* Convergence pass                                                    *)
(* ------------------------------------------------------------------ *)

let summary_locked t =
  let converged = ref 0 and pending = ref 0 and diverged = ref 0 in
  Hashtbl.iter
    (fun key _ ->
      let att =
        match Hashtbl.find_opt t.attempts key with Some a -> a.at_count | None -> 0
      in
      if att >= t.cfg.rcfg_diverged_after then incr diverged
      else if att > 0 || Hashtbl.mem t.unconverged key then incr pending
      else incr converged)
    t.specs;
  {
    sum_specs = Hashtbl.length t.specs;
    sum_converged = !converged;
    sum_pending = !pending;
    sum_diverged = !diverged;
    sum_plans = t.plans;
    sum_ops_applied = t.ops_applied;
    sum_ops_skipped = t.ops_skipped;
    sum_ops_failed = t.ops_failed;
    sum_resumed = t.resumed;
  }

let converge_now t =
  (* 1. a plan interrupted by a crash is finished first *)
  let resume =
    with_lock t (fun () ->
        match t.pending with
        | Some pl when pl.pl_kind = Pk_drain ->
          (* half-done drain sweep: moot after restart, abandon it *)
          Journal.append t.j (enc_plan_end pl.pl_id);
          t.pending <- None;
          None
        | other -> other)
  in
  (match resume with
   | Some pl ->
     t.io.io_log
       (Printf.sprintf "reconcile: resuming interrupted plan %d (%d ops)"
          pl.pl_id (Array.length pl.pl_ops));
     t.resumed <- true;
     run_plan t pl;
     finish_plan t pl
   | None -> ());
  (* 2. diff and apply *)
  let now = Unix.gettimeofday () in
  let boot = not t.booted in
  let plan =
    with_lock t (fun () ->
        let ops = build_plan_locked t ~now ~boot in
        t.booted <- true;
        match ops with
        | [] -> None
        | ops ->
          let pl =
            {
              pl_id = t.next_id;
              pl_kind = Pk_converge;
              pl_ops = Array.of_list ops;
              pl_done = Array.make (List.length ops) false;
            }
          in
          t.next_id <- t.next_id + 1;
          (* journal the plan BEFORE any side effect *)
          Journal.append t.j (enc_plan_begin pl.pl_id pl.pl_kind pl.pl_ops);
          t.pending <- Some pl;
          t.plans <- t.plans + 1;
          Some pl)
  in
  !crash_hook "plan_journaled";
  (match plan with
   | Some pl ->
     run_plan t pl;
     finish_plan t pl
   | None -> ());
  with_lock t (fun () -> summary_locked t)

(* The drain pass: apply on_shutdown to every running spec'd guest,
   bounded by parallel_shutdown.  Journaled like any plan so status is
   honest, but marked Pk_drain so a crash mid-drain does not replay
   shutdowns at the next boot. *)
let shutdown_pass t =
  let plan =
    with_lock t (fun () ->
        let ops = ref [] in
        Hashtbl.iter
          (fun (uri, name) (p : Dompolicy.t) ->
            let kind =
              match p.Dompolicy.on_shutdown with
              | Dompolicy.Shut_suspend -> Some Op_save
              | Dompolicy.Shut_shutdown -> Some Op_shutdown
              | Dompolicy.Shut_ignore -> None
            in
            match kind with
            | None -> ()
            | Some k ->
              (match t.io.io_state uri name with
               | Ok st when not (op_satisfied k st) ->
                 ops := { op_uri = uri; op_name = name; op_kind = k } :: !ops
               | _ -> ()))
          t.specs;
        match !ops with
        | [] -> None
        | ops ->
          let pl =
            {
              pl_id = t.next_id;
              pl_kind = Pk_drain;
              pl_ops = Array.of_list ops;
              pl_done = Array.make (List.length ops) false;
            }
          in
          t.next_id <- t.next_id + 1;
          Journal.append t.j (enc_plan_begin pl.pl_id pl.pl_kind pl.pl_ops);
          t.pending <- Some pl;
          t.plans <- t.plans + 1;
          Some pl)
  in
  match plan with
  | Some pl ->
    run_plan t pl;
    finish_plan t pl
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Public API                                                          *)
(* ------------------------------------------------------------------ *)

let create ~journal_path ~io ~config () =
  let j, replay = Journal.open_ journal_path in
  let t =
    {
      io;
      cfg = config;
      j;
      m = Mutex.create ();
      specs = Hashtbl.create 64;
      attempts = Hashtbl.create 16;
      unconverged = Hashtbl.create 16;
      pending = None;
      next_id = 1;
      booted = false;
      stopping = false;
      kicked = false;
      wake = Condition.create ();
      thread = None;
      plans = 0;
      ops_applied = 0;
      ops_skipped = 0;
      ops_failed = 0;
      resumed = false;
    }
  in
  let now = Unix.gettimeofday () in
  List.iter (replay_record t now) replay.Journal.rp_records;
  (* every spec is unconverged until the first diff says otherwise *)
  Hashtbl.iter (fun key _ -> Hashtbl.replace t.unconverged key ()) t.specs;
  t

let kick_locked t =
  t.kicked <- true;
  Condition.signal t.wake

let set_policy t ~uri ~name policy =
  with_lock t (fun () ->
      Journal.append t.j (enc_policy uri name policy);
      Hashtbl.replace t.specs (uri, name) policy;
      Hashtbl.remove t.attempts (uri, name);
      Hashtbl.replace t.unconverged (uri, name) ();
      kick_locked t;
      maybe_compact_locked t)

let get_policy t ~uri ~name =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.specs (uri, name) with
      | Some p -> p
      | None -> Dompolicy.default)

let clear_policy t ~uri ~name =
  with_lock t (fun () ->
      Journal.append t.j (enc_clear uri name);
      Hashtbl.remove t.specs (uri, name);
      Hashtbl.remove t.attempts (uri, name);
      Hashtbl.remove t.unconverged (uri, name);
      maybe_compact_locked t)

let kick t = with_lock t (fun () -> kick_locked t)

let status t =
  with_lock t (fun () ->
      let now = Unix.gettimeofday () in
      let rows =
        Hashtbl.fold
          (fun (uri, name) p acc ->
            let att = Hashtbl.find_opt t.attempts (uri, name) in
            let count = match att with Some a -> a.at_count | None -> 0 in
            let st =
              if count >= t.cfg.rcfg_diverged_after then St_diverged
              else if count > 0 || Hashtbl.mem t.unconverged (uri, name) then
                St_pending
              else St_converged
            in
            {
              ds_uri = uri;
              ds_name = name;
              ds_policy = p;
              ds_status = st;
              ds_attempts = count;
              ds_retry_in_s =
                (match att with
                 | Some a -> Float.max 0. (a.at_next -. now)
                 | None -> 0.);
              ds_last_error = (match att with Some a -> a.at_err | None -> "");
            }
            :: acc)
          t.specs []
      in
      let rows =
        List.sort
          (fun a b ->
            match compare a.ds_uri b.ds_uri with
            | 0 -> compare a.ds_name b.ds_name
            | c -> c)
          rows
      in
      (summary_locked t, rows))

let journal_records t = Journal.record_count t.j

(* ------------------------------------------------------------------ *)
(* Loop thread                                                         *)
(* ------------------------------------------------------------------ *)

let loop t =
  (* Until the next pass is due, a kick or [stop]; runs under [t.m]. *)
  let rec sleep until =
    if t.kicked then t.kicked <- false
    else if (not t.stopping) && Unix.gettimeofday () < until then begin
      Ovsync.Timedwait.wait t.m t.wake ~until;
      sleep until
    end
  in
  while not (with_lock t (fun () -> t.stopping)) do
    (try ignore (converge_now t)
     with exn ->
       t.io.io_log
         (Printf.sprintf "reconcile: pass failed: %s" (Printexc.to_string exn)));
    with_lock t (fun () -> sleep (Unix.gettimeofday () +. t.cfg.rcfg_interval_s))
  done

let start t =
  with_lock t (fun () ->
      if t.thread = None && not t.stopping then
        t.thread <- Some (Thread.create loop t))

let stop t =
  let th =
    with_lock t (fun () ->
        t.stopping <- true;
        Condition.signal t.wake;
        let th = t.thread in
        t.thread <- None;
        th)
  in
  Option.iter Thread.join th
