(* Crash-safe persistence and restart recovery: the journal's framing
   (roundtrip, torn tails, checksum corruption, write-limit injection),
   the media's write/append/truncate/read semantics, a crash-point sweep
   proving any cut of the journal replays to a prefix-consistent store,
   a model test of when the store compacts its journal, and end-to-end
   manager crashes — running guests re-adopted untouched (qemu pids
   preserved), autostart honored, divergences reported as events,
   keepalive answered mid-replay, and the autostart/per-connection-stats
   plumbing around it all. *)

open Testutil
module Media = Persist.Media
module Journal = Persist.Journal
module Domstore = Drivers.Domstore
module Qemu_proc = Hvsim.Qemu_proc
module Hostinfo = Hvsim.Hostinfo
module Vm_config = Vmm.Vm_config
module Connect = Ovirt.Connect
module Domain = Ovirt.Domain
module Events = Ovirt.Events
module Daemon = Ovirt.Daemon
module Daemon_config = Ovirt.Daemon_config

let () = Ovirt.initialize ()

let quiet_config =
  {
    Daemon_config.default with
    Daemon_config.log_outputs = [ { Vlog.min_priority = Vlog.Debug; sink = Vlog.Null } ];
  }

let with_daemon ?(config = quiet_config) f =
  let name = fresh_name "recd" in
  let daemon = Daemon.start ~name ~config () in
  Fun.protect ~finally:(fun () -> Daemon.stop daemon) (fun () -> f name daemon)

let define_domain conn ?(os = Vm_config.Hvm) ?(virt_type = "test") name =
  let cfg = Vm_config.make ~os ~memory_kib:(8 * 1024) name in
  vok (Domain.define_xml conn (Vmm.Domxml.to_xml ~virt_type cfg))

let events_of conn lifecycle =
  let ops = vok (Connect.ops conn) in
  Events.history ops.Ovirt.Driver.events
  |> List.filter (fun ev -> ev.Events.lifecycle = lifecycle)
  |> List.map (fun ev -> ev.Events.domain_name)

(* --- journal framing ----------------------------------------------------- *)

let test_journal_roundtrip () =
  let path = fresh_name "journal" in
  let j, replay = Journal.open_ path in
  Alcotest.(check (list string)) "fresh journal empty" [] replay.Journal.rp_records;
  let records = [ "alpha"; ""; "third record with spaces"; String.make 300 'x' ] in
  List.iter (Journal.append j) records;
  let _, replay = Journal.open_ path in
  Alcotest.(check (list string)) "records replayed" records replay.Journal.rp_records;
  Alcotest.(check int) "no torn tail" 0 replay.Journal.rp_torn_bytes

let test_journal_torn_tail () =
  let path = fresh_name "journal" in
  let j, _ = Journal.open_ path in
  List.iter (Journal.append j) [ "one"; "two"; "three" ];
  let full = Media.size path in
  Media.truncate path (full - 2);
  let _, replay = Journal.open_ path in
  Alcotest.(check (list string)) "prefix survives" [ "one"; "two" ]
    replay.Journal.rp_records;
  Alcotest.(check bool) "torn bytes reported" true (replay.Journal.rp_torn_bytes > 0);
  (* The torn tail is truncated on open: a second replay is clean. *)
  let _, replay = Journal.open_ path in
  Alcotest.(check int) "tail gone after truncation" 0 replay.Journal.rp_torn_bytes

let test_journal_checksum_corruption () =
  let path = fresh_name "journal" in
  let j, _ = Journal.open_ path in
  List.iter (Journal.append j) [ "first"; "second"; "third" ];
  let img = Option.get (Media.read path) in
  (* Flip a byte inside the second record's payload: the frame length is
     still valid, so only the checksum can catch it. *)
  let pos = String.length (Journal.encode_record "first") + 8 + 2 in
  let corrupted =
    String.mapi (fun i c -> if i = pos then Char.chr (Char.code c lxor 0xff) else c) img
  in
  Media.write path corrupted;
  let _, replay = Journal.open_ path in
  Alcotest.(check (list string))
    "replay stops before the corrupt record" [ "first" ] replay.Journal.rp_records;
  Alcotest.(check bool) "corrupt suffix counted as torn" true
    (replay.Journal.rp_torn_bytes > 0)

let test_journal_write_limit () =
  let path = fresh_name "journal" in
  let j, _ = Journal.open_ path in
  Journal.append j "durable";
  let cut = Media.size path + 5 in
  Media.set_write_limit path (Some cut);
  Journal.append j "torn away";
  Media.set_write_limit path None;
  Alcotest.(check int) "append clipped at the limit" cut (Media.size path);
  let _, replay = Journal.open_ path in
  Alcotest.(check (list string)) "only the durable record" [ "durable" ]
    replay.Journal.rp_records;
  Alcotest.(check int) "clipped bytes truncated" 5 replay.Journal.rp_torn_bytes

(* --- media semantics ------------------------------------------------------ *)

let test_media_write_limit_clips_write () =
  let path = fresh_name "media" in
  Media.set_write_limit path (Some 5);
  Media.write path "0123456789";
  Alcotest.(check (option string)) "write cut at the limit" (Some "01234") (Media.read path);
  Media.append path "x";
  Alcotest.(check (option string)) "no room left to append" (Some "01234") (Media.read path);
  Media.set_write_limit path None

let test_media_truncate_then_append () =
  let path = fresh_name "media" in
  Media.write path "abcdef";
  Media.truncate path 3;
  Media.append path "XY";
  Alcotest.(check (option string)) "append continues at the cut" (Some "abcXY")
    (Media.read path);
  Media.truncate path 10;
  Alcotest.(check int) "truncate never grows" 5 (Media.size path)

let test_media_read_is_a_copy () =
  let path = fresh_name "media" in
  Media.write path "abc";
  let before = Option.get (Media.read path) in
  (* Enough appends to outgrow any initial capacity. *)
  for _ = 1 to 100 do
    Media.append path "0123456789"
  done;
  Alcotest.(check string) "earlier read unchanged" "abc" before;
  Alcotest.(check int) "image grew" 1003 (Media.size path);
  Alcotest.(check string) "prefix kept" "abc0123"
    (String.sub (Option.get (Media.read path)) 0 7)

(* Random writes, appends and truncations against a plain string: the
   image grows across many capacity doublings and must keep every byte. *)
let prop_media_matches_string_model =
  let op =
    QCheck.Gen.(
      frequency
        [
          (5, map (fun s -> `Append s) (string_size (int_bound 300)));
          (1, map (fun s -> `Write s) (string_size (int_bound 50)));
          (1, map (fun n -> `Truncate n) (int_bound 400));
        ])
  in
  qcheck_case ~count:200 "media matches a string model"
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_bound 60) op))
    (fun ops ->
      let path = fresh_name "media" in
      let model =
        List.fold_left
          (fun m op ->
            match (op, m) with
            | `Append s, _ ->
              Media.append path s;
              Some (Option.value m ~default:"" ^ s)
            | `Write s, _ ->
              Media.write path s;
              Some s
            | `Truncate n, m ->
              Media.truncate path n;
              Option.map (fun m -> if n < String.length m then String.sub m 0 n else m) m)
          None ops
      in
      Media.read path = model)

(* --- crash-point sweep over the domstore journal ------------------------- *)

(* Each op appends exactly one journal record, so cutting the image at
   record boundary [k] must replay to exactly the state of applying the
   first [k] ops — and a mid-record cut to the state at the enclosing
   boundary.  This is the prefix-consistency invariant: no crash point
   yields a state the manager never passed through. *)
let sweep_ops () =
  let cfg name = Vm_config.make ~memory_kib:(8 * 1024) name in
  let a = cfg "sweep-a" and b = cfg "sweep-b" and c = cfg "sweep-c" in
  [
    (fun st -> vok (Domstore.define st a));
    (fun st -> vok (Domstore.define st b));
    (fun st -> Domstore.note_started st "sweep-a");
    (fun st -> vok (Domstore.set_autostart st "sweep-b" true));
    (fun st -> vok (Domstore.define st c));
    (fun st -> Domstore.note_stopped st "sweep-a");
    (fun st -> vok (Domstore.undefine st "sweep-c"));
    (fun st -> vok (Domstore.define st c));
    (fun st -> vok (Domstore.set_autostart st "sweep-b" false));
    (fun st -> Domstore.note_started st "sweep-b");
  ]

let entry_sigs store =
  List.map
    (fun (name, cfg, autostart, running) ->
      Printf.sprintf "%s/%s/%b/%b" name
        (Vmm.Uuid.to_string cfg.Vm_config.uuid)
        autostart running)
    (Domstore.entries store)

let expected_after ops k =
  let st = Domstore.create () in
  ignore (Domstore.attach st ~path:(fresh_name "sweep-model"));
  List.iteri (fun i op -> if i < k then op st) ops;
  entry_sigs st

let attach_cut img cut =
  let path = fresh_name "sweep-cut" in
  Media.write path (String.sub img 0 cut);
  let st = Domstore.create () in
  let rc = Domstore.attach st ~path in
  (st, rc)

let check_no_dup_uuids st =
  let uuids =
    List.map
      (fun (_, cfg, _, _) -> Vmm.Uuid.to_string cfg.Vm_config.uuid)
      (Domstore.entries st)
  in
  Alcotest.(check int)
    "no duplicate uuids" (List.length uuids)
    (List.length (List.sort_uniq compare uuids))

let test_crash_point_sweep () =
  let ops = sweep_ops () in
  let path = fresh_name "sweep" in
  let st = Domstore.create () in
  ignore (Domstore.attach st ~path);
  List.iter (fun op -> op st) ops;
  let img = Option.get (Media.read path) in
  let _, replay = Journal.open_ path in
  Alcotest.(check int) "one record per op" (List.length ops)
    (List.length replay.Journal.rp_records);
  (* Record boundary offsets, boundary.(k) = bytes of the first k records. *)
  let boundary = Array.make (List.length ops + 1) 0 in
  List.iteri
    (fun i r ->
      boundary.(i + 1) <- boundary.(i) + String.length (Journal.encode_record r))
    replay.Journal.rp_records;
  Alcotest.(check int) "boundaries span the image" (String.length img)
    boundary.(List.length ops);
  for k = 0 to List.length ops do
    let cut_st, rc = attach_cut img boundary.(k) in
    Alcotest.(check (list string))
      (Printf.sprintf "boundary cut after record %d" k)
      (expected_after ops k) (entry_sigs cut_st);
    Alcotest.(check int) "clean cut has no torn bytes" 0 rc.Domstore.rc_torn_bytes;
    check_no_dup_uuids cut_st
  done;
  for k = 0 to List.length ops - 1 do
    let len = boundary.(k + 1) - boundary.(k) in
    (* Several cut points inside record k+1, including one byte short. *)
    List.iter
      (fun delta ->
        if delta >= 1 && delta < len then begin
          let cut_st, rc = attach_cut img (boundary.(k) + delta) in
          Alcotest.(check (list string))
            (Printf.sprintf "mid-record cut in record %d (+%d)" (k + 1) delta)
            (expected_after ops k) (entry_sigs cut_st);
          Alcotest.(check int)
            (Printf.sprintf "torn bytes at +%d" delta)
            delta rc.Domstore.rc_torn_bytes;
          check_no_dup_uuids cut_st
        end)
      [ 1; 3; len / 2; len - 1 ]
  done

let test_compaction () =
  let path = fresh_name "compact" in
  let st = Domstore.create () in
  ignore (Domstore.attach st ~path);
  let keeper = Vm_config.make "keeper" in
  vok (Domstore.define st keeper);
  let churn = Vm_config.make "churn" in
  for _ = 1 to 30 do
    vok (Domstore.define st churn);
    vok (Domstore.undefine st "churn")
  done;
  (* Replay is O(live state), not O(history): the journal was compacted
     to a snapshot well below the 61 appended records. *)
  let st2 = Domstore.create () in
  let rc = Domstore.attach st2 ~path in
  Alcotest.(check bool) "journal compacted" true (rc.Domstore.rc_replayed < 10);
  Alcotest.(check (list string)) "state preserved" [ "keeper" ] (Domstore.names st2)

(* --- compaction model ---------------------------------------------------- *)

(* Random histories over a few names on a journaled store, run beside a
   reference that knows only the rule: every state change appends one record, and a define, undefine
   or attach rewrites the journal to |snapshot| records iff it then holds
   more than factor * |snapshot| + slack, where |snapshot| is one record
   per entry plus one per set flag.  Should the store's own count of
   |snapshot| drift, a compaction lands at another point and the record
   counts part.  [M_reattach] continues on a store replayed from a copy
   of the image, which must hold the same entries.  The threshold is the
   store's own (4 * |snapshot| + 16), so histories run to 300
   operations, enough for a few compactions each; the test fails if no
   generated history compacted at all. *)
type model_op =
  | M_define of int * int  (** name, memory variant *)
  | M_undefine of int
  | M_autostart of int * bool
  | M_running of int * bool
  | M_reattach

let model_names = 4
let model_factor = Domstore.compact_factor
let model_slack = Domstore.compact_slack
let model_compactions = ref 0

let print_model_op = function
  | M_define (i, v) -> Printf.sprintf "define m%d/%d" i v
  | M_undefine i -> Printf.sprintf "undefine m%d" i
  | M_autostart (i, b) -> Printf.sprintf "autostart m%d %b" i b
  | M_running (i, b) -> Printf.sprintf "running m%d %b" i b
  | M_reattach -> "reattach"

let gen_model_ops =
  QCheck.Gen.(
    let name = int_bound (model_names - 1) in
    list_size (int_bound 300)
      (frequency
         [
           (4, map2 (fun i v -> M_define (i, v)) name (int_bound 2));
           (2, map (fun i -> M_undefine i) name);
           (2, map2 (fun i b -> M_autostart (i, b)) name bool);
           (3, map2 (fun i b -> M_running (i, b)) name bool);
           (1, return M_reattach);
         ]))

let journal_records path = List.length (snd (Journal.open_ path)).Journal.rp_records

let model_sigs st =
  List.map
    (fun (name, cfg, autostart, running) ->
      (name, cfg.Vm_config.memory_kib, autostart, running))
    (Domstore.entries st)

let run_compaction_model ops =
  let name i = Printf.sprintf "m%d" i in
  let memory v = (v + 1) * 8 * 1024 in
  let uuids = Array.init model_names (fun _ -> Vmm.Uuid.generate ()) in
  (* Reference state: per name, (memory variant, autostart, running). *)
  let model = Array.make model_names None in
  let expected = ref 0 in
  let reference_sigs () =
    List.concat
      (List.init model_names (fun i ->
           match model.(i) with
           | Some (v, a, r) -> [ (name i, memory v, a, r) ]
           | None -> []))
  in
  let maybe_compact () =
    let snapshot =
      Array.fold_left
        (fun acc -> function
          | Some (_, a, r) -> acc + 1 + Bool.to_int a + Bool.to_int r
          | None -> acc)
        0 model
    in
    if !expected > (model_factor * snapshot) + model_slack then begin
      expected := snapshot;
      incr model_compactions
    end
  in
  let attach_copy path =
    let copy = fresh_name "model" in
    Media.write copy (Option.value ~default:"" (Media.read path));
    let st = Domstore.create () in
    ignore (Domstore.attach st ~path:copy);
    (st, copy)
  in
  let path = ref (fresh_name "model") in
  let st = ref (Domstore.create ()) in
  ignore (Domstore.attach !st ~path:!path);
  let step op =
    (match op with
     | M_define (i, v) ->
       vok (Domstore.define !st
              (Vm_config.make ~uuid:uuids.(i) ~memory_kib:(memory v) (name i)));
       let a, r = match model.(i) with Some (_, a, r) -> (a, r) | None -> (false, false) in
       model.(i) <- Some (v, a, r);
       incr expected;
       maybe_compact ()
     | M_undefine i -> (
       match (Domstore.undefine !st (name i), model.(i)) with
       | Ok (), Some _ ->
         model.(i) <- None;
         incr expected;
         maybe_compact ()
       | Error _, None -> ()
       | _ -> QCheck.Test.fail_reportf "undefine m%d disagrees with the model" i)
     | M_autostart (i, b) -> (
       match (Domstore.set_autostart !st (name i) b, model.(i)) with
       | Ok (), Some (v, a, r) ->
         if a <> b then incr expected;
         model.(i) <- Some (v, b, r)
       | Error _, None -> ()
       | _ -> QCheck.Test.fail_reportf "autostart m%d disagrees with the model" i)
     | M_running (i, b) -> (
       (if b then Domstore.note_started else Domstore.note_stopped) !st (name i);
       match model.(i) with
       | Some (v, a, r) ->
         if r <> b then incr expected;
         model.(i) <- Some (v, a, b)
       | None -> ())
     | M_reattach ->
       let st', copy = attach_copy !path in
       if model_sigs st' <> model_sigs !st then
         QCheck.Test.fail_report "re-attached store holds other entries";
       st := st';
       path := copy;
       maybe_compact ());
    if model_sigs !st <> reference_sigs () then
      QCheck.Test.fail_reportf "after %s: entries differ from the model" (print_model_op op);
    let got = journal_records !path in
    if got <> !expected then
      QCheck.Test.fail_reportf "after %s: journal holds %d records, reference %d"
        (print_model_op op) got !expected
  in
  List.iter step ops;
  let st', _ = attach_copy !path in
  if model_sigs st' <> model_sigs !st then
    QCheck.Test.fail_report "final re-attached store holds other entries";
  true

let test_compaction_model =
  let name, speed, run =
    qcheck_case ~count:100 "compaction decisions match the model"
      (QCheck.make ~print:(QCheck.Print.list print_model_op) gen_model_ops)
      run_compaction_model
  in
  ( name,
    speed,
    fun () ->
      model_compactions := 0;
      run ();
      if !model_compactions = 0 then Alcotest.fail "no generated history compacted" )

(* --- crash-point sweep over the reconcile plan journal ------------------- *)

(* The reconciler journals a plan before applying it and checkpoints
   per-op.  Kill it mid-apply (two of four ops done), then cut the
   surviving journal at every record boundary and at points inside each
   record: whatever prefix a crash leaves, the next incarnation must
   converge the fleet with every domain's side effect happening exactly
   once — resumed ops whose postcondition already holds are skipped,
   never repeated. *)
let test_reconcile_plan_sweep () =
  let uri = "test://plansweep/" in
  let doms = [ "ps-a"; "ps-b"; "ps-c"; "ps-d" ] in
  let world = Hashtbl.create 8 in
  let applies = Hashtbl.create 8 in
  let io =
    {
      Reconcile.io_actual =
        (fun _ ->
          Ok (Hashtbl.fold (fun n st acc -> (n, st) :: acc) world []));
      io_state = (fun _ name -> Ok (Hashtbl.find_opt world name));
      io_apply =
        (fun _ op ->
          let n = op.Reconcile.op_name in
          Hashtbl.replace applies n
            (1 + Option.value ~default:0 (Hashtbl.find_opt applies n));
          Hashtbl.replace world n Vmm.Vm_state.Running;
          Ok ());
      io_log = (fun _ -> ());
    }
  in
  let config =
    {
      Reconcile.default_config with
      Reconcile.rcfg_parallel = 1;
      rcfg_backoff_base_s = 0.;
      rcfg_backoff_cap_s = 0.;
      rcfg_compact_factor = 1000;
      rcfg_compact_slack = 1000;
    }
  in
  let reset_world () =
    Hashtbl.reset world;
    Hashtbl.reset applies;
    List.iter (fun n -> Hashtbl.replace world n Vmm.Vm_state.Shutoff) doms
  in
  reset_world ();
  let path = fresh_name "plansweep" in
  let t = Reconcile.create ~journal_path:path ~io ~config () in
  let running_policy =
    { Ovirt.Dompolicy.default with Ovirt.Dompolicy.run_state = Ovirt.Dompolicy.Rs_running }
  in
  List.iter (fun n -> Reconcile.set_policy t ~uri ~name:n running_policy) doms;
  (* Kill the pass after the second side effect lands, before its
     checkpoint can be written: the nastiest window. *)
  let hits = ref 0 in
  Reconcile.crash_hook :=
    (fun site ->
      if site = "post_apply" then begin
        incr hits;
        if !hits = 2 then failwith "injected crash"
      end);
  (match Reconcile.converge_now t with
   | _ -> Alcotest.fail "injected crash did not abort the pass"
   | exception Failure _ -> Reconcile.crash_hook := fun _ -> ());
  Alcotest.(check int) "two side effects landed before the kill" 2
    (Hashtbl.length applies);
  let crash_world = Hashtbl.copy world in
  let crash_applies = Hashtbl.copy applies in
  let img = Option.get (Media.read path) in
  let _, replay = Journal.open_ path in
  let boundary = Array.make (List.length replay.Journal.rp_records + 1) 0 in
  List.iteri
    (fun i r ->
      boundary.(i + 1) <- boundary.(i) + String.length (Journal.encode_record r))
    replay.Journal.rp_records;
  let nrec = List.length replay.Journal.rp_records in
  Alcotest.(check int) "boundaries span the image" (String.length img) boundary.(nrec);
  let check_cut label cut =
    (* Restart from the crash-time world against this journal prefix;
       each cut is its own independent timeline. *)
    Hashtbl.reset world;
    Hashtbl.iter (Hashtbl.replace world) crash_world;
    Hashtbl.reset applies;
    Hashtbl.iter (Hashtbl.replace applies) crash_applies;
    let cut_path = fresh_name "plansweep-cut" in
    Media.write cut_path (String.sub img 0 cut);
    let t2 = Reconcile.create ~journal_path:cut_path ~io ~config () in
    let s = Reconcile.converge_now t2 in
    Alcotest.(check int) (label ^ ": no op failed") 0 s.Reconcile.sum_ops_failed;
    (* Exactly-once: no domain's lifecycle op ever ran twice, whether it
       ran before the crash or after the resume. *)
    Hashtbl.iter
      (fun n count ->
        if count > 1 then
          Alcotest.failf "%s: duplicate side effect on %s (%d)" label n count)
      applies;
    (* Every spec the journal prefix preserved converges. *)
    let s = Reconcile.converge_now t2 in
    Alcotest.(check int)
      (label ^ ": every surviving spec converged")
      s.Reconcile.sum_specs s.Reconcile.sum_converged
  in
  for k = 0 to nrec do
    check_cut (Printf.sprintf "boundary cut after record %d" k) boundary.(k)
  done;
  for k = 0 to nrec - 1 do
    let len = boundary.(k + 1) - boundary.(k) in
    List.iter
      (fun delta ->
        if delta >= 1 && delta < len then
          check_cut
            (Printf.sprintf "mid-record cut in record %d (+%d)" (k + 1) delta)
            (boundary.(k) + delta))
      [ 1; 3; len / 2; len - 1 ]
  done;
  (* The untouched journal resumes the interrupted plan directly. *)
  Hashtbl.reset world;
  Hashtbl.iter (Hashtbl.replace world) crash_world;
  Hashtbl.reset applies;
  Hashtbl.iter (Hashtbl.replace applies) crash_applies;
  let t3 = Reconcile.create ~journal_path:path ~io ~config () in
  let s = Reconcile.converge_now t3 in
  Alcotest.(check bool) "full journal: plan resumed" true s.Reconcile.sum_resumed;
  Hashtbl.iter
    (fun n count ->
      Alcotest.(check int) (Printf.sprintf "exactly one side effect on %s" n) 1 count)
    applies;
  Alcotest.(check int) "whole fleet running" (List.length doms)
    (Hashtbl.fold
       (fun _ st acc -> if st = Vmm.Vm_state.Running then acc + 1 else acc)
       world 0)

(* --- end-to-end: test driver --------------------------------------------- *)

let test_crash_recovery_test_driver () =
  let uri = "test://" ^ fresh_name "recnode" ^ "/" in
  let conn = vok (Connect.open_uri uri) in
  let running = define_domain conn "rec-running" in
  vok (Domain.create running);
  let paused = define_domain conn "rec-paused" in
  vok (Domain.create paused);
  vok (Domain.suspend paused);
  let auto = define_domain conn "rec-auto" in
  vok (Domain.set_autostart auto true);
  let cold = define_domain conn "rec-cold" in
  ignore cold;
  Connect.close conn;
  Ovirt.crash_managers ();
  (* The restarted manager replays the journal and reconciles with the
     simulated hypervisor state that survived the crash. *)
  let conn = vok (Connect.open_uri uri) in
  let state name =
    let info = vok (Domain.get_info (vok (Domain.lookup_by_name conn name))) in
    Vmm.Vm_state.state_name info.Ovirt.Driver.di_state
  in
  Alcotest.(check string) "running guest re-adopted" "running" (state "rec-running");
  Alcotest.(check string) "paused guest adopted with its state" "paused"
    (state "rec-paused");
  Alcotest.(check string) "autostart domain started" "running" (state "rec-auto");
  Alcotest.(check string) "plain inactive domain left alone" "shut off"
    (state "rec-cold");
  Alcotest.(check bool) "autostart flag replayed" true
    (vok (Domain.get_autostart (vok (Domain.lookup_by_name conn "rec-auto"))));
  let adopted = events_of conn Events.Ev_adopted in
  Alcotest.(check bool) "adoption events emitted" true
    (List.mem "rec-running" adopted && List.mem "rec-paused" adopted);
  Alcotest.(check (list string)) "no divergences" [] (events_of conn Events.Ev_diverged);
  Connect.close conn

(* --- end-to-end: qemu (processes survive, divergences) ------------------- *)

let test_crash_recovery_qemu () =
  let node = fresh_name "recq" in
  let uri = "qemu://" ^ node ^ "/system" in
  let conn = vok (Connect.open_uri uri) in
  let keeper = define_domain conn ~virt_type:"kvm" "q-keeper" in
  vok (Domain.create keeper);
  let victim = define_domain conn ~virt_type:"kvm" "q-victim" in
  vok (Domain.create victim);
  let pid_of conn name =
    let ops = vok (Connect.ops conn) in
    (vok (ops.Ovirt.Driver.lookup_by_name name)).Ovirt.Driver.dom_id
  in
  let keeper_pid = pid_of conn "q-keeper" in
  Alcotest.(check bool) "keeper has a pid" true (keeper_pid <> None);
  Connect.close conn;
  Ovirt.crash_managers ();
  (* While the manager is down: the victim dies behind its back, and an
     unknown emulator process appears on the host. *)
  (match List.assoc_opt "q-victim" (Qemu_proc.running_on node) with
   | Some proc -> ignore (Qemu_proc.qmp proc ~cmd:"quit" ())
   | None -> Alcotest.fail "victim process should have survived the crash");
  let ghost_cfg = Vm_config.make ~memory_kib:(8 * 1024) "q-ghost" in
  (match
     Qemu_proc.spawn (Hostinfo.shared node)
       ~argv:(Drivers.Drv_qemu.proc_argv ghost_cfg)
       ghost_cfg
   with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "ghost spawn failed: %s" e);
  let conn = vok (Connect.open_uri uri) in
  (* Same process, same pid: the keeper was re-adopted, not restarted. *)
  Alcotest.(check bool) "keeper pid preserved" true (pid_of conn "q-keeper" = keeper_pid);
  let state name =
    let info = vok (Domain.get_info (vok (Domain.lookup_by_name conn name))) in
    Vmm.Vm_state.state_name info.Ovirt.Driver.di_state
  in
  Alcotest.(check string) "keeper still running" "running" (state "q-keeper");
  Alcotest.(check string) "victim reported shut off" "shut off" (state "q-victim");
  Alcotest.(check (list string)) "keeper adopted" [ "q-keeper" ]
    (events_of conn Events.Ev_adopted);
  let diverged = List.sort compare (events_of conn Events.Ev_diverged) in
  Alcotest.(check (list string)) "victim and ghost diverged" [ "q-ghost"; "q-victim" ]
    diverged;
  (* The ghost was reported, not repaired: its process is still alive
     and it is still not a defined domain. *)
  Alcotest.(check bool) "ghost process left alone" true
    (List.mem_assoc "q-ghost" (Qemu_proc.running_on node));
  expect_verr Ovirt.Verror.No_domain (Domain.lookup_by_name conn "q-ghost");
  (* The balloon path works against the adopted process (monitor alive). *)
  vok (Domain.set_memory (vok (Domain.lookup_by_name conn "q-keeper")) (4 * 1024));
  Connect.close conn

(* --- keepalive answered while recovery replay is in progress ------------- *)

let test_keepalive_during_replay () =
  with_daemon (fun dname daemon ->
      let node = fresh_name "karec" in
      let plain = Printf.sprintf "test+unix://%s/?daemon=%s" node dname in
      let conn = vok (Connect.open_uri plain) in
      for i = 1 to 12 do
        let dom = define_domain conn (Printf.sprintf "ka-dom-%02d" i) in
        if i mod 2 = 0 then vok (Domain.create dom)
      done;
      Connect.close conn;
      Daemon.crash daemon;
      let daemon2 = Daemon.start ~name:dname ~config:quiet_config () in
      Fun.protect
        ~finally:(fun () ->
          Journal.replay_throttle := 0.0;
          Daemon.stop daemon2)
        (fun () ->
          (* ~18 records at 50 ms each: replay takes ~0.9 s, an order of
             magnitude past the 0.05 s x 3 keepalive death window.  The
             open only survives if pings are answered during replay. *)
          Journal.replay_throttle := 0.05;
          let kuri =
            Printf.sprintf "test+unix://%s/?daemon=%s&keepalive=0.05&keepalive_count=3"
              node dname
          in
          let t0 = Unix.gettimeofday () in
          let conn = vok (Connect.open_uri kuri) in
          Alcotest.(check bool) "replay was actually slow" true
            (Unix.gettimeofday () -. t0 > 0.3);
          Journal.replay_throttle := 0.0;
          Alcotest.(check bool) "definitions recovered" true
            (List.length (vok (Connect.list_defined_domains conn))
             + List.length (vok (Connect.list_domains conn))
             >= 12);
          Connect.close conn))

(* --- autostart plumbing: local errors and the remote protocol ------------ *)

let test_autostart_local () =
  let conn = fresh_test_conn () in
  let dom = define_domain conn "auto-local" in
  Alcotest.(check bool) "defaults to false" false (vok (Domain.get_autostart dom));
  vok (Domain.set_autostart dom true);
  Alcotest.(check bool) "set sticks" true (vok (Domain.get_autostart dom));
  vok (Domain.set_autostart dom false);
  Alcotest.(check bool) "cleared" false (vok (Domain.get_autostart dom));
  vok (Domain.undefine dom);
  expect_verr Ovirt.Verror.No_domain (Domain.set_autostart dom true);
  expect_verr Ovirt.Verror.No_domain (Domain.get_autostart dom);
  Connect.close conn

let test_autostart_remote () =
  with_daemon (fun dname _daemon ->
      let uri =
        Printf.sprintf "test+unix://%s/?daemon=%s" (fresh_name "autorem") dname
      in
      let conn = vok (Connect.open_uri uri) in
      let dom = define_domain conn "auto-remote" in
      vok (Domain.set_autostart dom true);
      Alcotest.(check bool) "flag roundtrips over RPC" true
        (vok (Domain.get_autostart dom));
      vok (Domain.set_autostart dom false);
      Alcotest.(check bool) "disable roundtrips" false (vok (Domain.get_autostart dom));
      vok (Domain.undefine dom);
      expect_verr Ovirt.Verror.No_domain (Domain.get_autostart dom);
      expect_verr Ovirt.Verror.No_domain (Domain.set_autostart dom true);
      Connect.close conn)

(* --- per-connection reconnect statistics --------------------------------- *)

let test_per_connection_stats () =
  with_daemon (fun dname daemon ->
      let uri node =
        Printf.sprintf
          "test+unix://%s/?daemon=%s&reconnect=8&reconnect_delay=0.005&reconnect_max_delay=0.05"
          node dname
      in
      Drv_remote.reset_stats ();
      let c1 = vok (Connect.open_uri (uri (fresh_name "stats"))) in
      let c2 = vok (Connect.open_uri (uri (fresh_name "stats"))) in
      let ops1 = vok (Connect.ops c1) and ops2 = vok (Connect.ops c2) in
      Daemon.stop daemon;
      let daemon2 = Daemon.start ~name:dname ~config:quiet_config () in
      Fun.protect
        ~finally:(fun () -> Daemon.stop daemon2)
        (fun () ->
          (* Only c1 exercises its connection: only its counters move. *)
          let _ = vok (Connect.hostname c1) in
          let s1 = Option.get (Drv_remote.conn_stats ops1) in
          let s2 = Option.get (Drv_remote.conn_stats ops2) in
          Alcotest.(check bool) "c1 reconnected" true (s1.Drv_remote.st_reconnects >= 1);
          Alcotest.(check int) "c2 untouched" 0 s2.Drv_remote.st_reconnects;
          let _ = vok (Connect.hostname c2) in
          let s2 = Option.get (Drv_remote.conn_stats ops2) in
          Alcotest.(check bool) "c2 reconnected on use" true
            (s2.Drv_remote.st_reconnects >= 1);
          let agg = Drv_remote.stats () in
          Alcotest.(check bool) "aggregate sums connections" true
            (agg.Drv_remote.st_reconnects
             >= s1.Drv_remote.st_reconnects + s2.Drv_remote.st_reconnects);
          (* A non-remote connection has no counters. *)
          let local = fresh_test_conn () in
          Alcotest.(check bool) "local conn has no stats" true
            (Drv_remote.conn_stats (vok (Connect.ops local)) = None);
          Connect.close local;
          Connect.close c1;
          Connect.close c2))

let () =
  Alcotest.run "recovery"
    [
      ( "journal",
        [
          quick "roundtrip" test_journal_roundtrip;
          quick "torn-tail" test_journal_torn_tail;
          quick "checksum-corruption" test_journal_checksum_corruption;
          quick "write-limit-injection" test_journal_write_limit;
        ] );
      ( "media",
        [
          quick "write-limit-clips-write" test_media_write_limit_clips_write;
          quick "truncate-then-append" test_media_truncate_then_append;
          quick "read-is-a-copy" test_media_read_is_a_copy;
          prop_media_matches_string_model;
        ] );
      ( "sweep",
        [
          quick "crash-point-sweep" test_crash_point_sweep;
          quick "compaction" test_compaction;
          test_compaction_model;
          quick "reconcile-plan-sweep" test_reconcile_plan_sweep;
        ] );
      ( "restart",
        [
          quick "test-driver-recovery" test_crash_recovery_test_driver;
          quick "qemu-adoption-and-divergence" test_crash_recovery_qemu;
          quick "keepalive-during-replay" test_keepalive_during_replay;
        ] );
      ( "autostart",
        [
          quick "local" test_autostart_local;
          quick "remote" test_autostart_remote;
        ] );
      ( "stats", [ quick "per-connection" test_per_connection_stats ] );
    ]
