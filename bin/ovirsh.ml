(* ovirsh: the virsh-like management shell.
   Usage:  ovirsh [-c URI] [--timeout SECONDS] [command [args...]]
   With no command, enters an interactive shell.  A daemon named "ovirtd"
   is started in-process when a +transport URI asks for one (the whole
   network is simulated in-process; see DESIGN.md).  --timeout gives
   every call on the connection an end-to-end deadline (the remote
   driver's timeout= URI parameter). *)

let ( let* ) = Result.bind
let verr r = Result.map_error Ovirt.Verror.to_string r

type shell = { mutable conn : Ovirt.Connect.t option }

let require_conn shell =
  match shell.conn with
  | Some conn when not (Ovirt.Connect.is_closed conn) -> Ok conn
  | Some _ | None -> Error "no active connection (use: connect <uri>)"

let state_name = Vmm.Vm_state.state_name

let lookup shell name =
  let* conn = require_conn shell in
  verr (Ovirt.Domain.lookup_by_name conn name)

let one_positional args what =
  match args.Ovcli.positional with
  | [ v ] -> Ok v
  | _ -> Error (Printf.sprintf "expected exactly one argument: %s" what)

(* Shard errors the connection's annotated fleet listings have reported
   so far.  A degraded listing omits the failed shards' rows, so
   comparing this before and after a listing is how the shell notices a
   partial failure and exits non-zero. *)
let ops_sub_errors ops =
  match Ovirt.Remote.conn_stats ops with
  | Some st -> st.Ovirt.Remote.st_sub_errors
  | None -> (
    match Ovirt.Fleet.conn_stats ops with
    | Some st -> st.Ovirt.Fleet.st_sub_errors
    | None -> 0)

let conn_sub_errors conn =
  match Ovirt.Connect.ops conn with
  | Error _ -> 0
  | Ok ops -> ops_sub_errors ops

let sub_errors shell =
  match shell.conn with None -> 0 | Some conn -> conn_sub_errors conn

(* Run a bulk listing and fail (after printing any partial output the
   caller assembled) when sub-calls inside it failed. *)
let checked_bulk shell f =
  let before = sub_errors shell in
  let* text = f () in
  let failed = sub_errors shell - before in
  if failed = 0 then Ok text
  else begin
    print_endline text;
    Error
      (Printf.sprintf
         "listing incomplete: %d sub-call%s failed (partial output above)"
         failed
         (if failed = 1 then "" else "s"))
  end

let event_line buf ev =
  Buffer.add_string buf
    (Printf.sprintf "%6d %-20s %s\n" ev.Ovirt.Events.seq
       (if ev.Ovirt.Events.domain_name = "" then "-"
        else ev.Ovirt.Events.domain_name)
       (Ovirt.Events.lifecycle_name ev.Ovirt.Events.lifecycle))

(* Tail [count] events from [conn], reading any resume replay from the
   bus history (it was emitted during the open, before a subscriber
   could attach) and the rest live.  An [Ev_resync] pseudo-event means
   the daemon could not replay from the requested position: the tail
   stops and the command fails so scripts notice the gap. *)
let tail_events conn ~since ~count ~timeout =
  let errs_before = conn_sub_errors conn in
  let mu = Mutex.create () in
  let noted = Condition.create () in
  let events = ref [] in
  (* newest first *)
  let total = ref 0 in
  let gap = ref false in
  let note ev =
    Mutex.lock mu;
    if ev.Ovirt.Events.lifecycle = Ovirt.Events.Ev_resync then gap := true;
    events := ev :: !events;
    incr total;
    Condition.signal noted;
    Mutex.unlock mu
  in
  let* () =
    match since with
    | None -> Ok ()
    | Some s ->
      let* past = verr (Ovirt.Connect.event_history conn) in
      List.iter
        (fun ev ->
          if
            ev.Ovirt.Events.seq > s
            || ev.Ovirt.Events.lifecycle = Ovirt.Events.Ev_resync
          then note ev)
        past;
      Ok ()
  in
  let* sub = verr (Ovirt.Connect.subscribe_events conn note) in
  let until =
    match timeout with
    | Some t -> Unix.gettimeofday () +. float_of_int t
    | None -> infinity
  in
  (* Runs under [mu]: until [count] events, a gap, or the deadline. *)
  let rec wait () =
    if !gap || !total >= count || Unix.gettimeofday () >= until then ()
    else begin
      Ovsync.Timedwait.wait mu noted ~until;
      wait ()
    end
  in
  Mutex.lock mu;
  wait ();
  Mutex.unlock mu;
  Ovirt.Connect.unsubscribe_events conn sub;
  Mutex.lock mu;
  let collected = List.rev !events in
  let gapped = !gap in
  Mutex.unlock mu;
  let buf = Buffer.create 128 in
  List.iter (event_line buf) collected;
  if gapped then begin
    (* Partial output still goes out; the non-zero exit flags the gap. *)
    print_string (Buffer.contents buf);
    Error
      (match since with
       | Some s ->
         Printf.sprintf
           "event stream gap: daemon no longer retains events after seq %d \
            (full resynchronization required)"
           s
       | None -> "event stream gap: full resynchronization required")
  end
  else begin
    (* Same partial-failure contract as the bulk listings: sub-calls
       that failed underneath the tail (a degraded shard) turn the exit
       non-zero even though the events that did arrive were printed. *)
    let failed = conn_sub_errors conn - errs_before in
    if failed > 0 then begin
      print_string (Buffer.contents buf);
      Error
        (Printf.sprintf
           "event stream degraded: %d sub-call%s failed while tailing \
            (partial output above)"
           failed
           (if failed = 1 then "" else "s"))
    end
    else Ok (Buffer.contents buf)
  end

let commands shell =
  let connect_cmd =
    Ovcli.
      {
        name = "connect";
        group = "Connection";
        args_help = "<uri>";
        summary = "connect to a hypervisor URI";
        handler =
          (fun args ->
            let* uri = one_positional args "<uri>" in
            let* conn = verr (Ovirt.Connect.open_uri uri) in
            (match shell.conn with Some old -> Ovirt.Connect.close old | None -> ());
            shell.conn <- Some conn;
            Ok (Printf.sprintf "connected to %s (driver %s)" uri
                  (Ovirt.Connect.driver_name conn)));
      }
  in
  let simple name group args_help summary handler =
    Ovcli.{ name; group; args_help; summary; handler }
  in
  let dom_op name summary op =
    simple name "Domain management" "<domain>" summary (fun args ->
        let* name = one_positional args "<domain>" in
        let* dom = lookup shell name in
        let* () = verr (op dom) in
        Ok (Printf.sprintf "domain %s: %s" name summary))
  in
  [
    connect_cmd;
    simple "uri" "Connection" "" "print the current connection URI" (fun _ ->
        let* conn = require_conn shell in
        Ok (Ovirt.Uri.to_string (Ovirt.Connect.uri conn)));
    simple "hostname" "Connection" "" "print the node's hostname" (fun _ ->
        let* conn = require_conn shell in
        verr (Ovirt.Connect.hostname conn));
    simple "capabilities" "Connection" "" "print driver capabilities XML" (fun _ ->
        let* conn = require_conn shell in
        let* caps = verr (Ovirt.Connect.capabilities conn) in
        Ok (Ovirt.Capabilities.to_xml caps));
    simple "list" "Domain management" "[--all]" "list domains" (fun args ->
        let* conn = require_conn shell in
        checked_bulk shell @@ fun () ->
        (* One bulk listing gives refs, state and info in a single
           exchange; remote connections turn this into Proc_dom_list_all
           (Proc_fleet_list_all against a v1.7 daemon).  A fleet
           connection additionally reports which shards degraded. *)
        let fleet_view =
          match Ovirt.Connect.ops conn with
          | Ok ops -> ops.Ovirt.Driver.fleet
          | Error _ -> None
        in
        let* records, shard_errors =
          match fleet_view with
          | Some fv ->
            let* l = verr (fv.Ovirt.Driver.fleet_list_all ()) in
            Ok (l.Ovirt.Driver.fl_records, l.Ovirt.Driver.fl_shard_errors)
          | None ->
            let* records = verr (Ovirt.Connect.list_all_domains conn) in
            Ok (records, [])
        in
        let records =
          if Ovcli.has_switch args "all" then records
          else
            List.filter
              (fun r ->
                r.Ovirt.Driver.rec_info.Ovirt.Driver.di_state
                <> Vmm.Vm_state.Shutoff)
              records
        in
        let buf = Buffer.create 128 in
        Buffer.add_string buf (Printf.sprintf " %-5s %-20s %s\n" "Id" "Name" "State");
        Buffer.add_string buf "---------------------------------------\n";
        List.iter
          (fun r ->
            let id =
              match r.Ovirt.Driver.rec_ref.Ovirt.Driver.dom_id with
              | Some id -> string_of_int id
              | None -> "-"
            in
            Buffer.add_string buf
              (Printf.sprintf " %-5s %-20s %s\n" id
                 r.Ovirt.Driver.rec_ref.Ovirt.Driver.dom_name
                 (state_name r.Ovirt.Driver.rec_info.Ovirt.Driver.di_state)))
          records;
        if shard_errors <> [] then begin
          Buffer.add_string buf
            (Printf.sprintf "\n%d shard%s degraded:\n"
               (List.length shard_errors)
               (if List.length shard_errors = 1 then "" else "s"));
          List.iter
            (fun se ->
              Buffer.add_string buf
                (Printf.sprintf " %-20s %s\n" se.Ovirt.Driver.se_member
                   se.Ovirt.Driver.se_error.Ovirt.Verror.message))
            shard_errors
        end;
        Ok (Buffer.contents buf));
    simple "define" "Domain management" "<xml-file>" "define a domain from XML"
      (fun args ->
        let* path = one_positional args "<xml-file>" in
        let* conn = require_conn shell in
        let* xml =
          try
            let ic = open_in path in
            let n = in_channel_length ic in
            let s = really_input_string ic n in
            close_in ic;
            Ok s
          with Sys_error msg -> Error msg
        in
        let* dom = verr (Ovirt.Domain.define_xml conn xml) in
        Ok (Printf.sprintf "domain %s defined" (Ovirt.Domain.name dom)));
    dom_op "start" "started" Ovirt.Domain.create;
    dom_op "suspend" "suspended" Ovirt.Domain.suspend;
    dom_op "resume" "resumed" Ovirt.Domain.resume;
    dom_op "shutdown" "shut down" Ovirt.Domain.shutdown;
    dom_op "destroy" "destroyed" Ovirt.Domain.destroy;
    dom_op "undefine" "undefined" Ovirt.Domain.undefine;
    dom_op "save" "saved (managed save)" Ovirt.Domain.save;
    dom_op "restore" "restored from managed save" Ovirt.Domain.restore;
    simple "autostart" "Domain management" "<domain> [--disable]"
      "start the domain on daemon restart" (fun args ->
        let* name = one_positional args "<domain>" in
        let* dom = lookup shell name in
        let flag = not (Ovcli.has_switch args "disable") in
        let* () = verr (Ovirt.Domain.set_autostart dom flag) in
        Ok
          (Printf.sprintf "domain %s: autostart %s" name
             (if flag then "enabled" else "disabled")));
    simple "policy" "Domain management"
      "<domain> [--on-boot start|ignore] [--on-shutdown \
       suspend|shutdown|ignore] [--run-state running|stopped|any]"
      "show or declare the domain's lifecycle policy" (fun args ->
        let* name = one_positional args "<domain>" in
        let* dom = lookup shell name in
        match
          ( Ovcli.flag args "on-boot",
            Ovcli.flag args "on-shutdown",
            Ovcli.flag args "run-state" )
        with
        | None, None, None ->
          let* p = verr (Ovirt.Domain.get_policy dom) in
          Ok (Printf.sprintf "domain %s: %s" name (Ovirt.Dompolicy.to_string p))
        | boot, shut, run ->
          (* Unmentioned knobs keep their declared value: read-modify-
             write against the daemon's current spec. *)
          let* p = verr (Ovirt.Domain.get_policy dom) in
          let* on_boot =
            match boot with
            | None -> Ok p.Ovirt.Dompolicy.on_boot
            | Some s -> verr (Ovirt.Dompolicy.on_boot_of_name s)
          in
          let* on_shutdown =
            match shut with
            | None -> Ok p.Ovirt.Dompolicy.on_shutdown
            | Some s -> verr (Ovirt.Dompolicy.on_shutdown_of_name s)
          in
          let* run_state =
            match run with
            | None -> Ok p.Ovirt.Dompolicy.run_state
            | Some s -> verr (Ovirt.Dompolicy.run_state_of_name s)
          in
          let p = { Ovirt.Dompolicy.on_boot; on_shutdown; run_state } in
          let* () = verr (Ovirt.Domain.set_policy dom p) in
          Ok
            (Printf.sprintf "domain %s: policy declared (%s)" name
               (Ovirt.Dompolicy.to_string p)));
    simple "dominfo" "Domain management" "<domain> | --all"
      "print domain information" (fun args ->
        let info_block name uuid info autostart =
          String.concat "\n"
            ([
              Printf.sprintf "%-15s %s" "Name:" name;
              Printf.sprintf "%-15s %s" "UUID:" (Vmm.Uuid.to_string uuid);
              Printf.sprintf "%-15s %s" "State:"
                (state_name info.Ovirt.Driver.di_state);
              Printf.sprintf "%-15s %d KiB" "Max memory:"
                info.Ovirt.Driver.di_max_mem_kib;
              Printf.sprintf "%-15s %d KiB" "Used memory:"
                info.Ovirt.Driver.di_memory_kib;
              Printf.sprintf "%-15s %d" "CPU(s):" info.Ovirt.Driver.di_vcpus;
            ]
            @
            match autostart with
            | Some flag ->
              [
                Printf.sprintf "%-15s %s" "Autostart:"
                  (if flag then "enable" else "disable");
              ]
            | None -> [])
        in
        if Ovcli.has_switch args "all" then begin
          (* Every domain's info in one bulk exchange instead of a
             lookup + info + autostart round trip per domain. *)
          let* conn = require_conn shell in
          checked_bulk shell @@ fun () ->
          let* records = verr (Ovirt.Connect.list_all_domains conn) in
          Ok
            (String.concat "\n\n"
               (List.map
                  (fun r ->
                    info_block r.Ovirt.Driver.rec_ref.Ovirt.Driver.dom_name
                      r.Ovirt.Driver.rec_ref.Ovirt.Driver.dom_uuid
                      r.Ovirt.Driver.rec_info r.Ovirt.Driver.rec_autostart)
                  records))
        end
        else
          let* name = one_positional args "<domain>" in
          let* dom = lookup shell name in
          let* info = verr (Ovirt.Domain.get_info dom) in
          Ok
            (info_block name (Ovirt.Domain.uuid dom) info
               (Result.to_option (Ovirt.Domain.get_autostart dom))));
    simple "dumpxml" "Domain management" "<domain>" "print the domain's XML"
      (fun args ->
        let* name = one_positional args "<domain>" in
        let* dom = lookup shell name in
        verr (Ovirt.Domain.xml_desc dom));
    simple "setmem" "Domain management" "<domain> <kib>"
      "set the domain's memory balloon" (fun args ->
        match args.Ovcli.positional with
        | [ name; kib_str ] ->
          (match int_of_string_opt kib_str with
           | None -> Error "memory must be an integer (KiB)"
           | Some kib ->
             let* dom = lookup shell name in
             let* () = verr (Ovirt.Domain.set_memory dom kib) in
             Ok (Printf.sprintf "domain %s: balloon set to %d KiB" name kib))
        | _ -> Error "expected: setmem <domain> <kib>");
    simple "migrate" "Domain management" "<domain> <dest-uri>"
      "live-migrate a domain" (fun args ->
        match args.Ovcli.positional with
        | [ name; dest_uri ] ->
          let* dom = lookup shell name in
          let* dest = verr (Ovirt.Connect.open_uri dest_uri) in
          let* _dest_dom, stats = verr (Ovirt.Domain.migrate dom ~dest ()) in
          Ok
            (Printf.sprintf
               "domain %s migrated: %d precopy rounds, %d pages (%d B), %d pages \
                during downtime"
               name stats.Ovirt.Domain.rounds stats.Ovirt.Domain.pages_transferred
               stats.Ovirt.Domain.bytes_transferred
               stats.Ovirt.Domain.downtime_pages)
        | _ -> Error "expected: migrate <domain> <dest-uri>");
    simple "fleet-migrate" "Domain management" "<domain> <member>"
      "migrate a domain to another fleet member (journaled two-phase handshake)"
      (fun args ->
        match args.Ovcli.positional with
        | [ name; dest ] -> (
          let* conn = require_conn shell in
          match Ovirt.Connect.ops conn with
          | Ok { Ovirt.Driver.fleet = Some fv; _ } ->
            let* () = verr (fv.Ovirt.Driver.fleet_migrate ~domain:name ~dest) in
            Ok (Printf.sprintf "domain %s migrated to member %s" name dest)
          | Ok _ | Error _ ->
            Error "fleet-migrate needs a fleet connection (-c fleet://...)")
        | _ -> Error "expected: fleet-migrate <domain> <member>");
    simple "fleet-status" "Monitoring" ""
      "fleet member health as the controller's prober sees it" (fun _ ->
        let* conn = require_conn shell in
        match Ovirt.Connect.ops conn with
        | Ok { Ovirt.Driver.fleet = Some fv; _ } ->
          let* fs = verr (fv.Ovirt.Driver.fleet_status ()) in
          let buf = Buffer.create 128 in
          Buffer.add_string buf
            (Printf.sprintf "fleet %s: migrations active %d, recovered %d, \
                             rolled back %d\n"
               fs.Ovirt.Driver.fs_fleet fs.Ovirt.Driver.fs_migrations_active
               fs.Ovirt.Driver.fs_migrations_recovered
               fs.Ovirt.Driver.fs_migrations_rolled_back);
          Buffer.add_string buf
            (Printf.sprintf " %-20s %-10s %-8s %-9s %s\n" "Member" "Health"
               "Probes" "Failures" "Domains");
          List.iter
            (fun m ->
              Buffer.add_string buf
                (Printf.sprintf " %-20s %-10s %-8d %-9d %s\n"
                   m.Ovirt.Driver.ms_name
                   (Ovirt.Driver.member_health_name m.Ovirt.Driver.ms_health)
                   m.Ovirt.Driver.ms_probes m.Ovirt.Driver.ms_failures
                   (if m.Ovirt.Driver.ms_domains < 0 then "-"
                    else string_of_int m.Ovirt.Driver.ms_domains)))
            fs.Ovirt.Driver.fs_members;
          Ok (Buffer.contents buf)
        | Ok _ | Error _ ->
          Error "fleet-status needs a fleet connection (-c fleet://...)");
    simple "event" "Monitoring" "[--since SEQ] [--count N] [--timeout S]"
      "tail lifecycle events; --since resumes the sequence-numbered stream"
      (fun args ->
        let* count = Ovcli.int_flag args "count" in
        let count = Option.value count ~default:1 in
        let* timeout = Ovcli.int_flag args "timeout" in
        let* since = Ovcli.int_flag args "since" in
        match since with
        | None ->
          let* conn = require_conn shell in
          tail_events conn ~since:None ~count ~timeout
        | Some s ->
          (* A dedicated connection whose first subscription resumes at
             the given position: the daemon replays what it retains
             beyond it (remote connections only — the resume_from knob
             belongs to the remote driver). *)
          let* base = require_conn shell in
          let uri = Ovirt.Connect.uri base in
          let keep (k, _) =
            k <> "events" && k <> "resume" && k <> "resume_from"
          in
          let uri =
            {
              uri with
              Ovirt.Uri.params =
                List.filter keep uri.Ovirt.Uri.params
                @ [
                    ("events", "1"); ("resume", "1");
                    ("resume_from", string_of_int s);
                  ];
            }
          in
          let* conn = verr (Ovirt.Connect.open_uri (Ovirt.Uri.to_string uri)) in
          Fun.protect
            ~finally:(fun () -> Ovirt.Connect.close conn)
            (fun () -> tail_events conn ~since:(Some s) ~count ~timeout));
    simple "net-list" "Network management" "" "list virtual networks" (fun _ ->
        let* conn = require_conn shell in
        let* nets = verr (Ovirt.Network.list conn) in
        let buf = Buffer.create 128 in
        Buffer.add_string buf
          (Printf.sprintf " %-16s %-10s %-10s %s\n" "Name" "State" "Autostart"
             "Bridge");
        List.iter
          (fun n ->
            Buffer.add_string buf
              (Printf.sprintf " %-16s %-10s %-10s %s\n" n.Ovirt.Net_backend.net_name
                 (if n.Ovirt.Net_backend.active then "active" else "inactive")
                 (if n.Ovirt.Net_backend.autostart then "yes" else "no")
                 n.Ovirt.Net_backend.bridge))
          nets;
        Ok (Buffer.contents buf));
    simple "pool-list" "Storage management" "" "list storage pools" (fun _ ->
        let* conn = require_conn shell in
        let* pools = verr (Ovirt.Storage.list_pools conn) in
        let buf = Buffer.create 128 in
        Buffer.add_string buf
          (Printf.sprintf " %-16s %-10s %-14s %s\n" "Name" "State" "Capacity"
             "Allocation");
        List.iter
          (fun p ->
            Buffer.add_string buf
              (Printf.sprintf " %-16s %-10s %-14d %d\n"
                 p.Ovirt.Storage_backend.pool_name
                 (if p.Ovirt.Storage_backend.pool_active then "active" else "inactive")
                 p.Ovirt.Storage_backend.capacity_b
                 p.Ovirt.Storage_backend.allocation_b))
          pools;
        Ok (Buffer.contents buf));
    simple "vol-list" "Storage management" "<pool>" "list volumes in a pool"
      (fun args ->
        let* pool_name = one_positional args "<pool>" in
        let* conn = require_conn shell in
        let* pool = verr (Ovirt.Storage.lookup_pool conn pool_name) in
        let* vols = verr (Ovirt.Storage.list_volumes pool) in
        let buf = Buffer.create 128 in
        Buffer.add_string buf (Printf.sprintf " %-16s %-12s %s\n" "Name" "Capacity" "Path");
        List.iter
          (fun v ->
            Buffer.add_string buf
              (Printf.sprintf " %-16s %-12d %s\n" v.Ovirt.Storage_backend.vol_name
                 v.Ovirt.Storage_backend.vol_capacity_b
                 v.Ovirt.Storage_backend.vol_key))
          vols;
        Ok (Buffer.contents buf));
  ]

(* Fold --timeout into the connection URI as the remote driver's
   timeout= parameter (local drivers just ignore it). *)
let with_timeout uri timeout =
  match timeout with
  | None -> uri
  | Some t ->
    uri ^ (if String.contains uri '?' then "&" else "?") ^ "timeout=" ^ t

let () =
  let argv = Array.to_list Sys.argv in
  let rec parse_opts uri timeout = function
    | "-c" :: u :: rest -> parse_opts (Some u) timeout rest
    | "--timeout" :: t :: rest -> parse_opts uri (Some t) rest
    | rest -> (uri, timeout, rest)
  in
  let uri, timeout, rest =
    match argv with _ :: rest -> parse_opts None None rest | [] -> (None, None, [])
  in
  (match timeout with
   | Some t when float_of_string_opt t = None || float_of_string t <= 0. ->
     Printf.eprintf "error: --timeout expects a positive number of seconds\n";
     exit 1
   | Some _ | None -> ());
  let uri = Option.map (fun u -> with_timeout u timeout) uri in
  let shell = { conn = None } in
  (match uri with
   | None -> ()
   | Some uri ->
     (match Ovirt.Connect.open_uri uri with
      | Ok conn -> shell.conn <- Some conn
      | Error err ->
        Printf.eprintf "error: failed to connect to %s: %s\n" uri
          (Ovirt.Verror.to_string err);
        exit 1));
  let commands = commands shell in
  match rest with
  | [] ->
    print_endline "Welcome to ovirsh, the virtualization interactive shell.";
    print_endline "Type 'help' for a command list, 'quit' to leave.\n";
    Ovcli.repl ~commands ~program:"ovirsh" ~prompt:"ovirsh # " stdin stdout
  | tokens ->
    (match Ovcli.run_one ~commands ~program:"ovirsh" tokens with
     | Ok text ->
       print_endline text;
       exit 0
     | Error msg ->
       Printf.eprintf "error: %s\n" msg;
       exit 1)
