(* Wire transcript: one deterministic session per protocol minor, 2 to
   the build's, against a test-driver daemon pinned to that minor.  The
   session calls every row of the procedure table at least once (a row
   newer than the minor records its rejection) and records each request
   frame and its reply frame in plaintext, before any transport wrap.
   The transcript must equal the corpus under test/wire byte for byte:
   a diff at an existing minor means the wire changed.

   The daemon runs with its reply cache off, so a v1.8 listing token is
   the zero token; the token encodings get literal vectors below.

   OVIRT_WIRE_REPLY_CACHE=1 runs the transcripts with the reply cache on
   instead, so cached replies are compared with the corpus too (from
   v1.3, the first minor with a cached listing, the cache must have
   been filled).  It stops below v1.8, whose conditional listing then
   carries the boot nonce, and it needs a process of its own: the session's domain takes
   its MAC address from a process-wide counter, so a second pass in one
   process differs at the define_xml request.

   The admin program has one transcript of its own, test/wire/admin.txt:
   one session against a fresh daemon that calls each of its procedures
   once, drain last.  Words that read the wall clock (connection times,
   last activity, uptime) are written as x's; everything else is
   compared byte for byte, in both modes.

   Regenerating the corpus (reply cache off):
     OVIRT_WIRE_CORPUS_WRITE=test/wire dune exec test/test_wire.exe
   writes one file per minor, and admin.txt, into that directory before
   comparing. *)

open Testutil
module Daemon = Ovirt.Daemon
module Daemon_config = Ovirt.Daemon_config
module Rp = Protocol.Remote_protocol
module Rpc_packet = Ovrpc.Rpc_packet
module Transport = Ovnet.Transport
module Admin = Ovirt.Admin_client
module Ap = Protocol.Admin_protocol
module Tp = Ovrpc.Typed_params
module Server_obj = Ovirt.Server_obj

let () = Ovirt.initialize ()

let cache_on = Sys.getenv_opt "OVIRT_WIRE_REPLY_CACHE" = Some "1"

let config minor =
  {
    Daemon_config.default with
    Daemon_config.log_outputs = [ { Vlog.min_priority = Vlog.Debug; sink = Vlog.Null } ];
    proto_minor = minor;
    reply_cache = (if cache_on then 1 else 0);
  }

(* The session: (procedure, body) pairs.  Fixed names and a fixed UUID
   for the one defined domain; every other identity on the wire comes
   from the test driver, which names its own objects after the node. *)
let session ~node =
  let vm = "wire-vm" in
  let uuid = "5f1c0d2e-7a3b-4c9d-8e1f-203142536475" in
  let xml =
    let uuid = Result.get_ok (Vmm.Uuid.of_string uuid) in
    Vmm.Domxml.to_xml ~virt_type:"test"
      (Vmm.Vm_config.make ~uuid ~memory_kib:(8 * 1024) vm)
  in
  (* A call through its signature; [p] writes a body by hand, for the
     two calls whose body is deliberately not their layout. *)
  let c (sg : (_, _) Rp.signature) args = (sg.Rp.sg_proc, Xdr.encode sg.Rp.sg_args args) in
  let p proc body = (proc, body) in
  let sub (sg : (_, _) Rp.signature) args =
    (Rp.proc_to_int sg.Rp.sg_proc, Xdr.encode sg.Rp.sg_args args)
  in
  [
    c Rp.open_ (Printf.sprintf "test://%s/" node);
    c Rp.proto_minor ();
    c Rp.get_capabilities ();
    c Rp.get_hostname ();
    c Rp.define_xml xml;
    c Rp.list_domains ();
    c Rp.list_defined ();
    c Rp.lookup_by_name vm;
    c Rp.lookup_by_uuid uuid;
    c Rp.dom_get_xml vm;
    c Rp.dom_set_memory (vm, 4096);
    c Rp.dom_set_autostart (vm, true);
    c Rp.dom_get_autostart vm;
    c Rp.event_register ();
    c Rp.dom_create vm;
    c Rp.dom_suspend vm;
    c Rp.dom_resume vm;
    c Rp.dom_get_info vm;
    c Rp.dom_save vm;
    c Rp.dom_has_managed_save vm;
    c Rp.dom_restore vm;
    c Rp.dom_shutdown vm;
    c Rp.dom_create vm;
    c Rp.dom_destroy vm;
    c Rp.event_deregister ();
    c Rp.net_list ();
    c Rp.net_define ("wirenet", "virbr9", "10.9.0.0/24");
    c Rp.net_start "wirenet";
    c Rp.net_set_autostart ("wirenet", true);
    c Rp.net_lookup "wirenet";
    c Rp.net_stop "wirenet";
    c Rp.net_undefine "wirenet";
    c Rp.pool_list ();
    c Rp.pool_define ("wirepool", "/wirepool", 1 lsl 30);
    c Rp.pool_start "wirepool";
    c Rp.pool_lookup "wirepool";
    c Rp.vol_create ("wirepool", "disk.img", 1 lsl 20, "qcow2");
    c Rp.vol_list "wirepool";
    c Rp.vol_lookup "/wirepool/disk.img";
    c Rp.vol_delete ("wirepool", "disk.img");
    c Rp.pool_stop "wirepool";
    c Rp.pool_undefine "wirepool";
    c Rp.dom_list_all ();
    c Rp.call_batch [ sub Rp.dom_get_info vm; sub Rp.lookup_by_name "no-such-vm" ];
    c Rp.call_deadline
      (let n, b = sub Rp.dom_get_info vm in
       (60_000, n, b));
    c Rp.daemon_reconcile_status ();
    c Rp.dom_set_policy (vm, Ovirt_core.Dompolicy.default);
    c Rp.dom_get_policy vm;
    c Rp.event_resume (-1);
    c Rp.event_deregister ();
    p Rp.Proc_event_lifecycle "";
    p Rp.Proc_event_lifecycle_seq "";
    c Rp.fleet_list_all ();
    c Rp.fleet_status ();
    c Rp.fleet_migrate (vm, "elsewhere");
    c Rp.fleet_list_since Rp.no_token;
    c Rp.echo "wire";
    c Rp.ping ();
    c Rp.undefine vm;
    c Rp.close ();
  ]

let hex s =
  String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

(* One minor's transcript: two lines per exchange, the request ("> N
   hex") and its reply ("< hex").  Frames that answer no call (event
   pushes) are not part of it. *)
let transcript minor =
  let name = Printf.sprintf "wired-m%d" minor in
  let daemon = Daemon.start ~name ~config:(config minor) () in
  Fun.protect
    ~finally:(fun () -> Daemon.stop daemon)
    (fun () ->
      let conn =
        Ovnet.Netsim.connect (Daemon.mgmt_address daemon) Transport.Unix_sock
      in
      let buf = Buffer.create 65536 in
      List.iteri
        (fun i (proc, body) ->
          let procedure = Rp.proc_to_int proc in
          let serial = i + 1 in
          let request =
            Rpc_packet.encode
              (Rpc_packet.call_header ~program:Rp.program ~version:Rp.version
                 ~procedure ~serial)
              body
          in
          Transport.send conn request;
          let rec reply () =
            let frame = Transport.recv conn in
            let header, _ = Rpc_packet.decode frame in
            if header.Rpc_packet.msg_type = Rpc_packet.Reply
               && header.Rpc_packet.serial = serial
            then frame
            else reply ()
          in
          let reply = reply () in
          Printf.bprintf buf "> %d %s\n< %s\n" procedure (hex request) (hex reply))
        (session ~node:(Printf.sprintf "wire-n%d" minor));
      Transport.close conn;
      if cache_on && minor >= Rp.proc_min_minor Rp.Proc_dom_list_all then begin
        let admin = vok (Admin.connect ~daemon:name ()) in
        let rc = vok (Admin.reply_cache_stats admin) in
        Admin.close admin;
        if rc.Admin.rc_insertions = 0 then
          Alcotest.failf "v1.%d: the reply cache was never filled" minor
      end;
      Buffer.contents buf)

let corpus_file dir minor = Filename.concat dir (Printf.sprintf "v1.%d.txt" minor)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let first_diff a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go n = function
    | x :: xs, y :: ys -> if String.equal x y then go (n + 1) (xs, ys) else Some (n, x, y)
    | [], [] -> None
    | x :: _, [] -> Some (n, x, "<end of corpus>")
    | [], y :: _ -> Some (n, "<end of transcript>", y)
  in
  go 1 (la, lb)

let clip s = if String.length s > 120 then String.sub s 0 120 ^ "..." else s

(* [dune runtest] runs in the test directory, [dune exec] at the root. *)
let corpus_dir = if Sys.file_exists "wire" then "wire" else Filename.concat "test" "wire"

let minors =
  let all = List.init (Rp.minor - 1) (fun i -> i + 2) in
  if cache_on then List.filter (fun m -> m < Rp.proc_min_minor Rp.Proc_fleet_list_since) all
  else all

let test_session_covers_table () =
  let used = List.map (fun (p, _) -> Rp.proc_to_int p) (session ~node:"n") in
  let rec rows n =
    match Rp.proc_of_int n with
    | Error _ -> n - 1
    | Ok _ ->
      if not (List.mem n used) then Alcotest.failf "row %d is not in the session" n;
      rows (n + 1)
  in
  Alcotest.(check int) "every row of the table" 58 (rows 1)

let test_transcript_matches_corpus () =
  let write_dir = if cache_on then None else Sys.getenv_opt "OVIRT_WIRE_CORPUS_WRITE" in
  List.iter
    (fun minor ->
      let got = transcript minor in
      (match write_dir with
       | Some dir ->
         Out_channel.with_open_bin (corpus_file dir minor) (fun oc ->
             output_string oc got)
       | None -> ());
      let path = corpus_file corpus_dir minor in
      if not (Sys.file_exists path) then Alcotest.failf "no corpus for v1.%d" minor;
      match first_diff got (read_file path) with
      | None -> ()
      | Some (line, got, want) ->
        Alcotest.failf "v1.%d transcript differs at line %d:\n got  %s\n want %s"
          minor line (clip got) (clip want))
    minors

(* ---- the admin program ---- *)

let admin_session () =
  let c (sg : (_, _) Ap.signature) args = (sg.Ap.sg_proc, Xdr.encode sg.Ap.sg_args args) in
  [
    c Ap.list_servers ();
    c Ap.lookup_server "libvirtd";
    c Ap.get_threadpool "libvirtd";
    c Ap.set_threadpool ("libvirtd", [ Tp.uint Ap.threadpool_workers_max 20 ]);
    c Ap.daemon_pool_stats "libvirtd";
    c Ap.get_client_limits "libvirtd";
    c Ap.set_client_limits ("libvirtd", [ Tp.uint Ap.server_clients_max 120 ]);
    c Ap.list_clients "admin";
    c Ap.get_client_info ("admin", 1L);
    c Ap.client_close ("admin", 2L);
    c Ap.get_log_level ();
    c Ap.set_log_level 3;
    c Ap.get_log_filters ();
    c Ap.set_log_filters "3:daemon";
    c Ap.get_log_outputs ();
    c Ap.set_log_outputs "1:null";
    c Ap.daemon_reconcile_status ();
    c Ap.daemon_event_stats ();
    c Ap.daemon_reply_cache_stats ();
    c Ap.daemon_fleet_status ();
    c Ap.daemon_uptime ();
    c Ap.daemon_drain ();
  ]

(* A hyper at a word boundary whose value lies in the session's wall-clock
   window, in seconds, is a timestamp. *)
let mask_clock ~lo ~hi h =
  let b = Bytes.of_string h in
  let i = ref 0 in
  while !i + 16 <= Bytes.length b do
    (match Int64.of_string_opt ("0x" ^ Bytes.sub_string b !i 16) with
     | Some v when v >= lo && v <= hi -> Bytes.fill b !i 16 'x'
     | Some _ | None -> ());
    i := !i + 8
  done;
  Bytes.to_string b

let wait_until what f =
  let give_up = Unix.gettimeofday () +. 5. in
  while not (f ()) do
    if Unix.gettimeofday () > give_up then Alcotest.failf "timed out waiting for %s" what;
    Thread.delay 0.002
  done

(* A fresh daemon with its pools parked, a second admin connection for
   client_close to drop, and the drain last: it closes the session. *)
let admin_transcript () =
  let name = "wired-admin" in
  let daemon = Daemon.start ~name ~config:{ (config Rp.minor) with reply_cache = 0 } () in
  Fun.protect
    ~finally:(fun () -> Daemon.stop daemon)
    (fun () ->
      let lo = Int64.of_float (Unix.time ()) in
      let server n = Option.get (Daemon.find_server daemon n) in
      let parked n () =
        let s = Threadpool.stats (Server_obj.pool (server n)) in
        s.Threadpool.free_workers = s.Threadpool.n_workers
      in
      wait_until "libvirtd's workers" (parked "libvirtd");
      let connect () =
        Ovnet.Netsim.connect (Daemon.admin_address daemon) Transport.Unix_sock
      in
      let clients n () = List.length (Server_obj.list_clients (server "admin")) = n in
      let conn = connect () in
      wait_until "the first admin client" (clients 1);
      let spare = connect () in
      wait_until "the second admin client" (clients 2);
      let replies =
        List.mapi
          (fun i (proc, body) ->
            let procedure = Ap.proc_to_int proc in
            let serial = i + 1 in
            let request =
              Rpc_packet.encode
                (Rpc_packet.call_header ~program:Ap.program ~version:Ap.version
                   ~procedure ~serial)
                body
            in
            Transport.send conn request;
            let rec reply () =
              let frame = Transport.recv conn in
              let header, _ = Rpc_packet.decode frame in
              if header.Rpc_packet.msg_type = Rpc_packet.Reply
                 && header.Rpc_packet.serial = serial
              then frame
              else reply ()
            in
            (proc, procedure, request, reply ()))
          (admin_session ())
      in
      Transport.close conn;
      Transport.close spare;
      let hi = Int64.add (Int64.of_float (Unix.time ())) 1L in
      let buf = Buffer.create 8192 in
      List.iter
        (fun (proc, procedure, request, reply) ->
          let reply = mask_clock ~lo ~hi (hex reply) in
          (* uptime is a bare hyper of seconds since the start *)
          let reply =
            if proc = Ap.Proc_daemon_uptime then
              String.sub reply 0 (String.length reply - 16) ^ String.make 16 'x'
            else reply
          in
          Printf.bprintf buf "> %d %s\n< %s\n" procedure (hex request) reply)
        replies;
      Buffer.contents buf)

let admin_corpus dir = Filename.concat dir "admin.txt"

let test_admin_session_covers_table () =
  let used = List.map (fun (p, _) -> Ap.proc_to_int p) (admin_session ()) in
  let rec rows n =
    match Ap.proc_of_int n with
    | Error _ -> n - 1
    | Ok _ ->
      if not (List.mem n used) then Alcotest.failf "admin row %d is not in the session" n;
      rows (n + 1)
  in
  Alcotest.(check int) "every admin procedure" 22 (rows 1);
  Alcotest.(check int) "each once" 22 (List.length used)

let test_admin_transcript_matches_corpus () =
  let got = admin_transcript () in
  (match if cache_on then None else Sys.getenv_opt "OVIRT_WIRE_CORPUS_WRITE" with
   | Some dir ->
     Out_channel.with_open_bin (admin_corpus dir) (fun oc -> output_string oc got)
   | None -> ());
  let path = admin_corpus corpus_dir in
  if not (Sys.file_exists path) then Alcotest.fail "no admin corpus";
  match first_diff got (read_file path) with
  | None -> ()
  | Some (line, got, want) ->
    Alcotest.failf "admin transcript differs at line %d:\n got  %s\n want %s" line
      (clip got) (clip want)

(* The reply cache is off above, so these encodings never reach the
   corpus with a token other than zero. *)
let test_token_vectors () =
  let t = { Rp.ft_nonce = 0x01020304; ft_fill = 5 } in
  let since r = Xdr.encode Rp.since_reply r in
  let token t = hex (Xdr.encode Rp.fleet_token t) in
  Alcotest.(check string) "token" "0102030400000005" (token t);
  Alcotest.(check string) "unchanged reply, 12 bytes" "010203040000000500000000"
    (hex (since (Rp.Since_unchanged t)));
  Alcotest.(check string) "zero token" "0000000000000000" (token Rp.no_token);
  let listing =
    Ovirt_core.Driver.{ fl_records = []; fl_shard_errors = []; fl_members = 1 }
  in
  let full = since (Rp.Since_full (t, listing)) in
  Alcotest.(check string) "full reply: token, discriminant, v1.7 body"
    ("010203040000000500000001" ^ hex (Xdr.encode Rp.fleet_listing listing))
    (hex full);
  Alcotest.(check string) "the same from encoded bytes" (hex full)
    (hex (Rp.enc_since_full_raw t (Xdr.encode Rp.fleet_listing listing)));
  (match Xdr.decode Rp.since_reply (since (Rp.Since_unchanged t)) with
   | Rp.Since_unchanged t' -> Alcotest.(check bool) "unchanged decodes" true (t = t')
   | Rp.Since_full _ -> Alcotest.fail "decoded as full");
  (match Xdr.decode Rp.since_reply full with
   | Rp.Since_full (t', l) ->
     Alcotest.(check bool) "full decodes" true (t = t' && l = listing)
   | Rp.Since_unchanged _ -> Alcotest.fail "decoded as unchanged");
  (* A fill number past 32 bits travels cut to its low word. *)
  Alcotest.(check string) "wide fill" "0000000700000003"
    (token { Rp.ft_nonce = 7; ft_fill = (1 lsl 32) + 3 });
  match Xdr.decode Rp.since_reply "\001\002\003\004\000\000\000\005\000\000\000\002" with
  | exception Xdr.Error _ -> ()
  | _ -> Alcotest.fail "unknown discriminant accepted"

let () =
  Alcotest.run "wire"
    [
      ( "transcript",
        [
          quick "session covers every row" test_session_covers_table;
          (if cache_on then
             quick "matches the corpus below v1.8 with the reply cache on"
               test_transcript_matches_corpus
           else quick "matches the corpus at every minor" test_transcript_matches_corpus);
          quick "v1.8 token vectors" test_token_vectors;
        ] );
      ( "admin transcript",
        [
          quick "session covers every procedure" test_admin_session_covers_table;
          quick "matches the corpus" test_admin_transcript_matches_corpus;
        ] );
    ]
