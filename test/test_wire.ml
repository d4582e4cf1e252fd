(* Wire transcript: one deterministic session per protocol minor, 2 to
   the build's, against a test-driver daemon pinned to that minor.  The
   session calls every row of the procedure table at least once (a row
   newer than the minor records its rejection) and records each request
   frame and its reply frame in plaintext, before any transport wrap.
   The transcript must equal the corpus under test/wire byte for byte:
   a diff at an existing minor means the wire changed.

   The daemon runs with its reply cache off, so a v1.8 listing token is
   the zero token; the token encodings get literal vectors below.

   Regenerating the corpus:
     OVIRT_WIRE_CORPUS_WRITE=test/wire dune exec test/test_wire.exe
   writes one file per minor into that directory before comparing. *)

open Testutil
module Daemon = Ovirt.Daemon
module Daemon_config = Ovirt.Daemon_config
module Rp = Protocol.Remote_protocol
module Rpc_packet = Ovrpc.Rpc_packet
module Transport = Ovnet.Transport

let () = Ovirt.initialize ()

let config minor =
  {
    Daemon_config.default with
    Daemon_config.log_outputs = [ { Vlog.min_priority = Vlog.Debug; sink = Vlog.Null } ];
    proto_minor = minor;
    reply_cache = 0;
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
  let s = Rp.enc_string_body and unit = Rp.enc_unit_body in
  let p proc body = (proc, body) in
  [
    p Rp.Proc_open (s (Printf.sprintf "test://%s/" node));
    p Rp.Proc_proto_minor unit;
    p Rp.Proc_get_capabilities unit;
    p Rp.Proc_get_hostname unit;
    p Rp.Proc_define_xml (s xml);
    p Rp.Proc_list_domains unit;
    p Rp.Proc_list_defined unit;
    p Rp.Proc_lookup_by_name (s vm);
    p Rp.Proc_lookup_by_uuid (s uuid);
    p Rp.Proc_dom_get_xml (s vm);
    p Rp.Proc_dom_set_memory (Rp.enc_name_and_kib vm 4096);
    p Rp.Proc_dom_set_autostart (Rp.enc_name_and_bool vm true);
    p Rp.Proc_dom_get_autostart (s vm);
    p Rp.Proc_event_register unit;
    p Rp.Proc_dom_create (s vm);
    p Rp.Proc_dom_suspend (s vm);
    p Rp.Proc_dom_resume (s vm);
    p Rp.Proc_dom_get_info (s vm);
    p Rp.Proc_dom_save (s vm);
    p Rp.Proc_dom_has_managed_save (s vm);
    p Rp.Proc_dom_restore (s vm);
    p Rp.Proc_dom_shutdown (s vm);
    p Rp.Proc_dom_create (s vm);
    p Rp.Proc_dom_destroy (s vm);
    p Rp.Proc_event_deregister unit;
    p Rp.Proc_net_list unit;
    p Rp.Proc_net_define
      (Rp.enc_net_define ~name:"wirenet" ~bridge:"virbr9" ~ip_range:"10.9.0.0/24");
    p Rp.Proc_net_start (s "wirenet");
    p Rp.Proc_net_set_autostart (Rp.enc_name_and_bool "wirenet" true);
    p Rp.Proc_net_lookup (s "wirenet");
    p Rp.Proc_net_stop (s "wirenet");
    p Rp.Proc_net_undefine (s "wirenet");
    p Rp.Proc_pool_list unit;
    p Rp.Proc_pool_define
      (Rp.enc_pool_define ~name:"wirepool" ~target_path:"/wirepool"
         ~capacity_b:(1 lsl 30));
    p Rp.Proc_pool_start (s "wirepool");
    p Rp.Proc_pool_lookup (s "wirepool");
    p Rp.Proc_vol_create
      (Rp.enc_vol_create ~pool:"wirepool" ~name:"disk.img" ~capacity_b:(1 lsl 20)
         ~format:"qcow2");
    p Rp.Proc_vol_list (s "wirepool");
    p Rp.Proc_vol_lookup (s "/wirepool/disk.img");
    p Rp.Proc_vol_delete (Rp.enc_vol_ref ~pool:"wirepool" ~name:"disk.img");
    p Rp.Proc_pool_stop (s "wirepool");
    p Rp.Proc_pool_undefine (s "wirepool");
    p Rp.Proc_dom_list_all unit;
    p Rp.Proc_call_batch
      (Rp.enc_batch_call
         [
           (Rp.proc_to_int Rp.Proc_dom_get_info, s vm);
           (Rp.proc_to_int Rp.Proc_lookup_by_name, s "no-such-vm");
         ]);
    p Rp.Proc_call_deadline
      (Rp.enc_deadline_call ~budget_ms:60_000
         ~proc:(Rp.proc_to_int Rp.Proc_dom_get_info) (s vm));
    p Rp.Proc_daemon_reconcile_status unit;
    p Rp.Proc_dom_set_policy (Rp.enc_set_policy vm Ovirt_core.Dompolicy.default);
    p Rp.Proc_dom_get_policy (s vm);
    p Rp.Proc_event_resume (Rp.enc_event_resume (-1));
    p Rp.Proc_event_deregister unit;
    p Rp.Proc_event_lifecycle unit;
    p Rp.Proc_event_lifecycle_seq unit;
    p Rp.Proc_fleet_list_all unit;
    p Rp.Proc_fleet_status unit;
    p Rp.Proc_fleet_migrate (Rp.enc_fleet_migrate ~domain:vm ~dest:"elsewhere");
    p Rp.Proc_fleet_list_since (Rp.enc_fleet_token Rp.no_token);
    p Rp.Proc_echo "wire";
    p Rp.Proc_ping unit;
    p Rp.Proc_undefine (s vm);
    p Rp.Proc_close unit;
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

let minors = List.init (Rp.minor - 1) (fun i -> i + 2)

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
  let write_dir = Sys.getenv_opt "OVIRT_WIRE_CORPUS_WRITE" in
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

(* The reply cache is off above, so these encodings never reach the
   corpus with a token other than zero. *)
let test_token_vectors () =
  let t = { Rp.ft_nonce = 0x01020304; ft_fill = 5 } in
  Alcotest.(check string) "token" "0102030400000005" (hex (Rp.enc_fleet_token t));
  Alcotest.(check string) "unchanged reply, 12 bytes" "010203040000000500000000"
    (hex (Rp.enc_since_unchanged t));
  Alcotest.(check string) "zero token" "0000000000000000"
    (hex (Rp.enc_fleet_token Rp.no_token));
  let listing =
    Ovirt_core.Driver.{ fl_records = []; fl_shard_errors = []; fl_members = 1 }
  in
  Alcotest.(check string) "full reply: token, discriminant, v1.7 body"
    ("010203040000000500000001" ^ hex (Rp.enc_fleet_listing listing))
    (hex (Rp.enc_since_full t listing));
  Alcotest.(check string) "the same from encoded bytes"
    (hex (Rp.enc_since_full t listing))
    (hex (Rp.enc_since_full_raw t (Rp.enc_fleet_listing listing)));
  (match Rp.dec_since_reply (Rp.enc_since_unchanged t) with
   | Rp.Since_unchanged t' -> Alcotest.(check bool) "unchanged decodes" true (t = t')
   | Rp.Since_full _ -> Alcotest.fail "decoded as full");
  (match Rp.dec_since_reply (Rp.enc_since_full t listing) with
   | Rp.Since_full (t', l) ->
     Alcotest.(check bool) "full decodes" true (t = t' && l = listing)
   | Rp.Since_unchanged _ -> Alcotest.fail "decoded as unchanged");
  (* A fill number past 32 bits travels cut to its low word. *)
  Alcotest.(check string) "wide fill" "0000000700000003"
    (hex (Rp.enc_fleet_token { Rp.ft_nonce = 7; ft_fill = (1 lsl 32) + 3 }));
  match Rp.dec_since_reply "\001\002\003\004\000\000\000\005\000\000\000\002" with
  | exception Xdr.Error _ -> ()
  | _ -> Alcotest.fail "unknown discriminant accepted"

let () =
  Alcotest.run "wire"
    [
      ( "transcript",
        [
          quick "session covers every row" test_session_covers_table;
          quick "matches the corpus at every minor" test_transcript_matches_corpus;
          quick "v1.8 token vectors" test_token_vectors;
        ] );
    ]
