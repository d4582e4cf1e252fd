(* VM model: UUIDs, domain configs, lifecycle state machine, guest memory
   images, and the domain XML schema. *)

open Testutil
module Uuid = Vmm.Uuid
module Vm_config = Vmm.Vm_config
module Vm_state = Vmm.Vm_state
module Guest_image = Vmm.Guest_image

(* --- Uuid --------------------------------------------------------------- *)

let test_uuid_format () =
  let u = Uuid.generate () in
  let s = Uuid.to_string u in
  Alcotest.(check int) "canonical length" 36 (String.length s);
  Alcotest.(check char) "dash positions" '-' s.[8];
  Alcotest.(check char) "version nibble" '4' s.[14]

let test_uuid_uniqueness () =
  let n = 1000 in
  let tbl = Hashtbl.create n in
  for _ = 1 to n do
    Hashtbl.replace tbl (Uuid.to_string (Uuid.generate ())) ()
  done;
  Alcotest.(check int) "all distinct" n (Hashtbl.length tbl)

let test_uuid_parse () =
  let u = Uuid.generate () in
  Alcotest.(check bool) "roundtrip" true (Uuid.of_string (Uuid.to_string u) = Ok u);
  Alcotest.(check bool) "uppercase accepted" true
    (Uuid.of_string (String.uppercase_ascii (Uuid.to_string u)) = Ok u);
  List.iter
    (fun s ->
      match Uuid.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" s)
    [
      ""; "not-a-uuid"; "aaaaaaaa-bbbb-cccc-dddd-eeeeeeeeeee";
      "aaaaaaaa-bbbb-cccc-dddd-eeeeeeeeeeeZ";
      "aaaaaaaabbbbccccddddeeeeeeeeeeee----";
    ]

let prop_uuid_roundtrip =
  qcheck_case ~count:100 "generate/parse roundtrip" QCheck.unit (fun () ->
      let u = Uuid.generate () in
      Uuid.of_string (Uuid.to_string u) = Ok u)

(* Reference rendering, one Printf call per byte.  Placement hashes the
   text form, so [Uuid.to_string] must match it byte for byte. *)
let printf_rendering raw =
  let hex i = Printf.sprintf "%02x" (Char.code raw.[i]) in
  String.concat ""
    [ hex 0; hex 1; hex 2; hex 3; "-"; hex 4; hex 5; "-"; hex 6; hex 7; "-";
      hex 8; hex 9; "-"; hex 10; hex 11; hex 12; hex 13; hex 14; hex 15 ]

let prop_uuid_rendering =
  let raw16 =
    QCheck.make ~print:String.escaped
      QCheck.Gen.(
        frequency
          [
            (1, return (String.make 16 '\x00'));
            (1, return (String.make 16 '\xff'));
            (18, string_size ~gen:char (return 16));
          ])
  in
  qcheck_case ~count:500 "to_string matches the Printf rendering" raw16
    (fun raw ->
      let text = printf_rendering raw in
      match Uuid.of_string text with
      | Ok u -> Uuid.to_string u = text
      | Error _ -> false)

(* Random 36-character strings over [0-9a-fA-F-g], mostly near-canonical:
   each slot holds what the canonical form puts there nine times in ten,
   so both answers come up often. *)
let uuid_alphabet = "0123456789abcdefABCDEF-g"

let is_dash_offset i = i = 8 || i = 13 || i = 18 || i = 23

let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false

let canonical s =
  String.length s = 36
  && List.for_all
       (fun i -> if is_dash_offset i then s.[i] = '-' else is_hex s.[i])
       (List.init 36 Fun.id)

let uuid_text =
  let open QCheck.Gen in
  let pick n = map (String.get uuid_alphabet) (int_bound (n - 1)) in
  let any = pick (String.length uuid_alphabet) and hex = pick 22 in
  let slot i =
    frequency [ (9, if is_dash_offset i then return '-' else hex); (1, any) ]
  in
  QCheck.make ~print:Fun.id
    (map (fun l -> String.init 36 (List.nth l)) (flatten_l (List.init 36 slot)))

let prop_uuid_parse_total =
  qcheck_case ~count:1000 "of_string is total and exact" uuid_text (fun s ->
      match Uuid.of_string s with
      | Ok u -> canonical s && Uuid.to_string u = String.lowercase_ascii s
      | Error _ -> not (canonical s)
      | exception e ->
        QCheck.Test.fail_reportf "%S raised %s" s (Printexc.to_string e))

let all_dashes = String.make 36 '-'

let test_uuid_all_dashes_over_daemon () =
  let name = fresh_name "uuidd" in
  let config =
    {
      Ovirt.Daemon_config.default with
      Ovirt.Daemon_config.log_outputs =
        [ { Vlog.min_priority = Vlog.Debug; sink = Vlog.Null } ];
    }
  in
  let daemon = Ovirt.Daemon.start ~name ~config () in
  Fun.protect
    ~finally:(fun () -> Ovirt.Daemon.stop daemon)
    (fun () ->
      let module Rp = Protocol.Remote_protocol in
      let client =
        vok
          (Rpc_client.connect ~address:(name ^ "-sock")
             ~kind:Ovnet.Transport.Unix_sock ~program:Rp.program
             ~version:Rp.version ())
      in
      let call proc body =
        Rpc_client.call client ~procedure:(Rp.proc_to_int proc) ~body ()
      in
      ignore
        (vok
           (call Rp.Proc_open
              (Rp.enc_string_body ("test://" ^ fresh_name "uuidnode" ^ "/"))));
      (match call Rp.Proc_lookup_by_uuid (Rp.enc_string_body all_dashes) with
      | Ok _ -> Alcotest.fail "36 dashes looked up"
      | Error e ->
        Alcotest.(check bool) "invalid_arg, not internal_error" true
          (e.Ovirt.Verror.code = Ovirt.Verror.Invalid_arg);
        Alcotest.(check bool) "names the malformed uuid" true
          (String.starts_with ~prefix:"malformed UUID" e.Ovirt.Verror.message));
      Rpc_client.close client)

let test_uuid_all_dashes_local_define () =
  let conn = fresh_test_conn () in
  let xml =
    Printf.sprintf
      "<domain type='test'><name>dashes</name><uuid>%s</uuid>\
       <memory>8192</memory><vcpu>1</vcpu></domain>"
      all_dashes
  in
  (match Ovirt.Domain.define_xml conn xml with
  | Ok _ -> Alcotest.fail "defined a domain with 36-dash uuid"
  | Error _ -> ());
  Ovirt.Connect.close conn

(* --- Vm_config ---------------------------------------------------------- *)

let test_config_defaults () =
  let cfg = Vm_config.make "vm" in
  Alcotest.(check int) "default memory" (64 * 1024) cfg.Vm_config.memory_kib;
  Alcotest.(check int) "one disk" 1 (List.length cfg.Vm_config.disks);
  Alcotest.(check int) "one nic" 1 (List.length cfg.Vm_config.nics);
  Alcotest.(check bool) "valid" true (Vm_config.validate cfg = Ok ())

let test_config_validation () =
  let base = Vm_config.make "vm" in
  let invalid cfg =
    match Vm_config.validate cfg with
    | Error _ -> ()
    | Ok () -> Alcotest.fail "invalid config accepted"
  in
  invalid { base with Vm_config.name = "" };
  invalid { base with Vm_config.name = "has/slash" };
  invalid { base with Vm_config.memory_kib = 0 };
  invalid { base with Vm_config.memory_kib = -1 };
  invalid { base with Vm_config.vcpus = 0 };
  invalid { base with Vm_config.vcpus = 5000 };
  invalid
    {
      base with
      Vm_config.nics = [ { network = "default"; mac = "zz:bad"; nic_model = "virtio" } ];
    };
  let disk target =
    Vm_config.
      { source_path = "/d"; target_dev = target; disk_format = "raw"; readonly = false }
  in
  invalid { base with Vm_config.disks = [ disk "vda"; disk "vda" ] }

let test_fresh_mac_unique_and_valid () =
  let macs = List.init 50 (fun _ -> Vm_config.fresh_mac ()) in
  Alcotest.(check int) "distinct" 50 (List.length (List.sort_uniq compare macs));
  List.iter
    (fun mac ->
      Alcotest.(check int) "six groups" 6 (List.length (String.split_on_char ':' mac)))
    macs

let test_os_kind_names () =
  Alcotest.(check bool) "hvm" true (Vm_config.os_kind_of_name "hvm" = Ok Vm_config.Hvm);
  Alcotest.(check bool) "linux alias" true
    (Vm_config.os_kind_of_name "linux" = Ok Vm_config.Paravirt);
  match Vm_config.os_kind_of_name "dos" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus os accepted"

(* --- Vm_state ----------------------------------------------------------- *)

let all_states = Vm_state.[ Running; Blocked; Paused; Shutdown; Shutoff; Crashed ]

let all_events =
  Vm_state.
    [
      Ev_start; Ev_suspend; Ev_resume; Ev_shutdown_request; Ev_shutdown_complete;
      Ev_destroy; Ev_crash; Ev_migrate_out;
    ]

let test_state_machine_totality () =
  List.iter
    (fun s ->
      List.iter
        (fun e ->
          match Vm_state.transition s e with
          | Ok _ -> ()
          | Error msg ->
            Alcotest.(check bool) "message non-empty" true (String.length msg > 0))
        all_events)
    all_states

let test_core_lifecycle_paths () =
  let step state event =
    match Vm_state.transition state event with
    | Ok next -> next
    | Error msg -> Alcotest.failf "unexpected rejection: %s" msg
  in
  let s = Vm_state.Shutoff in
  let s = step s Vm_state.Ev_start in
  Alcotest.(check bool) "running" true (s = Vm_state.Running);
  let s = step s Vm_state.Ev_suspend in
  let s = step s Vm_state.Ev_resume in
  let s = step s Vm_state.Ev_shutdown_request in
  Alcotest.(check bool) "in shutdown" true (s = Vm_state.Shutdown);
  let s = step s Vm_state.Ev_shutdown_complete in
  Alcotest.(check bool) "shut off" true (s = Vm_state.Shutoff)

let test_invalid_transitions () =
  let invalid s e =
    match Vm_state.transition s e with
    | Error _ -> ()
    | Ok s' ->
      Alcotest.failf "%s + %s accepted -> %s" (Vm_state.state_name s)
        (Vm_state.event_name e) (Vm_state.state_name s')
  in
  invalid Vm_state.Running Vm_state.Ev_start;
  invalid Vm_state.Shutoff Vm_state.Ev_suspend;
  invalid Vm_state.Shutoff Vm_state.Ev_resume;
  invalid Vm_state.Running Vm_state.Ev_resume;
  invalid Vm_state.Shutoff Vm_state.Ev_destroy;
  invalid Vm_state.Paused Vm_state.Ev_shutdown_request;
  invalid Vm_state.Crashed Vm_state.Ev_crash

let test_crash_recovery () =
  Alcotest.(check bool) "crash from running" true
    (Vm_state.transition Vm_state.Running Vm_state.Ev_crash = Ok Vm_state.Crashed);
  Alcotest.(check bool) "restart after crash" true
    (Vm_state.transition Vm_state.Crashed Vm_state.Ev_start = Ok Vm_state.Running);
  Alcotest.(check bool) "destroy after crash" true
    (Vm_state.transition Vm_state.Crashed Vm_state.Ev_destroy = Ok Vm_state.Shutoff)

let test_state_names_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Vm_state.state_name s ^ " roundtrips")
        true
        (Vm_state.state_of_name (Vm_state.state_name s) = Ok s))
    all_states

let prop_active_iff_not_shutoff =
  qcheck_case ~count:50 "is_active matches Shutoff"
    QCheck.(int_bound (List.length all_states - 1))
    (fun i ->
      let s = List.nth all_states i in
      Vm_state.is_active s = (s <> Vm_state.Shutoff))

(* --- Guest_image -------------------------------------------------------- *)

let test_image_geometry () =
  let img = Guest_image.create ~memory_kib:1024 in
  Alcotest.(check int) "memory recorded" 1024 (Guest_image.memory_kib img);
  Alcotest.(check int) "pages" (1024 / Guest_image.bytes_per_page)
    (Guest_image.page_count img);
  Alcotest.(check int) "starts clean" 0 (Guest_image.dirty_count img)

let test_write_and_transfer () =
  let img = Guest_image.create ~memory_kib:64 in
  Guest_image.write_page img 3;
  Guest_image.write_page img 7;
  Alcotest.(check (list int)) "dirty list" [ 3; 7 ] (Guest_image.dirty_pages img);
  let data = Guest_image.transfer_page img 3 in
  Alcotest.(check int) "page size" Guest_image.bytes_per_page (String.length data);
  Alcotest.(check (list int)) "3 cleaned" [ 7 ] (Guest_image.dirty_pages img)

let test_install_page () =
  let src = Guest_image.create ~memory_kib:64 in
  let dst = Guest_image.create ~memory_kib:64 in
  Guest_image.write_page src 5;
  Guest_image.install_page dst 5 (Guest_image.read_page src 5);
  Alcotest.(check string) "byte-identical page" (Guest_image.read_page src 5)
    (Guest_image.read_page dst 5);
  match Guest_image.install_page dst 5 "xx" with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "short page accepted"

let test_bounds_checked () =
  let img = Guest_image.create ~memory_kib:64 in
  (match Guest_image.write_page img (-1) with
   | exception Invalid_argument _ -> ()
   | () -> Alcotest.fail "negative index accepted");
  match Guest_image.write_page img (Guest_image.page_count img) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "out-of-range index accepted"

let test_dirty_randomly_deterministic () =
  let a = Guest_image.create ~memory_kib:4096 in
  let b = Guest_image.create ~memory_kib:4096 in
  Guest_image.dirty_randomly a ~rate:0.25 ~seed:11;
  Guest_image.dirty_randomly b ~rate:0.25 ~seed:11;
  Alcotest.(check (list int)) "same seed, same pages" (Guest_image.dirty_pages a)
    (Guest_image.dirty_pages b);
  let expected = int_of_float (0.25 *. float_of_int (Guest_image.page_count a)) in
  Alcotest.(check int) "target count reached" expected (Guest_image.dirty_count a)

let test_checksum_tracks_content () =
  let a = Guest_image.create ~memory_kib:64 in
  let b = Guest_image.create ~memory_kib:64 in
  Alcotest.(check bool) "fresh images equal" true (Guest_image.equal_contents a b);
  Guest_image.write_page a 0;
  Alcotest.(check bool) "differ after write" false (Guest_image.equal_contents a b);
  Guest_image.install_page b 0 (Guest_image.read_page a 0);
  Alcotest.(check bool) "checksums equal after copy" true
    (Guest_image.checksum a = Guest_image.checksum b)

(* An image's memory is allocated on its first write, install or
   restore.  Over random operation sequences it must answer every query
   exactly as the eager image it replaced, a copy of which is the model
   here. *)
module Eager_image = struct
  type t = { pages : Bytes.t; dirty : Bytes.t; mutable generation : int }

  let bpp = Guest_image.bytes_per_page

  let create ~memory_kib =
    let n_pages = (memory_kib + bpp - 1) / bpp in
    { pages = Bytes.make (n_pages * bpp) '\000'; dirty = Bytes.make n_pages '\000'; generation = 0 }

  let write_page img i =
    img.generation <- img.generation + 1;
    for off = 0 to bpp - 1 do
      Bytes.set img.pages ((i * bpp) + off) (Char.chr ((i + off + img.generation) land 0xff))
    done;
    Bytes.set img.dirty i '\001'

  let dirty_pages img =
    List.filter (fun i -> Bytes.get img.dirty i = '\001') (List.init (Bytes.length img.dirty) Fun.id)

  let dirty_randomly img ~rate ~seed =
    let n = Bytes.length img.dirty in
    let target = int_of_float (Float.max 0.0 (Float.min 1.0 rate) *. float_of_int n) in
    let state = ref (if seed = 0 then 0x2545F491 else seed) in
    let next () =
      let s = !state in
      let s = s lxor (s lsl 13) land 0xffffffff in
      let s = s lxor (s lsr 17) in
      let s = s lxor (s lsl 5) land 0xffffffff in
      state := s;
      s
    in
    let dirtied = ref 0 and attempts = ref 0 in
    while !dirtied < target && !attempts < 20 * (target + 1) do
      incr attempts;
      let i = next () mod n in
      if Bytes.get img.dirty i = '\000' then begin
        write_page img i;
        incr dirtied
      end
    done

  let read_page img i = Bytes.sub_string img.pages (i * bpp) bpp

  let transfer_page img i =
    let data = read_page img i in
    Bytes.set img.dirty i '\000';
    data

  let install_page img i data =
    Bytes.blit_string data 0 img.pages (i * bpp) bpp;
    Bytes.set img.dirty i '\000'

  let restore_from img data =
    Bytes.blit_string data 0 img.pages 0 (String.length data);
    Bytes.fill img.dirty 0 (Bytes.length img.dirty) '\000'

  let checksum img =
    let h = ref 0xcbf29ce484222325L in
    Bytes.iter
      (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
      img.pages;
    !h
end

type image_op =
  | Img_write of int
  | Img_transfer of int
  | Img_install of int * string
  | Img_restore of int (* 0: all zeros, otherwise a seeded pattern *)
  | Img_dirty_randomly of float * int

let show_image_op = function
  | Img_write i -> Printf.sprintf "write %d" i
  | Img_transfer i -> Printf.sprintf "transfer %d" i
  | Img_install (i, d) -> Printf.sprintf "install %d %S" i d
  | Img_restore k -> Printf.sprintf "restore %d" k
  | Img_dirty_randomly (r, seed) -> Printf.sprintf "dirty_randomly %.2f %d" r seed

let image_case =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (4, map (fun i -> Img_write i) nat);
        (2, map (fun i -> Img_transfer i) nat);
        ( 2,
          map2
            (fun i zero -> Img_install (i, if zero then String.make 4 '\000' else "ab<\255"))
            nat bool );
        (1, map (fun k -> Img_restore (k mod 3)) nat);
        (1, map2 (fun r seed -> Img_dirty_randomly (r, seed)) (float_bound_inclusive 0.6) nat);
      ]
  in
  QCheck.make
    ~print:(fun (kib, ops) ->
      Printf.sprintf "memory_kib=%d: %s" kib (String.concat "; " (List.map show_image_op ops)))
    (pair (oneofl [ 1; 4; 17; 64 ]) (list_size (int_bound 12) op))

let prop_lazy_image_matches_eager =
  qcheck_case ~count:500 "a lazy image answers as the eager one" image_case
    (fun (memory_kib, ops) ->
      let img = Guest_image.create ~memory_kib in
      let model = Eager_image.create ~memory_kib in
      let fresh = Guest_image.create ~memory_kib in
      let zeros = Guest_image.create ~memory_kib in
      let n = Guest_image.page_count img in
      let len = n * Guest_image.bytes_per_page in
      Guest_image.restore_from zeros (String.make len '\000');
      let check what =
        let fail fmt = QCheck.Test.fail_reportf ("after %s: " ^^ fmt) what in
        let all_zero = Bytes.for_all (fun c -> c = '\000') model.Eager_image.pages in
        if Guest_image.snapshot img <> Bytes.to_string model.Eager_image.pages then
          fail "snapshot differs";
        for i = 0 to n - 1 do
          if Guest_image.read_page img i <> Eager_image.read_page model i then
            fail "page %d differs" i
        done;
        if Guest_image.checksum img <> Eager_image.checksum model then fail "checksum differs";
        if Guest_image.dirty_pages img <> Eager_image.dirty_pages model then
          fail "dirty pages differ";
        if Guest_image.dirty_count img <> List.length (Eager_image.dirty_pages model) then
          fail "dirty count differs";
        List.iter
          (fun (name, other) ->
            if Guest_image.equal_contents img other <> all_zero
               || Guest_image.equal_contents other img <> all_zero
            then fail "equal_contents with %s image is not %b" name all_zero)
          [ ("an untouched", fresh); ("a restored all-zero", zeros) ]
      in
      check "create";
      List.iter
        (fun op ->
          (match op with
           | Img_write i ->
             Guest_image.write_page img (i mod n);
             Eager_image.write_page model (i mod n)
           | Img_transfer i ->
             let got = Guest_image.transfer_page img (i mod n) in
             if got <> Eager_image.transfer_page model (i mod n) then
               QCheck.Test.fail_reportf "transfer %d returned other bytes" i
           | Img_install (i, data) ->
             Guest_image.install_page img (i mod n) data;
             Eager_image.install_page model (i mod n) data
           | Img_restore k ->
             let data = String.init len (fun j -> Char.chr (j * k land 0xff)) in
             Guest_image.restore_from img data;
             Eager_image.restore_from model data
           | Img_dirty_randomly (rate, seed) ->
             Guest_image.dirty_randomly img ~rate ~seed;
             Eager_image.dirty_randomly model ~rate ~seed);
          check (show_image_op op))
        ops;
      true)

(* --- Domxml ------------------------------------------------------------- *)

let test_domxml_roundtrip () =
  let cfg =
    Vm_config.make ~memory_kib:(128 * 1024) ~vcpus:4 ~features:[ "acpi"; "apic" ]
      "xmlvm"
  in
  let xml = Vmm.Domxml.to_xml ~virt_type:"kvm" cfg in
  let cfg', virt_type = sok (Vmm.Domxml.of_xml xml) in
  Alcotest.(check string) "virt type" "kvm" virt_type;
  Alcotest.(check bool) "config preserved" true (Vm_config.equal cfg cfg')

let test_domxml_memory_units () =
  let xml unit_attr value =
    Printf.sprintf
      "<domain type=\"test\"><name>m</name><memory unit=\"%s\">%d</memory><vcpu>1</vcpu><os><type>hvm</type></os></domain>"
      unit_attr value
  in
  let mem u v =
    let cfg, _ = sok (Vmm.Domxml.of_xml (xml u v)) in
    cfg.Vm_config.memory_kib
  in
  Alcotest.(check int) "KiB" 2048 (mem "KiB" 2048);
  Alcotest.(check int) "MiB" (512 * 1024) (mem "MiB" 512);
  Alcotest.(check int) "GiB" (1024 * 1024) (mem "GiB" 1)

let test_domxml_defaults () =
  let xml =
    "<domain type=\"test\"><name>min</name><memory>1024</memory><vcpu>1</vcpu><os><type>hvm</type></os></domain>"
  in
  let cfg, _ = sok (Vmm.Domxml.of_xml xml) in
  Alcotest.(check (list string)) "no disks" []
    (List.map (fun (d : Vm_config.disk) -> d.Vm_config.target_dev) cfg.Vm_config.disks);
  Alcotest.(check int) "memory" 1024 cfg.Vm_config.memory_kib

let bad_domains =
  [
    ("wrong root", "<vm><name>x</name></vm>");
    ( "no name",
      "<domain type=\"t\"><memory>1</memory><vcpu>1</vcpu><os><type>hvm</type></os></domain>" );
    ( "no memory",
      "<domain type=\"t\"><name>x</name><vcpu>1</vcpu><os><type>hvm</type></os></domain>" );
    ( "bad memory",
      "<domain type=\"t\"><name>x</name><memory>lots</memory><vcpu>1</vcpu><os><type>hvm</type></os></domain>" );
    ( "bad unit",
      "<domain type=\"t\"><name>x</name><memory unit=\"TB\">1</memory><vcpu>1</vcpu><os><type>hvm</type></os></domain>" );
    ( "zero vcpu",
      "<domain type=\"t\"><name>x</name><memory>1024</memory><vcpu>0</vcpu><os><type>hvm</type></os></domain>" );
    ( "bad os",
      "<domain type=\"t\"><name>x</name><memory>1024</memory><vcpu>1</vcpu><os><type>beos</type></os></domain>" );
    ( "bad uuid",
      "<domain type=\"t\"><name>x</name><uuid>nope</uuid><memory>1024</memory><vcpu>1</vcpu><os><type>hvm</type></os></domain>" );
    ( "no type attr",
      "<domain><name>x</name><memory>1024</memory><vcpu>1</vcpu><os><type>hvm</type></os></domain>" );
    ("not xml", "this is not xml");
  ]

let test_domxml_rejections () =
  List.iter
    (fun (label, xml) ->
      match Vmm.Domxml.of_xml xml with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted: %s" label)
    bad_domains

let gen_config =
  QCheck.Gen.(
    let* mem_mib = int_range 1 512 in
    let* vcpus = int_range 1 16 in
    let* n_disks = int_bound 3 in
    let* n_nics = int_bound 2 in
    let disks =
      List.init n_disks (fun i ->
          Vm_config.
            {
              source_path = Printf.sprintf "/imgs/d%d.img" i;
              target_dev = Printf.sprintf "vd%c" (Char.chr (Char.code 'a' + i));
              disk_format = (if i mod 2 = 0 then "qcow2" else "raw");
              readonly = i = 2;
            })
    in
    let nics =
      List.init n_nics (fun _ ->
          Vm_config.
            { network = "default"; mac = Vm_config.fresh_mac (); nic_model = "virtio" })
    in
    return
      (Vm_config.make ~memory_kib:(mem_mib * 1024) ~vcpus ~disks ~nics
         (fresh_name "gen")))

let prop_domxml_roundtrip =
  qcheck_case ~count:100 "domain XML roundtrip over random configs"
    (QCheck.make gen_config) (fun cfg ->
      match Vmm.Domxml.of_xml (Vmm.Domxml.to_xml ~virt_type:"kvm" cfg) with
      | Ok (cfg', "kvm") -> Vm_config.equal cfg cfg'
      | Ok _ | Error _ -> false)

let () =
  Alcotest.run "vmm"
    [
      ( "uuid",
        [
          quick "canonical format" test_uuid_format;
          quick "uniqueness" test_uuid_uniqueness;
          quick "parsing" test_uuid_parse;
          prop_uuid_roundtrip;
          prop_uuid_rendering;
          prop_uuid_parse_total;
          quick "36 dashes over a daemon" test_uuid_all_dashes_over_daemon;
          quick "36 dashes in a local define" test_uuid_all_dashes_local_define;
        ] );
      ( "vm_config",
        [
          quick "defaults" test_config_defaults;
          quick "validation" test_config_validation;
          quick "fresh macs" test_fresh_mac_unique_and_valid;
          quick "os kinds" test_os_kind_names;
        ] );
      ( "vm_state",
        [
          quick "totality" test_state_machine_totality;
          quick "core lifecycle paths" test_core_lifecycle_paths;
          quick "invalid transitions rejected" test_invalid_transitions;
          quick "crash recovery" test_crash_recovery;
          quick "state names roundtrip" test_state_names_roundtrip;
          prop_active_iff_not_shutoff;
        ] );
      ( "guest_image",
        [
          quick "geometry" test_image_geometry;
          quick "write and transfer" test_write_and_transfer;
          quick "install page" test_install_page;
          quick "bounds checked" test_bounds_checked;
          quick "deterministic dirtying" test_dirty_randomly_deterministic;
          quick "checksums track content" test_checksum_tracks_content;
          prop_lazy_image_matches_eager;
        ] );
      ( "domxml",
        [
          quick "roundtrip" test_domxml_roundtrip;
          quick "memory units" test_domxml_memory_units;
          quick "defaults" test_domxml_defaults;
          quick "rejections" test_domxml_rejections;
          prop_domxml_roundtrip;
        ] );
    ]
