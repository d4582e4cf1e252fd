(* XDR codec: unit cases for the wire format's fixed points, property
   tests for roundtrips, and malformation rejection. *)

open Testutil

let hex s =
  String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c))
                      (List.init (String.length s) (String.get s)))

let test_int_wire_format () =
  Alcotest.(check string) "1 encodes big-endian" "00000001"
    (hex (Xdr.encode Xdr.int 1));
  Alcotest.(check string) "-1 encodes as ffffffff" "ffffffff"
    (hex (Xdr.encode Xdr.int (-1)));
  Alcotest.(check string) "min int32" "80000000"
    (hex (Xdr.encode Xdr.int (-0x8000_0000)))

let test_int_range_check () =
  Alcotest.check_raises "too large" (Xdr.Error "enc_int: 2147483648 out of int32 range")
    (fun () -> ignore (Xdr.encode Xdr.int 0x8000_0000));
  Alcotest.check_raises "uint negative"
    (Xdr.Error "enc_uint: -1 out of uint32 range") (fun () ->
      ignore (Xdr.encode Xdr.uint (-1)))

let test_string_padding () =
  (* length word + bytes + zero padding to 4 *)
  Alcotest.(check string) "abc pads to one zero" "00000003616263 00"
    (let s = hex (Xdr.encode Xdr.string "abc") in
     String.sub s 0 14 ^ " " ^ String.sub s 14 2);
  Alcotest.(check int) "abcd needs no padding" 8
    (String.length (Xdr.encode Xdr.string "abcd"))

let test_nonzero_padding_rejected () =
  (* "abc" with a corrupted pad byte *)
  let wire = Bytes.of_string (Xdr.encode Xdr.string "abc") in
  Bytes.set wire 7 'X';
  match Xdr.decode Xdr.string (Bytes.to_string wire) with
  | exception Xdr.Error _ -> ()
  | _ -> Alcotest.fail "corrupted padding accepted"

let test_bool_strictness () =
  Alcotest.(check bool) "true roundtrip" true
    (Xdr.decode Xdr.bool (Xdr.encode Xdr.bool true));
  match Xdr.decode Xdr.bool (Xdr.encode Xdr.uint 2) with
  | exception Xdr.Error _ -> ()
  | _ -> Alcotest.fail "bool 2 accepted"

let test_truncation_rejected () =
  let wire = Xdr.encode Xdr.string "hello world" in
  for cut = 0 to String.length wire - 1 do
    match Xdr.decode Xdr.string (String.sub wire 0 cut) with
    | exception Xdr.Error _ -> ()
    | _ -> Alcotest.failf "truncation at %d accepted" cut
  done

let test_trailing_garbage_rejected () =
  let wire = Xdr.encode Xdr.uint 7 ^ "\000" in
  match Xdr.decode Xdr.uint wire with
  | exception Xdr.Error _ -> ()
  | _ -> Alcotest.fail "trailing bytes accepted"

let test_array_count_bound () =
  (* A count far beyond the payload must be rejected up front. *)
  let wire = Xdr.encode Xdr.uint 1_000_000 in
  match Xdr.decode (Xdr.array Xdr.uint) wire with
  | exception Xdr.Error _ -> ()
  | _ -> Alcotest.fail "oversized array count accepted"

let test_fixed_opaque () =
  let wire = Xdr.encode (Xdr.fixed_opaque 6) "abcdef" in
  Alcotest.(check int) "6 bytes pad to 8" 8 (String.length wire);
  Alcotest.(check string) "roundtrip" "abcdef"
    (Xdr.decode (Xdr.fixed_opaque 6) wire);
  match Xdr.encode (Xdr.fixed_opaque 4) "abcdef" with
  | exception Xdr.Error _ -> ()
  | _ -> Alcotest.fail "length mismatch accepted"

let test_option () =
  let c = Xdr.option Xdr.string in
  Alcotest.(check string) "some" "0000000100000001 78000000"
    (let s = hex (Xdr.encode c (Some "x")) in
     String.sub s 0 16 ^ " " ^ String.sub s 16 8);
  Alcotest.(check (option string)) "some" (Some "x") (round_trip c (Some "x"));
  Alcotest.(check (option string)) "none" None (round_trip c None)

let test_hyper_extremes () =
  List.iter
    (fun v ->
      Alcotest.(check int64) "hyper roundtrip" v
        (Xdr.decode Xdr.hyper (Xdr.encode Xdr.hyper v)))
    [ 0L; 1L; -1L; Int64.max_int; Int64.min_int; 0xdeadbeefL ]

(* --- explicit-position encoder machinery --------------------------------- *)

let test_encoder_continues_after_extraction () =
  let e = Xdr.encoder ~size:8 () in
  Xdr.enc_string e "first payload, long enough to grow the buffer";
  let first = Xdr.to_string e in
  Xdr.enc_uint e 42;
  Alcotest.(check int) "continues after extraction" (String.length first + 4)
    (String.length (Xdr.to_string e));
  Alcotest.(check string) "later words follow the earlier ones"
    (hex first ^ "0000002a") (hex (Xdr.to_string e));
  Alcotest.(check string) "earlier extraction unaffected" "first payload, long enough to grow the buffer"
    (Xdr.decode Xdr.string first)

let test_small_encoder_growth () =
  (* A payload far past the initial capacity: the encoder must grow
     gracefully rather than overrun. *)
  let e = Xdr.encoder ~size:8 () in
  let payload = String.make 100 'x' in
  Xdr.enc_string e payload;
  Alcotest.(check string) "grown encoder still roundtrips" payload
    (Xdr.decode Xdr.string (Xdr.to_string e))

let test_enc_raw_verbatim () =
  let e = Xdr.encoder () in
  Xdr.enc_raw e "\x01\x02";
  Xdr.enc_raw e "";
  Xdr.enc_raw e "\x03";
  Alcotest.(check string) "no length words, no padding" "010203"
    (hex (Xdr.to_string e))

let test_array_single_pass_count () =
  (* The count word is patched after one traversal; verify it is exact
     for sizes around the growth boundaries, including empty. *)
  List.iter
    (fun n ->
      let l = List.init n string_of_int in
      Alcotest.(check int)
        (Printf.sprintf "count word for %d elements" n)
        n
        (List.length (round_trip (Xdr.array Xdr.string) l)))
    [ 0; 1; 2; 63; 64; 65; 1000 ]

let test_nested_array_roundtrip () =
  let v = [ []; [ 1; 2; 3 ]; [ 4 ]; List.init 50 Fun.id ] in
  Alcotest.(check bool) "array of arrays" true
    (round_trip (Xdr.array (Xdr.array Xdr.int)) v = v)

let prop_int_roundtrip =
  qcheck_case "int32 roundtrip" QCheck.(int_range (-0x8000_0000) 0x7fff_ffff)
    (fun v -> Xdr.decode Xdr.int (Xdr.encode Xdr.int v) = v)

let prop_uint_roundtrip =
  qcheck_case "uint32 roundtrip" QCheck.(int_bound 0xffff_ffff)
    (fun v -> Xdr.decode Xdr.uint (Xdr.encode Xdr.uint v) = v)

let prop_hyper_roundtrip =
  qcheck_case "hyper roundtrip" QCheck.int64
    (fun v -> Xdr.decode Xdr.hyper (Xdr.encode Xdr.hyper v) = v)

let prop_string_roundtrip =
  qcheck_case "string roundtrip" QCheck.string
    (fun s -> Xdr.decode Xdr.string (Xdr.encode Xdr.string s) = s)

let prop_encode_string_matches_encoder =
  qcheck_case "encode_string equals the encoder's bytes" QCheck.string
    (fun s ->
      let e = Xdr.encoder () in
      Xdr.enc_string e s;
      Xdr.encode Xdr.string s = Xdr.to_string e)

let prop_double_roundtrip =
  qcheck_case "double roundtrip" QCheck.float
    (fun f ->
      let f' = round_trip (Xdr.codec Xdr.enc_double Xdr.dec_double) f in
      Int64.bits_of_float f = Int64.bits_of_float f')

let prop_string_list_roundtrip =
  qcheck_case "string array roundtrip" QCheck.(small_list string)
    (fun l ->
      round_trip (Xdr.array Xdr.string) l = l)

let prop_mixed_sequence =
  qcheck_case "mixed tuple roundtrip" QCheck.(triple int64 string bool)
    (fun v -> round_trip (Xdr.triple Xdr.hyper Xdr.string Xdr.bool) v = v)

(* Byte-wise reference for the word decoders: eight random bytes, with
   the high bit of each word set in about half the cases. *)
let word_bytes =
  let open QCheck.Gen in
  let word = map2 (fun high s -> (high, s)) bool (string_size ~gen:char (return 4)) in
  let set_high (high, s) =
    let b = Bytes.of_string s in
    let c = Char.code (Bytes.get b 0) in
    Bytes.set b 0 (Char.chr (if high then c lor 0x80 else c land 0x7f));
    Bytes.to_string b
  in
  QCheck.make ~print:hex (map2 (fun a b -> set_high a ^ set_high b) word word)

let byte_wise_u32 s off =
  let b i = Char.code s.[off + i] in
  (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3

let prop_word_decoders_match_reference =
  qcheck_case ~count:1000 "word decoders match a byte-wise reference" word_bytes
    (fun s ->
      let u = byte_wise_u32 s 0 in
      let signed = if u >= 0x8000_0000 then u - 0x1_0000_0000 else u in
      let hyper =
        String.fold_left
          (fun acc c -> Int64.logor (Int64.shift_left acc 8) (Int64.of_int (Char.code c)))
          0L s
      in
      let d = Xdr.decoder s in
      Xdr.dec_uint d = u
      && Xdr.dec_uint d = byte_wise_u32 s 4
      && Xdr.dec_int (Xdr.decoder s) = signed
      && Xdr.dec_hyper (Xdr.decoder s) = hyper)

(* The fleet listing is the bulk read path: its decode cost is per row,
   and most of it is allocation.  The rows themselves (name, uuid, ref,
   info, options, list cell) need under 40 words; 60 leaves room without
   letting a per-field closure or option box back in. *)
let test_listing_decode_allocation () =
  let module Rp = Protocol.Remote_protocol in
  let module Driver = Ovirt.Driver in
  let rows = 250 in
  let record i =
    Driver.
      {
        rec_ref =
          {
            dom_name = Printf.sprintf "dom-%04d" i;
            dom_uuid = Vmm.Uuid.generate ();
            dom_id = (if i mod 2 = 0 then Some i else None);
          };
        rec_info =
          {
            di_state = (if i mod 2 = 0 then Vmm.Vm_state.Running else Vmm.Vm_state.Shutoff);
            di_max_mem_kib = 1 lsl 20;
            di_memory_kib = 1 lsl 19;
            di_vcpus = 2;
            di_cpu_time_ns = Int64.of_int (i * 1_000_000);
          };
        rec_autostart = Some (i mod 3 = 0);
      }
  in
  let listing =
    Driver.
      { fl_records = List.init rows record; fl_shard_errors = []; fl_members = 1 }
  in
  let body = Xdr.encode Rp.fleet_listing listing in
  let before = Gc.minor_words () in
  let decoded = Sys.opaque_identity (Xdr.decode Rp.fleet_listing body) in
  let words = (Gc.minor_words () -. before) /. float_of_int rows in
  Alcotest.(check bool) "decodes back" true (decoded = listing);
  if words > 60. then
    Alcotest.failf "decoding allocates %.1f minor words per row (budget 60)" words

let () =
  Alcotest.run "xdr"
    [
      ( "wire format",
        [
          quick "int big-endian encoding" test_int_wire_format;
          quick "int range checks" test_int_range_check;
          quick "string padding" test_string_padding;
          quick "non-zero padding rejected" test_nonzero_padding_rejected;
          quick "bool strictness" test_bool_strictness;
          quick "fixed opaque" test_fixed_opaque;
          quick "option encoding" test_option;
          quick "hyper extremes" test_hyper_extremes;
        ] );
      ( "malformed input",
        [
          quick "every truncation rejected" test_truncation_rejected;
          quick "trailing garbage rejected" test_trailing_garbage_rejected;
          quick "hostile array count rejected" test_array_count_bound;
        ] );
      ( "encoder machinery",
        [
          quick "continued encoding" test_encoder_continues_after_extraction;
          quick "small encoder growth" test_small_encoder_growth;
          quick "raw append" test_enc_raw_verbatim;
          quick "single-pass array count" test_array_single_pass_count;
          quick "nested arrays" test_nested_array_roundtrip;
        ] );
      ( "allocation",
        [ quick "listing decode per-row budget" test_listing_decode_allocation ] );
      ( "properties",
        [
          prop_int_roundtrip;
          prop_word_decoders_match_reference;
          prop_uint_roundtrip;
          prop_hyper_roundtrip;
          prop_string_roundtrip;
          prop_encode_string_matches_encoder;
          prop_double_roundtrip;
          prop_string_list_roundtrip;
          prop_mixed_sequence;
        ] );
    ]
