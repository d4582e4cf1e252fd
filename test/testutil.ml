(* Shared helpers for the test suites. *)

let ok_or_fail to_string = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (to_string e)

let vok r = ok_or_fail Ovirt.Verror.to_string r
let sok r = ok_or_fail Fun.id r

let expect_verr code = function
  | Ok _ -> Alcotest.failf "expected %s error, got success" (Ovirt.Verror.code_name code)
  | Error e ->
    Alcotest.(check string)
      "error code" (Ovirt.Verror.code_name code)
      (Ovirt.Verror.code_name e.Ovirt.Verror.code)

let expect_error = function
  | Ok _ -> Alcotest.fail "expected an error, got success"
  | Error _ -> ()

(* Unique names: the driver node registries and the simulated network are
   process-global, so every test works in its own namespace. *)
let name_counter = ref 0

let fresh_name prefix =
  incr name_counter;
  Printf.sprintf "%s-%d" prefix !name_counter

let quick name f = Alcotest.test_case name `Quick f

let qcheck_case ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* A connection to a fresh, isolated test-driver node. *)
let fresh_test_conn () =
  vok (Ovirt.Connect.open_uri ("test://" ^ fresh_name "node" ^ "/"))

let define_and_start conn ~virt_type ~name ?(memory_kib = 8 * 1024) () =
  let cfg = Vmm.Vm_config.make ~memory_kib name in
  let dom = vok (Ovirt.Domain.define_xml conn (Vmm.Domxml.to_xml ~virt_type cfg)) in
  vok (Ovirt.Domain.create dom);
  dom

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* Wait until [cond ()] or the timeout elapses; threads in the daemon make
   a few assertions timing-dependent. *)
let eventually ?(timeout_s = 2.0) cond =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec loop () =
    if cond () then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Thread.delay 0.005;
      loop ()
    end
  in
  loop ()

(* An integer field of /proc/self/status ("Threads"), if there is one. *)
let proc_status_int key =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> None
  | status ->
    List.find_map
      (fun line ->
        match String.index_opt line ':' with
        | Some i when String.sub line 0 i = key ->
          int_of_string_opt
            (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
        | _ -> None)
      (String.split_on_char '\n' status)

(* A blocking test server on the simulated network: each accepted
   connection gets a thread of its own, which runs the server half of the
   handshake and then [handler]. *)
let listen_threaded ?faults addr handler =
  Ovnet.Netsim.listen_direct ?faults addr (fun ~kind ep ->
      ignore
        (Thread.create
           (fun () ->
             match Ovnet.Transport.accept kind ep with
             | conn -> handler conn
             | exception _ -> Ovnet.Chan.close_endpoint ep)
           ()))

(* One value through a codec and back. *)
let round_trip codec v = Xdr.decode codec (Xdr.encode codec v)
