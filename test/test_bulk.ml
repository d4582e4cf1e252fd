(* Bulk/batched RPC and event-invalidated client caching: v1.3 protocol
   numbering, batch framing, the cache fill protocol (including the
   event-races-reply window), remote/direct parity of the bulk listing,
   refusal of daemons pinned below protocol minor 3, and the
   path-indexed volume lookup. *)

open Testutil
module Verror = Ovirt.Verror
module Connect = Ovirt.Connect
module Domain = Ovirt.Domain
module Driver = Ovirt.Driver
module Daemon = Ovirt.Daemon
module Daemon_config = Ovirt.Daemon_config
module Vm_state = Vmm.Vm_state
module Transport = Ovnet.Transport
module Rp = Protocol.Remote_protocol
module Cache = Drv_remote.Cache

let () = Ovirt.initialize ()

let quiet_config =
  {
    Daemon_config.default with
    Daemon_config.log_outputs = [ { Vlog.min_priority = Vlog.Debug; sink = Vlog.Null } ];
  }

let with_daemon ?(config = quiet_config) f =
  let name = fresh_name "bulkd" in
  let daemon = Daemon.start ~name ~config () in
  Fun.protect ~finally:(fun () -> Daemon.stop daemon) (fun () -> f name daemon)

(* A daemon answering at protocol minor 2: behaves exactly like a build
   that predates the bulk/batch procedures. *)
let v12_config = { quiet_config with Daemon_config.proto_minor = 2 }

let remote_uri ?(transport = "unix") ?(params = "") ~daemon node =
  Printf.sprintf "test+%s://%s/?daemon=%s%s" transport node daemon params

let raw_client ?(kind = Transport.Unix_sock) daemon =
  match
    Rpc_client.connect ~address:(daemon ^ "-sock") ~kind ~program:Rp.program
      ~version:Rp.version ()
  with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect: %s" (Verror.to_string e)

let raw_call client proc body =
  Rpc_client.call client ~procedure:(Rp.proc_to_int proc) ~body ()

let calls_of conn =
  match Drv_remote.conn_stats (vok (Connect.ops conn)) with
  | Some s -> s.Drv_remote.st_calls
  | None -> Alcotest.fail "not a remote connection"

(* --- protocol surface ----------------------------------------------------- *)

let test_v13_numbers_stable () =
  Alcotest.(check int) "build minor" 8 Rp.minor;
  Alcotest.(check int) "proto_minor is 45" 45 (Rp.proc_to_int Rp.Proc_proto_minor);
  Alcotest.(check int) "dom_list_all is 46" 46 (Rp.proc_to_int Rp.Proc_dom_list_all);
  Alcotest.(check int) "call_batch is 47" 47 (Rp.proc_to_int Rp.Proc_call_batch);
  Alcotest.(check int) "vol_lookup is 48" 48 (Rp.proc_to_int Rp.Proc_vol_lookup);
  List.iter
    (fun p -> Alcotest.(check int) "new procs need minor 3" 3 (Rp.proc_min_minor p))
    [ Rp.Proc_proto_minor; Rp.Proc_dom_list_all; Rp.Proc_call_batch; Rp.Proc_vol_lookup ];
  Alcotest.(check int) "save needs minor 1" 1 (Rp.proc_min_minor Rp.Proc_dom_save);
  Alcotest.(check int) "autostart needs minor 2" 2
    (Rp.proc_min_minor Rp.Proc_dom_get_autostart);
  Alcotest.(check int) "open is primordial" 0 (Rp.proc_min_minor Rp.Proc_open);
  (* A batch frame must never be blindly re-issued; the listing is a pure
     read. *)
  Alcotest.(check bool) "batch not idempotent" false
    (Rp.is_idempotent Rp.Proc_call_batch);
  Alcotest.(check bool) "bulk listing idempotent" true
    (Rp.is_idempotent Rp.Proc_dom_list_all)

let test_domain_record_roundtrip () =
  let mk name autostart state =
    Driver.
      {
        rec_ref =
          { dom_name = name; dom_uuid = Vmm.Uuid.generate (); dom_id = Some 3 };
        rec_info =
          {
            di_state = state;
            di_max_mem_kib = 512 * 1024;
            di_memory_kib = 256 * 1024;
            di_vcpus = 2;
            di_cpu_time_ns = 1234567L;
          };
        rec_autostart = autostart;
      }
  in
  let records =
    [
      mk "a" (Some true) Vm_state.Running;
      mk "b" (Some false) Vm_state.Shutoff;
      mk "c" None Vm_state.Paused;
    ]
  in
  Alcotest.(check bool) "roundtrip" true
    (Rp.dec_domain_record_list (Rp.enc_domain_record_list records) = records);
  Alcotest.(check bool) "empty" true
    (Rp.dec_domain_record_list (Rp.enc_domain_record_list []) = [])

let test_batch_codec_roundtrip () =
  let calls = [ (38, "payload"); (12, ""); (46, String.make 300 'x') ] in
  Alcotest.(check bool) "calls" true (Rp.dec_batch_call (Rp.enc_batch_call calls) = calls);
  let replies =
    [ (true, "ok-body"); (false, Rp.enc_error (Verror.make Verror.No_domain "gone")) ]
  in
  Alcotest.(check bool) "replies" true
    (Rp.dec_batch_reply (Rp.enc_batch_reply replies) = replies);
  Alcotest.(check int) "int body" 3 (Rp.dec_int_body (Rp.enc_int_body 3))

(* --- cache fill protocol -------------------------------------------------- *)

let test_cache_hit_miss_invalidate () =
  let c = Cache.create () in
  Alcotest.(check bool) "cold miss" true (Cache.find c "vm" ~now:0. = None);
  let fill = Cache.begin_fill c in
  Alcotest.(check bool) "install accepted" true (Cache.install c fill "vm" 42 ~now:0.);
  Alcotest.(check bool) "hit" true (Cache.find c "vm" ~now:0. = Some 42);
  Cache.invalidate c "vm";
  Alcotest.(check bool) "invalidated" true (Cache.find c "vm" ~now:0. = None);
  Alcotest.(check int) "one hit counted" 1 (Cache.hits c)

let test_cache_event_before_reply_drops_fill () =
  let c = Cache.create () in
  (* The race this cache exists to win: the read was issued, the event
     arrived, then the (stale) reply came back.  Installing it would keep
     the stale value forever. *)
  let fill = Cache.begin_fill c in
  Cache.invalidate c "vm";
  Alcotest.(check bool) "stale reply refused" false
    (Cache.install c fill "vm" 1 ~now:0.);
  Alcotest.(check bool) "nothing cached" true (Cache.find c "vm" ~now:0. = None);
  (* The same token still installs rows the event did not touch: a bulk
     reply degrades per name, not wholesale. *)
  Alcotest.(check bool) "unraced row installs" true
    (Cache.install c fill "other" 2 ~now:0.);
  (* A fill begun after the invalidation is clean. *)
  let fill2 = Cache.begin_fill c in
  Alcotest.(check bool) "fresh fill installs" true (Cache.install c fill2 "vm" 3 ~now:0.);
  Alcotest.(check bool) "fresh value served" true (Cache.find c "vm" ~now:0. = Some 3)

let test_cache_clear_voids_epoch () =
  let c = Cache.create () in
  let fill = Cache.begin_fill c in
  Alcotest.(check bool) "installs before clear" true (Cache.install c fill "a" 1 ~now:0.);
  let e0 = Cache.epoch c in
  Cache.clear c;
  Alcotest.(check int) "epoch bumped" (e0 + 1) (Cache.epoch c);
  Alcotest.(check int) "emptied" 0 (Cache.size c);
  Alcotest.(check bool) "pre-clear fill void" false (Cache.install c fill "b" 2 ~now:0.)

let test_cache_ttl () =
  let c = Cache.create ~ttl:1.0 () in
  let fill = Cache.begin_fill c in
  ignore (Cache.install c fill "vm" 9 ~now:100.);
  Alcotest.(check bool) "fresh within ttl" true (Cache.find c "vm" ~now:100.9 = Some 9);
  Alcotest.(check bool) "expired after ttl" true (Cache.find c "vm" ~now:101.1 = None)

let test_cache_uuid_index () =
  let c = Cache.create () in
  let fill = Cache.begin_fill c in
  ignore (Cache.install c fill "vm" ~uuid:"u-1" 7 ~now:0.);
  Alcotest.(check bool) "by uuid" true (Cache.find_by_uuid c "u-1" ~now:0. = Some 7);
  Cache.invalidate c "vm";
  Alcotest.(check bool) "uuid dropped with name" true
    (Cache.find_by_uuid c "u-1" ~now:0. = None)

(* Bulk installs keep the fill protocol's answers: a repeated row keeps
   its entry, but an invalidation still refuses it. *)
let test_cache_equal_value_refused_after_invalidate () =
  let c = Cache.create () in
  let fill = Cache.begin_fill c in
  Alcotest.(check bool) "first install" true (Cache.install c fill "vm" 1 ~now:0.);
  Cache.invalidate c "vm";
  Alcotest.(check bool) "equal value refused" false (Cache.install c fill "vm" 1 ~now:0.);
  Alcotest.(check (list bool)) "refused in bulk too" [ false; true ]
    (Cache.install_bulk c fill ~now:0. (fun add -> [ add "vm" 1; add "other" 1 ]));
  Alcotest.(check (option int)) "nothing cached" None (Cache.find c "vm" ~now:0.)

let test_cache_equal_install_refreshes_ttl () =
  let c = Cache.create ~ttl:1.0 () in
  let fill = Cache.begin_fill c in
  ignore (Cache.install c fill "vm" 9 ~now:100.);
  Alcotest.(check bool) "equal install accepted" true
    (Cache.install c fill "vm" 9 ~now:100.8);
  Alcotest.(check (option int)) "aged from the refresh" (Some 9)
    (Cache.find c "vm" ~now:101.5);
  Alcotest.(check (option int)) "then expires" None (Cache.find c "vm" ~now:101.9)

let test_cache_unchanged_listing_keeps_entries () =
  let c = Cache.create () in
  (* Fresh strings each time: equal rows, never the same blocks. *)
  let listing () =
    List.map (fun i -> (Printf.sprintf "vm%d" i, Printf.sprintf "value %d" i)) [ 1; 2; 3 ]
  in
  let install rows =
    Cache.install_bulk c (Cache.begin_fill c) ~now:0. (fun add ->
        List.iter (fun (name, v) -> ignore (add name ~uuid:("u-" ^ name) v)) rows)
  in
  let first = listing () in
  install first;
  install (listing ());
  List.iter
    (fun (name, v) ->
      match Cache.find c name ~now:0. with
      | Some v' -> Alcotest.(check bool) (name ^ " keeps its first value") true (v' == v)
      | None -> Alcotest.failf "%s missing" name)
    first;
  Alcotest.(check (option string)) "uuid index intact" (Some "value 2")
    (Cache.find_by_uuid c "u-vm2" ~now:0.)

(* The cache as it was before bulk installs existed: one lock section
   and a fresh entry per installed row.  The model property below checks
   the current cache answers every schedule exactly as this one did. *)
module Reference = struct
  type 'a entry = { e_value : 'a; e_stamp : float; e_uuid : string option }

  type 'a t = {
    mutex : Mutex.t;
    ttl : float option;  (* None: event-maintained, entries never expire *)
    entries : (string, 'a entry) Hashtbl.t;  (* keyed by domain name *)
    by_uuid : (string, string) Hashtbl.t;  (* uuid -> name *)
    inval : (string, int) Hashtbl.t;  (* name -> seq of last invalidation *)
    mutable seq : int;
    mutable epoch : int;
    mutable hits : int;
    mutable misses : int;
  }

  type fill = { f_epoch : int; f_seq : int }

  let create ?ttl () =
    {
      mutex = Mutex.create ();
      ttl;
      entries = Hashtbl.create 64;
      by_uuid = Hashtbl.create 64;
      inval = Hashtbl.create 64;
      seq = 0;
      epoch = 0;
      hits = 0;
      misses = 0;
    }

  let locked c f =
    Mutex.lock c.mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock c.mutex) f

  let begin_fill c = locked c (fun () -> { f_epoch = c.epoch; f_seq = c.seq })

  (* A UUID a rename has pointed at another name stays indexed. *)
  let unindex c name u =
    if Hashtbl.find_opt c.by_uuid u = Some name then Hashtbl.remove c.by_uuid u

  let install c fill name ?uuid value ~now =
    locked c (fun () ->
        let invalidated_since =
          match Hashtbl.find_opt c.inval name with
          | Some s -> s > fill.f_seq
          | None -> false
        in
        if fill.f_epoch <> c.epoch || invalidated_since then false
        else begin
          (match Hashtbl.find_opt c.entries name with
          | Some { e_uuid = Some u; _ } -> unindex c name u
          | _ -> ());
          Hashtbl.replace c.entries name { e_value = value; e_stamp = now; e_uuid = uuid };
          (match uuid with Some u -> Hashtbl.replace c.by_uuid u name | None -> ());
          true
        end)

  let fresh c entry ~now =
    match c.ttl with None -> true | Some ttl -> now -. entry.e_stamp <= ttl

  (* Assumes [c.mutex] held. *)
  let find_locked c name ~now =
    match Hashtbl.find_opt c.entries name with
    | Some e when fresh c e ~now ->
      c.hits <- c.hits + 1;
      Some e.e_value
    | Some _ | None ->
      c.misses <- c.misses + 1;
      None

  let find c name ~now = locked c (fun () -> find_locked c name ~now)

  let find_by_uuid c uuid ~now =
    locked c (fun () ->
        match Hashtbl.find_opt c.by_uuid uuid with
        | Some name -> find_locked c name ~now
        | None ->
          c.misses <- c.misses + 1;
          None)

  let invalidate c name =
    locked c (fun () ->
        c.seq <- c.seq + 1;
        Hashtbl.replace c.inval name c.seq;
        match Hashtbl.find_opt c.entries name with
        | Some { e_uuid = Some u; _ } ->
          unindex c name u;
          Hashtbl.remove c.entries name
        | Some _ -> Hashtbl.remove c.entries name
        | None -> ())

  let clear c =
    locked c (fun () ->
        c.epoch <- c.epoch + 1;
        Hashtbl.reset c.entries;
        Hashtbl.reset c.by_uuid;
        Hashtbl.reset c.inval)

  let epoch c = locked c (fun () -> c.epoch)
  let size c = locked c (fun () -> Hashtbl.length c.entries)
  let hits c = locked c (fun () -> c.hits)
  let misses c = locked c (fun () -> c.misses)
end

type cache_op =
  | Begin_fill of int
  | Invalidate of string
  | Install of int * string * string option * int
  | Bulk of int * (string * string option * int) list
  | Clear
  | Find of string
  | Find_by_uuid of string
  | Tick

let show_op = function
  | Begin_fill k -> Printf.sprintf "begin_fill %d" k
  | Invalidate n -> "invalidate " ^ n
  | Install (k, n, u, v) ->
    Printf.sprintf "install %d %s %s %d" k n (Option.value u ~default:"-") v
  | Bulk (k, rows) ->
    Printf.sprintf "bulk %d [%s]" k
      (String.concat "; "
         (List.map
            (fun (n, u, v) -> Printf.sprintf "%s %s %d" n (Option.value u ~default:"-") v)
            rows))
  | Clear -> "clear"
  | Find n -> "find " ^ n
  | Find_by_uuid u -> "find_by_uuid " ^ u
  | Tick -> "tick"

let gen_cache_run =
  let open QCheck.Gen in
  let name = oneofl [ "a"; "b"; "c"; "d" ] in
  let uuid = opt (oneofl [ "u1"; "u2"; "u3" ]) in
  (* Two values, so rows often repeat what an entry holds. *)
  let row = triple name uuid (int_bound 1) in
  let slot = int_bound 1 in
  let op =
    frequency
      [
        (2, map (fun k -> Begin_fill k) slot);
        (2, map (fun n -> Invalidate n) name);
        (4, map (fun (k, (n, u, v)) -> Install (k, n, u, v)) (pair slot row));
        (4, map2 (fun k rows -> Bulk (k, rows)) slot (list_size (int_bound 5) row));
        (1, return Clear);
        (4, map (fun n -> Find n) name);
        (2, map (fun u -> Find_by_uuid u) (oneofl [ "u1"; "u2"; "u3" ]));
        (2, return Tick);
      ]
  in
  pair bool (list_size (int_range 1 40) op)

(* Runs one schedule on a cache and on the reference, and returns the
   first step where their answers differ. *)
let cache_model_diverges (ttl, ops) =
  let ttl = if ttl then Some 1.0 else None in
  let c = Cache.create ?ttl () and r = Reference.create ?ttl () in
  let fills = Array.init 2 (fun _ -> (Cache.begin_fill c, Reference.begin_fill r)) in
  let now = ref 0. in
  let step op =
    match op with
    | Begin_fill k ->
      fills.(k) <- (Cache.begin_fill c, Reference.begin_fill r);
      true
    | Invalidate n ->
      Cache.invalidate c n;
      Reference.invalidate r n;
      true
    | Install (k, n, uuid, v) ->
      let fc, fr = fills.(k) in
      Cache.install c fc n ?uuid v ~now:!now = Reference.install r fr n ?uuid v ~now:!now
    | Bulk (k, rows) ->
      let fc, fr = fills.(k) in
      Cache.install_bulk c fc ~now:!now (fun add ->
          List.map (fun (n, uuid, v) -> add n ?uuid v) rows)
      = List.map (fun (n, uuid, v) -> Reference.install r fr n ?uuid v ~now:!now) rows
    | Clear ->
      Cache.clear c;
      Reference.clear r;
      true
    | Find n -> Cache.find c n ~now:!now = Reference.find r n ~now:!now
    | Find_by_uuid u -> Cache.find_by_uuid c u ~now:!now = Reference.find_by_uuid r u ~now:!now
    | Tick ->
      now := !now +. 0.6;
      true
  in
  let agree () =
    Cache.size c = Reference.size r
    && Cache.epoch c = Reference.epoch r
    && Cache.hits c = Reference.hits r
    && Cache.misses c = Reference.misses r
    && List.for_all
         (fun n -> Cache.find c n ~now:!now = Reference.find r n ~now:!now)
         [ "a"; "b"; "c"; "d" ]
    && List.for_all
         (fun u -> Cache.find_by_uuid c u ~now:!now = Reference.find_by_uuid r u ~now:!now)
         [ "u1"; "u2"; "u3" ]
  in
  let rec go i = function
    | [] -> if agree () then None else Some "final state"
    | op :: ops -> if step op && agree () then go (i + 1) ops else Some (Printf.sprintf "step %d: %s" i (show_op op))
  in
  go 0 ops

let prop_cache_matches_reference =
  let print (ttl, ops) =
    Printf.sprintf "ttl=%b\n%s" ttl (String.concat "\n" (List.map show_op ops))
  in
  qcheck_case ~count:500 "cache matches the reference model"
    (QCheck.make ~print gen_cache_run) (fun run ->
      match cache_model_diverges run with
      | None -> true
      | Some where -> QCheck.Test.fail_reportf "diverges at %s" where)

(* A rename on a TTL cache: no event drops the old name's entry, so the
   new name claims the UUID while the old entry still carries it.
   Replacing or invalidating the old entry must leave the new owner's
   index entry alone. *)
let test_cache_rename_keeps_uuid_index () =
  let renamed () =
    let c = Cache.create ~ttl:60. () in
    let fill = Cache.begin_fill c in
    ignore (Cache.install c fill "old" ~uuid:"u-1" 1 ~now:0.);
    ignore (Cache.install c fill "new" ~uuid:"u-1" 1 ~now:1.);
    (c, fill)
  in
  let c, fill = renamed () in
  ignore (Cache.install c fill "old" ~uuid:"u-2" 2 ~now:2.);
  Alcotest.(check (option int)) "after the old name is replaced" (Some 1)
    (Cache.find_by_uuid c "u-1" ~now:2.);
  let c, _ = renamed () in
  Cache.invalidate c "old";
  Alcotest.(check (option int)) "after the old name is invalidated" (Some 1)
    (Cache.find_by_uuid c "u-1" ~now:2.)

(* A repeated listing runs no row until something changes the cache;
   a TTL cache always runs them, to refresh its stamps. *)
let test_cache_repeated_listing_skipped () =
  let rows = [ ("a", "u-a", 1); ("b", "u-b", 2) ] in
  let install c serial =
    Cache.install_listing c (Cache.begin_fill c) ~serial ~now:0. (fun add ->
        List.iter (fun (n, uuid, v) -> ignore (add n ~uuid v)) rows)
  in
  let c = Cache.create () in
  Alcotest.(check (list bool)) "first, repeat, another serial, its repeat"
    [ true; false; true; false ]
    (List.map (install c) [ 1; 1; 2; 2 ]);
  Cache.invalidate c "a";
  Alcotest.(check bool) "after an invalidation" true (install c 2);
  Alcotest.(check (option int)) "reinstalled" (Some 1) (Cache.find c "a" ~now:0.);
  Cache.clear c;
  Alcotest.(check bool) "after a clear" true (install c 2);
  let t = Cache.create ~ttl:1.0 () in
  Alcotest.(check (list bool)) "under a ttl" [ true; true ] (List.map (install t) [ 1; 1 ])

(* Listings are a few fixed physical lists, numbered by index, among
   point installs, invalidations, clears, stale fills and ticks. *)
type listing_op =
  | L_fill of int
  | L_listing of int * int  (** fill slot, list *)
  | L_install of int * string * string option * int
  | L_invalidate of string
  | L_clear
  | L_tick

let show_listing_op = function
  | L_fill k -> Printf.sprintf "begin_fill %d" k
  | L_listing (k, i) -> Printf.sprintf "listing %d with fill %d" i k
  | L_install (k, n, u, v) ->
    Printf.sprintf "install %d %s %s %d" k n (Option.value u ~default:"-") v
  | L_invalidate n -> "invalidate " ^ n
  | L_clear -> "clear"
  | L_tick -> "tick"

let listing_names = [ "a"; "b"; "c"; "d" ]
let listing_uuids = [ "u1"; "u2"; "u3" ]

let gen_listing_run =
  let open QCheck.Gen in
  let name = oneofl listing_names in
  let uuid = opt (oneofl listing_uuids) in
  let row = triple name uuid (int_bound 1) in
  let slot = int_bound 1 in
  let* n_lists = int_range 2 3 in
  let op =
    frequency
      [
        (2, map (fun k -> L_fill k) slot);
        (6, map2 (fun k i -> L_listing (k, i)) slot (int_bound (n_lists - 1)));
        (* Values 0..3: point installs often differ from the listed ones. *)
        ( 2,
          map2
            (fun k (n, u, v) -> L_install (k, n, u, v))
            slot (triple name uuid (int_bound 3)) );
        (2, map (fun n -> L_invalidate n) name);
        (1, return L_clear);
        (2, return L_tick);
      ]
  in
  triple bool
    (array_repeat n_lists (list_size (int_bound 5) row))
    (list_size (int_range 1 40) op)

(* Runs one schedule on a cache whose listings may skip and on the
   reference, which always installs every row; returns the first step
   after which [find], [find_by_uuid] or [size] differ. *)
let listing_run_diverges (ttl, lists, ops) =
  let ttl = if ttl then Some 1.0 else None in
  let c = Cache.create ?ttl () and r = Reference.create ?ttl () in
  let fills = Array.init 2 (fun _ -> (Cache.begin_fill c, Reference.begin_fill r)) in
  let now = ref 0. in
  let step = function
    | L_fill k -> fills.(k) <- (Cache.begin_fill c, Reference.begin_fill r)
    | L_listing (k, i) ->
      let fc, fr = fills.(k) in
      let rows = lists.(i) in
      ignore
        (Cache.install_listing c fc ~serial:i ~now:!now (fun add ->
             List.iter (fun (n, uuid, v) -> ignore (add n ?uuid v)) rows));
      List.iter (fun (n, uuid, v) -> ignore (Reference.install r fr n ?uuid v ~now:!now)) rows
    | L_install (k, n, uuid, v) ->
      let fc, fr = fills.(k) in
      ignore (Cache.install c fc n ?uuid v ~now:!now);
      ignore (Reference.install r fr n ?uuid v ~now:!now)
    | L_invalidate n ->
      Cache.invalidate c n;
      Reference.invalidate r n
    | L_clear ->
      Cache.clear c;
      Reference.clear r
    | L_tick -> now := !now +. 0.6
  in
  let agree () =
    Cache.size c = Reference.size r
    && List.for_all
         (fun n -> Cache.find c n ~now:!now = Reference.find r n ~now:!now)
         listing_names
    && List.for_all
         (fun u -> Cache.find_by_uuid c u ~now:!now = Reference.find_by_uuid r u ~now:!now)
         listing_uuids
  in
  let rec go i = function
    | [] -> None
    | op :: ops ->
      step op;
      if agree () then go (i + 1) ops
      else Some (Printf.sprintf "step %d: %s" i (show_listing_op op))
  in
  go 0 ops

let prop_repeated_listing_matches_full_install =
  let print (ttl, lists, ops) =
    let show_row (n, u, v) = Printf.sprintf "%s %s %d" n (Option.value u ~default:"-") v in
    Printf.sprintf "ttl=%b\n%s\n%s" ttl
      (String.concat "\n"
         (Array.to_list
            (Array.mapi
               (fun i rows ->
                 Printf.sprintf "list %d: [%s]" i (String.concat "; " (List.map show_row rows)))
               lists)))
      (String.concat "\n" (List.map show_listing_op ops))
  in
  qcheck_case ~count:1000 "a skipped listing leaves the cache as a full install"
    (QCheck.make ~print gen_listing_run) (fun run ->
      match listing_run_diverges run with
      | None -> true
      | Some where -> QCheck.Test.fail_reportf "diverges after %s" where)

(* --- bulk listing: local and remote -------------------------------------- *)

let sort_records records =
  List.sort
    (fun a b -> compare a.Driver.rec_ref.Driver.dom_name b.Driver.rec_ref.Driver.dom_name)
    records

let record_names records =
  List.map (fun r -> r.Driver.rec_ref.Driver.dom_name) (sort_records records)

(* A node with two running and one merely defined domain. *)
let populate conn =
  let running1 = fresh_name "bulk-r1" and running2 = fresh_name "bulk-r2" in
  let defined = fresh_name "bulk-d" in
  let _ = define_and_start conn ~virt_type:"test" ~name:running1 () in
  let _ = define_and_start conn ~virt_type:"test" ~name:running2 () in
  let cfg = Vmm.Vm_config.make ~memory_kib:(8 * 1024) defined in
  let dom = vok (Domain.define_xml conn (Vmm.Domxml.to_xml ~virt_type:"test" cfg)) in
  vok (Domain.set_autostart dom true);
  ([ running1; running2 ], [ defined ])

let test_list_all_matches_per_op () =
  let conn = fresh_test_conn () in
  let running, defined = populate conn in
  (* Every fresh test node seeds a running domain named "test". *)
  let running = "test" :: running in
  let records = vok (Connect.list_all_domains conn) in
  Alcotest.(check (list string)) "names"
    (List.sort compare (running @ defined))
    (record_names records);
  List.iter
    (fun r ->
      let name = r.Driver.rec_ref.Driver.dom_name in
      let dom = vok (Domain.lookup_by_name conn name) in
      Alcotest.(check bool) (name ^ " info agrees") true
        (vok (Domain.get_info dom) = r.Driver.rec_info);
      Alcotest.(check bool) (name ^ " autostart agrees") true
        (Some (vok (Domain.get_autostart dom)) = r.Driver.rec_autostart);
      Alcotest.(check bool) (name ^ " state sensible") true
        (if List.mem name running then r.Driver.rec_info.Driver.di_state = Vm_state.Running
         else r.Driver.rec_info.Driver.di_state = Vm_state.Shutoff))
    records;
  Connect.close conn

let test_remote_bulk_matches_direct () =
  with_daemon (fun daemon _ ->
      let node = fresh_name "bulknode" in
      let direct = vok (Connect.open_uri (Printf.sprintf "test://%s/" node)) in
      let remote = vok (Connect.open_uri (remote_uri ~daemon node)) in
      let _ = populate direct in
      let drecs = sort_records (vok (Connect.list_all_domains direct)) in
      let rrecs = sort_records (vok (Connect.list_all_domains remote)) in
      Alcotest.(check bool) "records agree over the wire" true (drecs = rrecs);
      Connect.close remote;
      Connect.close direct)

let test_pre_v13_daemon_refused () =
  (* v1.3 is the oldest daemon the client talks to: an older one gets one
     clear error instead of a guessed protocol. *)
  with_daemon ~config:v12_config (fun d12 _ ->
      (match Connect.open_uri (remote_uri ~daemon:d12 (fresh_name "negnode")) with
       | Ok conn ->
         Connect.close conn;
         Alcotest.fail "pre-v1.3 daemon accepted"
       | Error e ->
         Alcotest.(check bool) "operation_unsupported" true
           (e.Verror.code = Verror.Operation_unsupported);
         Alcotest.(check string) "names v1.3"
           "daemon predates protocol v1.3; this client needs v1.3 or newer"
           e.Verror.message);
      (* The refusal is the client's alone: the daemon still serves v1.0. *)
      let client = raw_client d12 in
      Alcotest.(check string) "v1.0 echo still answered" "still here"
        (vok (raw_call client Rp.Proc_echo "still here"));
      Rpc_client.close client);
  with_daemon ~config:{ quiet_config with Daemon_config.proto_minor = 3 }
    (fun d13 _ ->
      let node = fresh_name "negnode" in
      let direct = vok (Connect.open_uri (Printf.sprintf "test://%s/" node)) in
      let _ = populate direct in
      let conn = vok (Connect.open_uri (remote_uri ~daemon:d13 node)) in
      let c0 = calls_of conn in
      let records = sort_records (vok (Connect.list_all_domains conn)) in
      (* A v1.3 daemon rejects the v1.7 fleet listing, so the one round
         trip is its Proc_dom_list_all. *)
      Alcotest.(check int) "one Proc_dom_list_all" 1 (calls_of conn - c0);
      Alcotest.(check bool) "v1.3 daemon matches direct" true
        (records = sort_records (vok (Connect.list_all_domains direct)));
      Connect.close conn;
      Connect.close direct)

let test_pipelined_calls_over_tls () =
  (* Regression: pipelined calls interleave requests and replies on the
     wire.  TLS records are sequence-checked per direction, so this used
     to corrupt the stream (a single shared counter assumed strict
     ping-pong) and the connection died.  Repeat a few times: the
     original failure was a scheduling race. *)
  with_daemon (fun daemon _ ->
      for round = 1 to 5 do
        let client = raw_client ~kind:Transport.Tls daemon in
        let futures =
          List.init 16 (fun i ->
              let msg = Printf.sprintf "round %d call %d" round i in
              match
                Rpc_client.call_async client
                  ~procedure:(Rp.proc_to_int Rp.Proc_echo) ~body:msg ()
              with
              | Ok fut -> (msg, fut)
              | Error e -> Alcotest.failf "send: %s" (Verror.to_string e))
        in
        List.iter
          (fun (msg, fut) ->
            Alcotest.(check string) "reply matches its request" msg
              (vok (Rpc_client.await fut)))
          futures;
        Rpc_client.close client
      done)

(* --- batch execution on the daemon ---------------------------------------- *)

let test_batch_error_isolation () =
  with_daemon (fun daemon _ ->
      let client = raw_client daemon in
      let node = fresh_name "batchnode" in
      vok
        (Result.map Rp.dec_unit_body
           (raw_call client Rp.Proc_open
              (Rp.enc_string_body (Printf.sprintf "test://%s/" node))));
      let batch =
        Rp.enc_batch_call
          [
            (Rp.proc_to_int Rp.Proc_echo, "hello");
            (Rp.proc_to_int Rp.Proc_dom_get_info, Rp.enc_string_body "no-such-vm");
            (9999, "");
            (Rp.proc_to_int Rp.Proc_list_domains, Rp.enc_unit_body);
          ]
      in
      let replies = Rp.dec_batch_reply (vok (raw_call client Rp.Proc_call_batch batch)) in
      (match replies with
      | [ (ok1, b1); (ok2, b2); (ok3, b3); (ok4, b4) ] ->
        Alcotest.(check bool) "echo succeeded" true ok1;
        Alcotest.(check string) "echo body" "hello" b1;
        Alcotest.(check bool) "missing domain isolated" false ok2;
        Alcotest.(check bool) "as no_domain" true
          ((Rp.dec_error b2).Verror.code = Verror.No_domain);
        Alcotest.(check bool) "unknown proc isolated" false ok3;
        Alcotest.(check bool) "as rpc_failure" true
          ((Rp.dec_error b3).Verror.code = Verror.Rpc_failure);
        Alcotest.(check bool) "sibling after failures succeeded" true ok4;
        Alcotest.(check int) "and decoded" 1
          (List.length (Rp.dec_domain_ref_list b4))
      | _ -> Alcotest.failf "expected 4 sub-replies, got %d" (List.length replies));
      (* A batch must not smuggle a batch: the recursion is refused. *)
      let nested =
        Rp.enc_batch_call [ (Rp.proc_to_int Rp.Proc_call_batch, Rp.enc_batch_call []) ]
      in
      (match Rp.dec_batch_reply (vok (raw_call client Rp.Proc_call_batch nested)) with
      | [ (false, body) ] ->
        Alcotest.(check bool) "nested refused" true
          ((Rp.dec_error body).Verror.code = Verror.Rpc_failure)
      | _ -> Alcotest.fail "nested batch not isolated");
      Rpc_client.close client)

let test_v12_daemon_rejects_new_procs () =
  with_daemon ~config:v12_config (fun daemon _ ->
      let client = raw_client daemon in
      vok
        (Result.map Rp.dec_unit_body
           (raw_call client Rp.Proc_open
              (Rp.enc_string_body (Printf.sprintf "test://%s/" (fresh_name "old")))));
      List.iter
        (fun proc ->
          match raw_call client proc Rp.enc_unit_body with
          | Ok _ -> Alcotest.failf "v1.2 daemon accepted proc %d" (Rp.proc_to_int proc)
          | Error e ->
            Alcotest.(check bool) "unknown procedure" true
              (e.Verror.code = Verror.Rpc_failure))
        [ Rp.Proc_proto_minor; Rp.Proc_dom_list_all; Rp.Proc_call_batch; Rp.Proc_vol_lookup ];
      (* The gated procedures must be indistinguishable from garbage
         numbers: same error text an out-of-range procedure gets. *)
      (match raw_call client Rp.Proc_dom_list_all Rp.enc_unit_body with
      | Error e ->
        Alcotest.(check string) "same wording as unknown"
          (Printf.sprintf "unknown remote procedure %d" (Rp.proc_to_int Rp.Proc_dom_list_all))
          e.Verror.message
      | Ok _ -> Alcotest.fail "accepted");
      Rpc_client.close client)

(* --- cache behaviour over a live connection ------------------------------- *)

let test_cache_serves_repeat_reads () =
  with_daemon (fun daemon _ ->
      let node = fresh_name "cachenode" in
      let direct = vok (Connect.open_uri (Printf.sprintf "test://%s/" node)) in
      let name = fresh_name "vm" in
      let _ = define_and_start direct ~virt_type:"test" ~name () in
      let remote = vok (Connect.open_uri (remote_uri ~daemon node)) in
      let dom = vok (Domain.lookup_by_name remote name) in
      let c0 = calls_of remote in
      let i1 = vok (Domain.get_info dom) in
      let c1 = calls_of remote in
      let i2 = vok (Domain.get_info dom) in
      let i3 = vok (Domain.get_info dom) in
      let c2 = calls_of remote in
      Alcotest.(check bool) "reads agree" true (i1 = i2 && i2 = i3);
      Alcotest.(check int) "first read hits the wire" 1 (c1 - c0);
      Alcotest.(check int) "repeats served locally" 0 (c2 - c1);
      (* The bulk listing primes all three caches: point reads after it
         cost nothing. *)
      let c3 = calls_of remote in
      let records = vok (Connect.list_all_domains remote) in
      let c4 = calls_of remote in
      List.iter
        (fun r ->
          let n = r.Driver.rec_ref.Driver.dom_name in
          let d = vok (Domain.lookup_by_name remote n) in
          ignore (vok (Domain.get_info d));
          ignore (vok (Domain.get_autostart d)))
        records;
      let c5 = calls_of remote in
      Alcotest.(check int) "one call for the listing" 1 (c4 - c3);
      Alcotest.(check int) "primed point reads are free" 0 (c5 - c4);
      (* XML is cached too, and a config change invalidates it. *)
      let x1 = vok (Domain.xml_desc dom) in
      let c6 = calls_of remote in
      let x2 = vok (Domain.xml_desc dom) in
      let c7 = calls_of remote in
      Alcotest.(check string) "xml repeat agrees" x1 x2;
      Alcotest.(check int) "first xml read hits the wire" 1 (c6 - c5);
      Alcotest.(check int) "xml repeat served locally" 0 (c7 - c6);
      let uuid = Domain.uuid dom in
      let cfg = Vmm.Vm_config.make ~uuid ~memory_kib:(32 * 1024) name in
      ignore
        (vok (Domain.define_xml remote (Vmm.Domxml.to_xml ~virt_type:"test" cfg)));
      let x3 = vok (Domain.xml_desc dom) in
      Alcotest.(check bool) "redefine invalidates cached xml" false (x1 = x3);
      Connect.close remote;
      Connect.close direct)

let test_event_invalidates_cache () =
  with_daemon (fun daemon _ ->
      let node = fresh_name "evnode" in
      let direct = vok (Connect.open_uri (Printf.sprintf "test://%s/" node)) in
      let name = fresh_name "vm" in
      let ddom = define_and_start direct ~virt_type:"test" ~name () in
      let remote = vok (Connect.open_uri (remote_uri ~daemon node)) in
      let rdom = vok (Domain.lookup_by_name remote name) in
      Alcotest.(check bool) "cached as running" true
        ((vok (Domain.get_info rdom)).Driver.di_state = Vm_state.Running);
      (* Mutate through the other path: only the pushed lifecycle event
         can tell the remote client its cache is stale. *)
      vok (Domain.suspend ddom);
      Alcotest.(check bool) "event refreshed the cached state" true
        (eventually (fun () ->
             (vok (Domain.get_info rdom)).Driver.di_state = Vm_state.Paused));
      Connect.close remote;
      Connect.close direct)

let test_eventless_ttl_freshness () =
  with_daemon (fun daemon _ ->
      let node = fresh_name "ttlnode" in
      let direct = vok (Connect.open_uri (Printf.sprintf "test://%s/" node)) in
      let name = fresh_name "vm" in
      let ddom = define_and_start direct ~virt_type:"test" ~name () in
      (* No event stream, generous TTL: the cache must mask the remote
         mutation — proof the hits really are served locally. *)
      let stale =
        vok (Connect.open_uri (remote_uri ~params:"&events=0&cache_ttl=600" ~daemon node))
      in
      let sdom = vok (Domain.lookup_by_name stale name) in
      Alcotest.(check bool) "primed" true
        ((vok (Domain.get_info sdom)).Driver.di_state = Vm_state.Running);
      (* Short TTL on a second connection: freshness decays by clock. *)
      let fresh =
        vok (Connect.open_uri (remote_uri ~params:"&events=0&cache_ttl=0.05" ~daemon node))
      in
      let fdom = vok (Domain.lookup_by_name fresh name) in
      Alcotest.(check bool) "also primed" true
        ((vok (Domain.get_info fdom)).Driver.di_state = Vm_state.Running);
      vok (Domain.suspend ddom);
      Alcotest.(check bool) "short ttl sees the change" true
        (eventually (fun () ->
             (vok (Domain.get_info fdom)).Driver.di_state = Vm_state.Paused));
      Alcotest.(check bool) "long ttl still serves the cached state" true
        ((vok (Domain.get_info sdom)).Driver.di_state = Vm_state.Running);
      Connect.close fresh;
      Connect.close stale;
      Connect.close direct)

let test_cache_disabled_by_param () =
  with_daemon (fun daemon _ ->
      let node = fresh_name "nocache" in
      let direct = vok (Connect.open_uri (Printf.sprintf "test://%s/" node)) in
      let name = fresh_name "vm" in
      let _ = define_and_start direct ~virt_type:"test" ~name () in
      let remote = vok (Connect.open_uri (remote_uri ~params:"&cache=0" ~daemon node)) in
      let dom = vok (Domain.lookup_by_name remote name) in
      let c0 = calls_of remote in
      ignore (vok (Domain.get_info dom));
      ignore (vok (Domain.get_info dom));
      Alcotest.(check int) "every read on the wire" 2 (calls_of remote - c0);
      Connect.close remote;
      Connect.close direct)

let test_reconnect_drops_cache () =
  let dname = fresh_name "bulkd" in
  let d1 = Daemon.start ~name:dname ~config:quiet_config () in
  let node = fresh_name "reconnode" in
  let direct = vok (Connect.open_uri (Printf.sprintf "test://%s/" node)) in
  let name = fresh_name "vm" in
  let ddom = define_and_start direct ~virt_type:"test" ~name () in
  (* Event-less with an effectively infinite TTL: only a reconnect's
     epoch bump can evict what we cache now. *)
  let remote =
    vok
      (Connect.open_uri
         (remote_uri
            ~params:"&events=0&cache_ttl=600&reconnect=50&reconnect_delay=0.01&reconnect_max_delay=0.05"
            ~daemon:dname node))
  in
  let rdom = vok (Domain.lookup_by_name remote name) in
  Alcotest.(check bool) "cached running" true
    ((vok (Domain.get_info rdom)).Driver.di_state = Vm_state.Running);
  vok (Domain.suspend ddom);
  Alcotest.(check bool) "cache masks the change" true
    ((vok (Domain.get_info rdom)).Driver.di_state = Vm_state.Running);
  (* Bounce the daemon: the client's next call reconnects, and the
     reconnect must clear the cache — the masked suspend becomes
     visible. *)
  Daemon.stop d1;
  let d2 = Daemon.start ~name:dname ~config:quiet_config () in
  Alcotest.(check bool) "reconnected read is fresh" true
    (eventually ~timeout_s:5.0 (fun () ->
         match Domain.get_info rdom with
         | Ok info -> info.Driver.di_state = Vm_state.Paused
         | Error _ -> false));
  (match Drv_remote.conn_stats (vok (Connect.ops remote)) with
  | Some s ->
    Alcotest.(check bool) "a reconnect happened" true (s.Drv_remote.st_reconnects >= 1)
  | None -> Alcotest.fail "not a remote connection");
  Connect.close remote;
  Connect.close direct;
  Daemon.stop d2

(* --- listing decode reuse --------------------------------------------------- *)

(* A listing step: repeat the last reply, change one row's state or
   autostart, or answer through the other listing procedure. *)
type listing_step = Same | Flip_state of int | Flip_autostart of int | Switch_proc

let show_listing_step = function
  | Same -> "same"
  | Flip_state i -> Printf.sprintf "flip_state %d" i
  | Flip_autostart i -> Printf.sprintf "flip_autostart %d" i
  | Switch_proc -> "switch_proc"

let listing_rows n =
  List.init n (fun i ->
      Driver.
        {
          rec_ref =
            {
              dom_name = Printf.sprintf "row%d" i;
              dom_uuid = Vmm.Uuid.generate ();
              dom_id = Some i;
            };
          rec_info =
            {
              di_state = Vm_state.Shutoff;
              di_max_mem_kib = 8192;
              di_memory_kib = 4096;
              di_vcpus = 1 + i;
              di_cpu_time_ns = 0L;
            };
          rec_autostart = Some false;
        })

let apply_listing_step (proc, rows) step =
  let edit k f = List.mapi (fun i r -> if i = k mod List.length rows then f r else r) rows in
  match step with
  | Same -> (proc, rows)
  | Switch_proc ->
    ( (if proc = Rp.Proc_fleet_list_all then Rp.Proc_dom_list_all
       else Rp.Proc_fleet_list_all),
      rows )
  | Flip_state k ->
    ( proc,
      edit k (fun r ->
          let st =
            if r.Driver.rec_info.Driver.di_state = Vm_state.Running then Vm_state.Shutoff
            else Vm_state.Running
          in
          { r with Driver.rec_info = { r.Driver.rec_info with Driver.di_state = st } }) )
  | Flip_autostart k ->
    ( proc,
      edit k (fun r ->
          { r with Driver.rec_autostart = Option.map not r.Driver.rec_autostart }) )

(* Each procedure's body and its decoder, as the remote driver uses them:
   the bare-rows reply is wrapped as a listing with no shard errors. *)
let listing_body (proc, rows) =
  if proc = Rp.Proc_fleet_list_all then
    Rp.enc_fleet_listing
      Driver.{ fl_records = rows; fl_shard_errors = []; fl_members = 1 }
  else Rp.enc_domain_record_list rows

let listing_decoder proc body =
  if proc = Rp.Proc_fleet_list_all then Rp.dec_fleet_listing body
  else
    Driver.
      {
        fl_records = Rp.dec_domain_record_list body;
        fl_shard_errors = [];
        fl_members = 1;
      }

let prop_listing_reuse_matches_fresh_decode =
  let gen =
    let open QCheck.Gen in
    let step =
      frequency
        [
          (4, return Same);
          (2, map (fun i -> Flip_state i) (int_bound 7));
          (2, map (fun i -> Flip_autostart i) (int_bound 7));
          (1, return Switch_proc);
        ]
    in
    pair (int_range 1 6) (list_size (int_range 1 30) step)
  in
  let print (n, steps) =
    Printf.sprintf "%d rows: %s" n (String.concat "; " (List.map show_listing_step steps))
  in
  qcheck_case ~count:300 "listing reuse matches a fresh decode"
    (QCheck.make ~print gen) (fun (n, steps) ->
      let states =
        List.fold_left
          (fun acc step -> apply_listing_step (List.hd acc) step :: acc)
          [ (Rp.Proc_fleet_list_all, listing_rows n) ]
          steps
        |> List.rev
      in
      let last = Atomic.make None in
      let reply prev ((proc, _) as state) =
        let body = listing_body state in
        let got = vok (Drv_remote.decode_reusing last proc (listing_decoder proc) body) in
        if got <> listing_decoder proc body then
          QCheck.Test.fail_report "value differs from a fresh decode";
        (match prev with
         | Some (p, b, v) when p = proc && String.equal b body ->
           if got != v then QCheck.Test.fail_report "a repeated body was decoded again"
         | Some (_, _, v) ->
           if got == v then QCheck.Test.fail_report "a changed body reused the old value"
         | None -> ());
        Some (proc, body, got)
      in
      ignore (List.fold_left reply None states);
      true)

let test_listing_reuse_refuses_malformed () =
  let last = Atomic.make None in
  let proc = Rp.Proc_fleet_list_all in
  let good = listing_body (proc, listing_rows 3) in
  let first = vok (Drv_remote.decode_reusing last proc (listing_decoder proc) good) in
  let stored = Atomic.get last in
  (* The good body cut short: same procedure, different bytes. *)
  let bad = String.sub good 0 (String.length good - 3) in
  (match Drv_remote.decode_reusing last proc (listing_decoder proc) bad with
   | Ok _ -> Alcotest.fail "malformed body decoded"
   | Error e ->
     Alcotest.(check bool) "rpc failure" true (e.Verror.code = Verror.Rpc_failure));
  Alcotest.(check bool) "stored entry kept" true (Atomic.get last == stored);
  Alcotest.(check bool) "good body still reused" true
    (vok (Drv_remote.decode_reusing last proc (listing_decoder proc) good) == first)

let test_listing_reuse_sees_a_start () =
  with_daemon (fun daemon _ ->
      let node = fresh_name "reusenode" in
      let direct = vok (Connect.open_uri (Printf.sprintf "test://%s/" node)) in
      let name = fresh_name "reuse-vm" in
      let cfg = Vmm.Vm_config.make ~memory_kib:(8 * 1024) name in
      let ddom =
        vok (Domain.define_xml direct (Vmm.Domxml.to_xml ~virt_type:"test" cfg))
      in
      let remote = vok (Connect.open_uri (remote_uri ~transport:"tls" ~daemon node)) in
      let state_of records =
        match List.find_opt (fun r -> r.Driver.rec_ref.Driver.dom_name = name) records with
        | Some r -> r.Driver.rec_info.Driver.di_state
        | None -> Alcotest.failf "%s not listed" name
      in
      (* Twice: the second reply repeats the first byte for byte. *)
      for _ = 1 to 2 do
        Alcotest.(check bool) "listed stopped" true
          (state_of (vok (Connect.list_all_domains remote)) = Vm_state.Shutoff)
      done;
      (* Started by another client: only the next reply's bytes tell. *)
      vok (Domain.create ddom);
      Alcotest.(check bool) "listed running" true
        (state_of (vok (Connect.list_all_domains remote)) = Vm_state.Running);
      let rdom = vok (Domain.lookup_by_name remote name) in
      Alcotest.(check bool) "cached info running" true
        ((vok (Domain.get_info rdom)).Driver.di_state = Vm_state.Running);
      Connect.close remote;
      Connect.close direct)

(* --- path-indexed volume lookup ------------------------------------------- *)

let test_vol_by_path_native () =
  with_daemon (fun daemon _ ->
      let node = fresh_name "volnode" in
      let direct = vok (Connect.open_uri (Printf.sprintf "test://%s/" node)) in
      let pool =
        vok
          (Ovirt.Storage.define_pool direct ~name:"bulkpool"
             ~target_path:"/bulkpool" ~capacity_b:(1 lsl 30))
      in
      vok (Ovirt.Storage.start_pool pool);
      let vol =
        vok
          (Ovirt.Storage.create_volume pool ~name:"disk.img"
             ~capacity_b:(1 lsl 20) ~format:"qcow2")
      in
      let path = vol.Ovirt.Storage_backend.vol_key in
      let conn = vok (Connect.open_uri (remote_uri ~daemon node)) in
      let c0 = calls_of conn in
      let found = vok (Ovirt.Storage.volume_by_path conn path) in
      Alcotest.(check int) "native lookup is one round trip" 1 (calls_of conn - c0);
      Alcotest.(check bool) "resolves the volume" true (found = vol);
      (match Ovirt.Storage.volume_by_path conn (path ^ "-nope") with
      | Error e ->
        Alcotest.(check bool) "miss is no_storage_vol" true
          (e.Verror.code = Verror.No_storage_vol)
      | Ok _ -> Alcotest.fail "bogus path resolved");
      Connect.close conn;
      Connect.close direct)

let () =
  Alcotest.run "bulk"
    [
      ( "protocol",
        [
          quick "v1.3 numbers stable" test_v13_numbers_stable;
          quick "domain record roundtrip" test_domain_record_roundtrip;
          quick "batch codec roundtrip" test_batch_codec_roundtrip;
        ] );
      ( "cache",
        [
          quick "hit, miss, invalidate" test_cache_hit_miss_invalidate;
          quick "event before reply drops fill" test_cache_event_before_reply_drops_fill;
          quick "clear voids epoch" test_cache_clear_voids_epoch;
          quick "ttl expiry" test_cache_ttl;
          quick "uuid index" test_cache_uuid_index;
          quick "equal value refused after invalidate"
            test_cache_equal_value_refused_after_invalidate;
          quick "equal install refreshes ttl" test_cache_equal_install_refreshes_ttl;
          quick "unchanged listing keeps entries" test_cache_unchanged_listing_keeps_entries;
          prop_cache_matches_reference;
          quick "rename keeps the uuid index" test_cache_rename_keeps_uuid_index;
          quick "repeated listing skipped" test_cache_repeated_listing_skipped;
          prop_repeated_listing_matches_full_install;
        ] );
      ( "bulk listing",
        [
          quick "matches per-op locally" test_list_all_matches_per_op;
          quick "remote matches direct" test_remote_bulk_matches_direct;
          quick "pre-v1.3 daemon refused" test_pre_v13_daemon_refused;
          quick "pipelined calls over tls" test_pipelined_calls_over_tls;
        ] );
      ( "listing reuse",
        [
          prop_listing_reuse_matches_fresh_decode;
          quick "malformed body refused, entry kept"
            test_listing_reuse_refuses_malformed;
          quick "a start shows over tls" test_listing_reuse_sees_a_start;
        ] );
      ( "batch",
        [
          quick "error isolation" test_batch_error_isolation;
          quick "v1.2 daemon rejects new procs" test_v12_daemon_rejects_new_procs;
        ] );
      ( "cache over rpc",
        [
          quick "repeat reads served locally" test_cache_serves_repeat_reads;
          quick "event invalidates" test_event_invalidates_cache;
          quick "eventless ttl freshness" test_eventless_ttl_freshness;
          quick "cache=0 disables" test_cache_disabled_by_param;
          quick "reconnect drops cache" test_reconnect_drops_cache;
        ] );
      ( "storage",
        [ quick "vol_by_path native" test_vol_by_path_native ]
      );
    ]
