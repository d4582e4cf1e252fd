(* Per-layer measurement for the traced run.

   Counters: every public counter a layer exposes is read before and
   after the traced window, and reported as a delta per operation (or
   per write), next to its base.

   Peel replays, run after the window on the inputs it captured, take
   the stack apart one layer at a time from the outside:
   - probe: the public calls the workload's loop does not make (and a
     write/event probe for workloads that do not write), through the
     same kind of connection;
   - rpc: the same calls as raw [Rpc_client.call]s, and the bytes one
     operation puts on the wire;
   - drivers: the same operations on the in-process driver URI, with
     no daemon;
   - codec and TLS on the reply bodies the rpc replay captured;
   - fleet: a scatter-gather listing over the workload's members, then
     each member listed on its own;
   - hvsim: QMP [query-status] on the node's emulator processes;
   - persist: a journal append at the run's final journal size.

   Every timing is a span; the reported figure is the median per-call
   duration of the spans of one name. *)

module Connect = Ovirt.Connect
module Domain = Ovirt.Domain
module Daemon = Ovirt.Daemon
module Admin = Ovirt.Admin_client
module Events = Ovirt.Events
module Fleet = Ovirt.Fleet
module Rp = Protocol.Remote_protocol
module Vm_config = Vmm.Vm_config

let ok = Stack.ok
let now = Unix.gettimeofday

(* ---- counters ------------------------------------------------------ *)

type admin = { a_conn : Admin.conn; a_server : Admin.server }

let open_admins (st : Stack.t) =
  List.map
    (fun m ->
      let conn = ok "admin connect" (Admin.connect ~daemon:(Daemon.name m.Stack.m_daemon) ()) in
      { a_conn = conn; a_server = ok "admin server" (Admin.lookup_server conn "libvirtd") })
    st.Stack.members

let close_admins = List.iter (fun a -> Admin.close a.a_conn)

let queue_depth admins () =
  List.fold_left
    (fun acc a ->
      match Admin.pool_stats a.a_server with
      | Ok p -> acc + p.Admin.ps_job_queue_depth
      | Error _ -> acc)
    0 admins

type counters = {
  wire_calls : int;
  sub_errors : int;
  wakeups : int;
  dispatches : int;
  buf_hits : int;
  buf_misses : int;
  rc_hits : int;
  rc_misses : int;
  rc_evictions : int;
  rc_invalidations : int;
  rc_bytes : int;
  ev_emitted : int;
  jobs_done : int;
  jobs_shed : int;
  jobs_expired : int;
  minor_words : float;
  major_collections : int;
  top_heap_words : int;
}

let snapshot (st : Stack.t) admins =
  let sum f = List.fold_left (fun acc x -> acc + f x) 0 in
  let members = st.Stack.members in
  let reactors = List.concat_map (fun m -> Array.to_list (Daemon.reactors m.Stack.m_daemon)) members in
  let rstat f = sum (fun r -> f (Ovirt.Reactor.stats r)) reactors in
  let pools = List.filter_map (fun m -> Daemon.buffer_pool m.Stack.m_daemon) members in
  let bstat f = sum (fun p -> f (Ovirt.Bufpool.stats p)) pools in
  let rcs = List.map (fun a -> ok "reply cache stats" (Admin.reply_cache_stats a.a_conn)) admins in
  let evs = List.map (fun a -> ok "event stats" (Admin.event_stats a.a_conn)) admins in
  let pss = List.map (fun a -> ok "pool stats" (Admin.pool_stats a.a_server)) admins in
  let remote = Drv_remote.stats () in
  let gc = Gc.quick_stat () in
  {
    wire_calls = remote.Drv_remote.st_calls;
    sub_errors = remote.Drv_remote.st_sub_errors;
    wakeups = rstat (fun s -> s.Ovirt.Reactor.wakeups);
    dispatches = rstat (fun s -> s.Ovirt.Reactor.dispatches);
    buf_hits = bstat (fun s -> s.Ovirt.Bufpool.s_hits);
    buf_misses = bstat (fun s -> s.Ovirt.Bufpool.s_misses);
    rc_hits = sum (fun r -> r.Admin.rc_hits) rcs;
    rc_misses = sum (fun r -> r.Admin.rc_misses) rcs;
    rc_evictions = sum (fun r -> r.Admin.rc_evictions) rcs;
    rc_invalidations = sum (fun r -> r.Admin.rc_invalidations) rcs;
    rc_bytes = sum (fun r -> r.Admin.rc_bytes) rcs;
    ev_emitted = sum (fun e -> e.Admin.es_emitted) evs;
    jobs_done = sum (fun p -> p.Admin.ps_jobs_done) pss;
    jobs_shed = sum (fun p -> p.Admin.ps_jobs_shed) pss;
    jobs_expired = sum (fun p -> p.Admin.ps_jobs_expired) pss;
    minor_words = gc.Gc.minor_words;
    major_collections = gc.Gc.major_collections;
    top_heap_words = gc.Gc.top_heap_words;
  }

(* ---- helpers ------------------------------------------------------- *)

let span b name f = Trace.span (Some b) name f

(* Time [f] in batches of enough repetitions to last about 2 ms each,
   so microsecond-scale calls are not lost in clock resolution. *)
let batches b name ?(count = 7) f =
  let t0 = now () in
  ignore (Sys.opaque_identity (f ()));
  let one = Float.max 1e-7 (now () -. t0) in
  let n = max 1 (int_of_float (0.002 /. one)) in
  for _ = 1 to count do
    let t0 = now () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (f ()))
    done;
    Trace.record b ~n name t0 (now ())
  done

let first_member (st : Stack.t) = List.hd st.Stack.members

(* ---- probe --------------------------------------------------------- *)

type probe = {
  p_writes : int;
  p_lags : float list;
  p_journal_deltas : int list;  (** journal growth of each probe write *)
  p_before : counters;
  p_after : counters;
}

(* Ten rounds of reads, autostart flips and a start/stop on a probe
   domain of the first member; a second connection with default
   parameters times each lifecycle event's arrival. *)
let probe b (st : Stack.t) admins ~seed =
  let m = first_member st in
  let a = ok "probe open" (Connect.open_uri m.Stack.m_remote) in
  let watcher = ok "probe open" (Connect.open_uri m.Stack.m_default) in
  let mu = Mutex.create () and cv = Condition.create () in
  let seen = ref [] in
  let name = "pb-probe" in
  ignore
    (ok "probe subscribe"
       (Connect.subscribe_events watcher (fun ev ->
            if ev.Events.domain_name = name then begin
              Mutex.lock mu;
              seen := (ev.Events.lifecycle, now ()) :: !seen;
              Condition.broadcast cv;
              Mutex.unlock mu
            end)));
  (* Wait (up to 1 s) for [lc] after [t0]; the delay, if it came. *)
  let await lc t0 =
    let deadline = t0 +. 1.0 in
    Mutex.lock mu;
    let rec loop () =
      match List.find_opt (fun (l, t) -> l = lc && t >= t0) !seen with
      | Some (_, t) -> Some (t -. t0)
      | None when now () >= deadline -> None
      | None ->
        Ovsync.Timedwait.wait mu cv ~until:deadline;
        loop ()
    in
    let r = loop () in
    seen := [];
    Mutex.unlock mu;
    r
  in
  let cfg =
    Gen.domain_config (Random.State.make [| seed; 9 |]) ~nics:(m.Stack.m_virt = "test") ~max_vcpus:1
      ~n_disks:8 name
  in
  let d = ok "probe define" (Domain.define_xml a (Vmm.Domxml.to_xml ~virt_type:m.Stack.m_virt cfg)) in
  let before = snapshot st admins in
  let lags = ref [] and deltas = ref [] in
  let core name f = ignore (ok ("probe " ^ name) (span b ("core." ^ name) f)) in
  let write name f =
    let size0 = Persist.Media.size m.Stack.m_journal in
    core name f;
    deltas := (Persist.Media.size m.Stack.m_journal - size0) :: !deltas
  in
  for round = 1 to 10 do
    write "set_autostart" (fun () -> Domain.set_autostart d true);
    core "get_autostart" (fun () -> Domain.get_autostart d);
    write "set_autostart" (fun () -> Domain.set_autostart d false);
    core "get_info" (fun () -> Domain.get_info d);
    core "xml_desc" (fun () -> Domain.xml_desc d);
    if round mod 2 = 0 then core "list_all_domains" (fun () -> Connect.list_all_domains a);
    List.iter
      (fun (call, f, lc) ->
        let t0 = now () in
        write call f;
        match await lc t0 with Some l -> lags := l :: !lags | None -> ())
      [
        ("create", (fun () -> Domain.create d), Events.Ev_started);
        ("destroy", (fun () -> Domain.destroy d), Events.Ev_stopped);
      ]
  done;
  let after = snapshot st admins in
  ignore (Domain.undefine d);
  Connect.close a;
  Connect.close watcher;
  { p_writes = List.length !deltas; p_lags = !lags; p_journal_deltas = !deltas; p_before = before; p_after = after }

(* ---- raw RPC replay ------------------------------------------------- *)

type rpc = {
  rx_per_op : float;
  tx_per_op : float;
  bodies : (Rp.procedure * string) list;  (** one captured reply per procedure *)
  op_replies : string list;  (** every reply body of the replayed operations *)
}

let proc_label p =
  match p with
  | Rp.Proc_dom_get_info -> "dom_get_info"
  | Rp.Proc_dom_get_xml -> "dom_get_xml"
  | Rp.Proc_dom_list_all -> "dom_list_all"
  | Rp.Proc_dom_get_autostart -> "dom_get_autostart"
  | Rp.Proc_dom_set_autostart -> "dom_set_autostart"
  | p -> string_of_int (Rp.proc_to_int p)

let raw_client (m : Stack.member) =
  let c =
    ok "raw connect"
      (Rpc_client.connect
         ~address:(Daemon.mgmt_address m.Stack.m_daemon)
         ~kind:m.Stack.m_kind ~program:Rp.program ~version:Rp.version ())
  in
  ignore
    (ok "raw open"
       (Rpc_client.call c ~procedure:(Rp.proc_to_int Rp.Proc_open) ~body:(Rp.enc_string_body m.Stack.m_direct) ()));
  c

let rpc_replay b (st : Stack.t) =
  let clients = Array.of_list (List.map raw_client st.Stack.members) in
  let call mi proc body =
    span b ("rpc_client.call." ^ proc_label proc) (fun () ->
        ok "raw call" (Rpc_client.call clients.(mi) ~procedure:(Rp.proc_to_int proc) ~body ()))
  in
  let bodies = Hashtbl.create 8 and replies = ref [] in
  let keep proc body = Hashtbl.replace bodies proc body in
  let names = st.Stack.sample_names 100 in
  (* Ten replays of an operation that lists whole nodes are enough. *)
  let lists =
    List.exists (fun (_, p, _) -> p = Rp.Proc_dom_list_all) (st.Stack.wire_calls (List.hd names))
  in
  let names = if lists then List.filteri (fun i _ -> i < 10) names else names in
  let bytes () =
    Array.fold_left (fun (rx, tx) c -> (rx + Rpc_client.bytes_rx c, tx + Rpc_client.bytes_tx c)) (0, 0) clients
  in
  let rx0, tx0 = bytes () in
  List.iter
    (fun name ->
      List.iter
        (fun (mi, proc, body) ->
          let r = call mi proc body in
          replies := r :: !replies;
          keep proc r)
        (st.Stack.wire_calls name))
    names;
  let rx1, tx1 = bytes () in
  let n = float_of_int (List.length names) in
  (* Round-trip times of the reads the workload's own loop may not make. *)
  List.iter
    (fun name ->
      let body = Rp.enc_string_body name in
      keep Rp.Proc_dom_get_info (call 0 Rp.Proc_dom_get_info body);
      keep Rp.Proc_dom_get_xml (call 0 Rp.Proc_dom_get_xml body))
    (st.Stack.sample_names 50);
  for _ = 1 to 5 do
    keep Rp.Proc_dom_list_all (call 0 Rp.Proc_dom_list_all "")
  done;
  Array.iter Rpc_client.close clients;
  {
    rx_per_op = float_of_int (rx1 - rx0) /. n;
    tx_per_op = float_of_int (tx1 - tx0) /. n;
    bodies = Hashtbl.fold (fun p body acc -> (p, body) :: acc) bodies [];
    op_replies = !replies;
  }

(* ---- direct driver ------------------------------------------------- *)

let drivers_replay b (st : Stack.t) =
  let m = first_member st in
  let conn = ok "direct open" (Connect.open_uri m.Stack.m_direct) in
  let doms =
    Array.of_list
      (List.map (fun name -> ok "direct lookup" (Domain.lookup_by_name conn name)) (st.Stack.sample_names 50))
  in
  (* In-process calls take microseconds: time batches cycling over the
     sampled domains. *)
  let each name f =
    let i = ref 0 in
    batches b name (fun () ->
        incr i;
        ok name (f doms.(!i mod Array.length doms)))
  in
  each "drivers.get_info" Domain.get_info;
  each "drivers.xml_desc" Domain.xml_desc;
  each "drivers.get_autostart" Domain.get_autostart;
  let flags = Array.map (fun d -> ok "direct get_autostart" (Domain.get_autostart d)) doms in
  let i = ref 0 in
  (* A write that leaves the flag as it was. *)
  batches b "drivers.write" (fun () ->
      incr i;
      let k = !i mod Array.length doms in
      ok "direct set_autostart" (Domain.set_autostart doms.(k) flags.(k)));
  batches b "drivers.list_all_domains" ~count:5 (fun () -> ok "direct list" (Connect.list_all_domains conn));
  Connect.close conn

(* ---- codec and TLS ------------------------------------------------- *)

let codec_replay b (r : rpc) =
  let body p = List.assoc p r.bodies in
  let info = body Rp.Proc_dom_get_info
  and xml = body Rp.Proc_dom_get_xml
  and list = body Rp.Proc_dom_list_all in
  let di = Rp.dec_domain_info info and x = Rp.dec_string_body xml and l = Rp.dec_domain_record_list list in
  batches b "protocol.dec.dom_get_info" (fun () -> Rp.dec_domain_info info);
  batches b "protocol.dec.dom_get_xml" (fun () -> Rp.dec_string_body xml);
  batches b "protocol.dec.dom_list_all" (fun () -> Rp.dec_domain_record_list list);
  batches b "protocol.enc.dom_get_info" (fun () -> Rp.enc_domain_info di);
  batches b "protocol.enc.dom_get_xml" (fun () -> Rp.enc_string_body x);
  batches b "protocol.enc.dom_list_all" (fun () -> Rp.enc_domain_record_list l)

(* Seal then open every captured reply, in order, on one session pair;
   microseconds per KiB for each direction. *)
let tls_replay b (r : rpc) =
  let kib = float_of_int (List.fold_left (fun acc s -> acc + String.length s) 0 r.op_replies) /. 1024. in
  let seal = ref [] and open_ = ref [] in
  for _ = 1 to 5 do
    let client, server = Ovnet.Tlslike.handshake_pair () in
    let t0 = now () in
    let sealed = List.map (Ovnet.Tlslike.seal server) r.op_replies in
    let t1 = now () in
    List.iter (fun s -> ignore (Ovnet.Tlslike.open_ client s)) sealed;
    let t2 = now () in
    Trace.record b "transport.tls_seal" t0 t1;
    Trace.record b "transport.tls_open" t1 t2;
    seal := (t1 -. t0) *. 1e6 /. kib :: !seal;
    open_ := (t2 -. t1) *. 1e6 /. kib :: !open_
  done;
  (Trace.median !seal, Trace.median !open_)

(* ---- fleet --------------------------------------------------------- *)

type fleet = {
  list_ms : float;
  slowest_member_ms : float;
  members_sum_ms : float;
  member0_ms : float;
  sub_errors : int;
}

let fleet_replay b (st : Stack.t) =
  let name = "pb-peel-fleet" in
  ignore (Fleet.create ~name ~members:(List.map (fun m -> (m.Stack.m_name, m.Stack.m_remote)) st.Stack.members) ());
  let conn = ok "peel fleet open" (Connect.open_uri ("fleet:///" ^ name)) in
  let timed label c =
    for _ = 1 to 5 do
      ignore (ok "peel list" (span b label (fun () -> Connect.list_all_domains c)))
    done;
    Trace.median (Trace.durations b.Trace.spans label) *. 1000.
  in
  let list_ms = timed "fleet.list" conn in
  let sub_errors =
    match Fleet.conn_stats (ok "fleet ops" (Connect.ops conn)) with
    | Some s -> s.Fleet.st_sub_errors
    | None -> 0
  in
  Connect.close conn;
  Fleet.dissolve name;
  let per_member =
    List.map
      (fun m ->
        let c = ok "member open" (Connect.open_uri m.Stack.m_remote) in
        let ms = timed ("fleet.member." ^ m.Stack.m_name) c in
        Connect.close c;
        ms)
      st.Stack.members
  in
  {
    list_ms;
    slowest_member_ms = List.fold_left Float.max 0. per_member;
    members_sum_ms = List.fold_left ( +. ) 0. per_member;
    member0_ms = List.hd per_member;
    sub_errors;
  }

(* ---- hvsim --------------------------------------------------------- *)

(* QMP on the first member's emulator processes; a node without any
   (a test-driver node, or churn with every guest stopped) gets one
   probe guest on a scratch QEMU node. *)
let qmp_ok = function Ok v -> v | Error e -> failwith ("qmp: " ^ e)

let hvsim_replay b (st : Stack.t) =
  let node = (first_member st).Stack.m_node in
  let procs, cleanup =
    match Hvsim.Qemu_proc.running_on node with
    | _ :: _ as l -> (l, fun () -> ())
    | [] ->
      let scratch = "pb-qmp" in
      let conn = ok "qmp node" (Connect.open_uri (Printf.sprintf "qemu://%s/system" scratch)) in
      let cfg = Vm_config.make ~memory_kib:(8 * 1024) ~disks:[] ~nics:[] "pb-qmp" in
      let d = ok "qmp define" (Domain.define_xml conn (Vmm.Domxml.to_xml ~virt_type:"kvm" cfg)) in
      ok "qmp start" (Domain.create d);
      ( Hvsim.Qemu_proc.running_on scratch,
        fun () ->
          ignore (Domain.destroy d);
          ignore (Domain.undefine d);
          Connect.close conn )
  in
  let procs = Array.of_list (List.map snd procs) in
  if Array.length procs = 0 then failwith "hvsim: no emulator process to query";
  let i = ref 0 in
  batches b "hvsim.qmp" (fun () ->
      incr i;
      qmp_ok (Hvsim.Qemu_proc.qmp procs.(!i mod Array.length procs) ~cmd:"query-status" ()));
  cleanup ()

(* ---- persist ------------------------------------------------------- *)

(* Appends to a scratch journal grown to the first member's final
   journal size, with a define record of one of its domains. *)
let persist_replay b (st : Stack.t) =
  let m = first_member st in
  let record = "D" ^ Vmm.Domxml.to_xml ~virt_type:"persist" m.Stack.m_domains.(0) in
  let path = "/var/lib/ovirt/perfbench/peel.journal" in
  let j, _ = Persist.Journal.open_ path in
  let n = Persist.Media.size m.Stack.m_journal / String.length (Persist.Journal.encode_record record) in
  Persist.Journal.rewrite j (List.init (max 1 n) (fun _ -> record));
  for _ = 1 to 20 do
    span b "persist.append" (fun () -> Persist.Journal.append j record)
  done;
  Persist.Media.remove path
