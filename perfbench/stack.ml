(* The three workloads' stacks: daemons, seeded nodes and client
   connections, all in this process, plus the one operation each client
   repeats in its closed loop.  Only the client threads are load. *)

module Connect = Ovirt.Connect
module Domain = Ovirt.Domain
module Daemon = Ovirt.Daemon
module Daemon_config = Ovirt.Daemon_config
module Events = Ovirt.Events
module Fleet = Ovirt.Fleet
module Vm_config = Vmm.Vm_config
module Vm_state = Vmm.Vm_state
module Rp = Protocol.Remote_protocol

(* Pinned so that the OVIRT_IO_MODEL / OVIRT_REPLY_CACHE environment
   defaults cannot change what is measured. *)
let daemon_config =
  {
    Daemon_config.default with
    Daemon_config.io_model = Daemon_config.Io_reactor;
    reply_cache = 1;
    reply_cache_entries = 512;
    log_outputs = [ { Vlog.min_priority = Vlog.Debug; sink = Vlog.Null } ];
  }

let ok what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: %s" what (Ovirt.Verror.to_string e))

type member = {
  m_name : string;
  m_daemon : Daemon.t;
  m_node : string;
  m_direct : string;  (** the node's in-process driver URI (no daemon) *)
  m_remote : string;  (** the node through its daemon, as the workload reaches it *)
  m_default : string;  (** the same with default URI parameters (events and cache on) *)
  m_virt : string;  (** the XML virt type its driver renders *)
  m_kind : Ovnet.Transport.kind;
  m_journal : string;  (** Persist.Media path of the node's domain journal *)
  m_domains : Vm_config.t array;  (** seeded domains *)
}

type t = {
  members : member list;
  n_clients : int;
  op : client:int -> k:int -> tr:Trace.buf option -> op_id:int -> (int, string) result;
      (** the client's [k]-th operation; [Ok writes] counts its write calls *)
  final_check : executed:int array -> (unit, string) result;
  lag_samples : unit -> float list;
      (** write-to-event delays seen on the other client's connection *)
  wire_calls : string -> (int * Rp.procedure * string) list;
      (** the RPCs one operation on this domain (of the first member)
          puts on the wire with every cache off: (member, proc, body) *)
  sample_names : int -> string list;
      (** the first member's domains the first client's first operations touch *)
  reads_per_op : int;  (** remote-driver reads one operation asks for *)
  close : unit -> unit;
  seed_s : float;
  open_s : float;
}

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let journal_path ~driver node = Printf.sprintf "/var/lib/ovirt/%s/%s.journal" driver node

(* Start a daemon and seed its node through the direct driver. *)
let seed_member ~name ~daemon ~node ~direct ~remote ~default ~kind ~driver ~virt_type domains =
  let d = Daemon.start ~name:daemon ~config:daemon_config () in
  let conn = ok "open direct" (Connect.open_uri direct) in
  Array.iter
    (fun cfg -> ignore (ok "seed define" (Domain.define_xml conn (Vmm.Domxml.to_xml ~virt_type cfg))))
    domains;
  Connect.close conn;
  let journal = journal_path ~driver node in
  if not (Persist.Media.exists journal) then failwith ("no domain journal at " ^ journal);
  { m_name = name; m_daemon = d; m_node = node; m_direct = direct; m_remote = remote;
    m_default = default; m_virt = virt_type; m_kind = kind; m_journal = journal; m_domains = domains }

let direct_listing m =
  let conn = ok "open direct" (Connect.open_uri m.m_direct) in
  Fun.protect ~finally:(fun () -> Connect.close conn) (fun () -> Connect.list_all_domains conn)

let result_msg = function Ok v -> Ok v | Error e -> Error (Ovirt.Verror.to_string e)
let ( let* ) = Result.bind

let call tr ~parent ~op name f = result_msg (Trace.span tr ~parent ~op ("core." ^ name) f)

(* Each operation is a parent span; its API calls are children. *)
let op_span tr ~op_id f =
  match tr with
  | None -> f 0
  | Some b ->
    let id = Trace.fresh_id b in
    let t0 = Unix.gettimeofday () in
    let r = f id in
    Trace.record b ~id ~op:op_id "op" t0 (Unix.gettimeofday ());
    r

let expected_of cfg state autostart = { Check.e_cfg = cfg; e_state = state; e_autostart = autostart }
let seeded_final m = List.map (fun c -> expected_of c Vm_state.Shutoff false) (Array.to_list m.m_domains)

let check_member_final m =
  let* records = result_msg (direct_listing m) in
  Check.final_states ~extra:1 (seeded_final m) records

(* ---- read-small ---------------------------------------------------- *)

let read_small ~seed ~rep =
  let rng = Random.State.make [| seed; 1 |] in
  let n_domains = 1000 and n_clients = 2 in
  let domains = Gen.domains rng ~nics:true ~max_vcpus:4 ~prefix:"rs" n_domains in
  let xmls = Array.map (Vmm.Domxml.to_xml ~virt_type:"test") domains in
  let seqs = Array.init n_clients (fun _ -> Gen.read_sequence rng ~n_domains ~length:65536) in
  let node = Printf.sprintf "pb-rs-n%d" rep and daemon = Printf.sprintf "pb-rs-d%d" rep in
  let default = Printf.sprintf "test+unix://%s/?daemon=%s" node daemon in
  let remote = default ^ "&cache=0" in
  let m, seed_s =
    time (fun () ->
        seed_member ~name:"m0" ~daemon ~node ~direct:(Printf.sprintf "test://%s/" node) ~remote ~default
          ~kind:Ovnet.Transport.Unix_sock ~driver:"test" ~virt_type:"test" domains)
  in
  let (conns, handles), open_s =
    time (fun () ->
        let conns = Array.init n_clients (fun _ -> ok "open client" (Connect.open_uri remote)) in
        let handles =
          Array.map
            (fun c ->
              Array.map (fun cfg -> ok "lookup" (Domain.lookup_by_name c cfg.Vm_config.name)) domains)
            conns
        in
        (conns, handles))
  in
  let op ~client ~k ~tr ~op_id =
    let i = seqs.(client).(k land 65535) in
    let d = handles.(client).(i) and cfg = domains.(i) in
    let* info, xml =
      op_span tr ~op_id (fun parent ->
          let* info = call tr ~parent ~op:op_id "get_info" (fun () -> Domain.get_info d) in
          let* xml = call tr ~parent ~op:op_id "xml_desc" (fun () -> Domain.xml_desc d) in
          Ok (info, xml))
    in
    let* () = Check.info ~cfg ~state:Vm_state.Shutoff info in
    let* () = Check.xml ~cfg ~expected:xmls.(i) xml in
    Ok 0
  in
  {
    members = [ m ];
    n_clients;
    op;
    final_check = (fun ~executed:_ -> check_member_final m);
    lag_samples = (fun () -> []);
    wire_calls =
      (fun name ->
        let b = Rp.enc_string_body name in
        [ (0, Rp.Proc_dom_get_info, b); (0, Rp.Proc_dom_get_xml, b) ]);
    sample_names =
      (fun n -> List.init (min n 65536) (fun k -> domains.(seqs.(0).(k)).Vm_config.name));
    reads_per_op = 2;
    close =
      (fun () ->
        Array.iter Connect.close conns;
        Daemon.stop m.m_daemon);
    seed_s;
    open_s;
  }

(* ---- fleet-inventory ----------------------------------------------- *)

let fleet_inventory ~seed ~rep =
  let rng = Random.State.make [| seed; 2 |] in
  let n_members = 4 and per_member = 250 in
  let fleet = Printf.sprintf "pb-fleet%d" rep in
  let plan =
    List.init n_members (fun i ->
        (i, Gen.domains rng ~nics:true ~max_vcpus:4 ~prefix:(Printf.sprintf "fi%d" i) per_member))
  in
  let must_contain =
    Array.map (fun c -> c.Vm_config.uuid) (Array.concat (List.map snd plan))
  in
  let members, seed_s =
    time (fun () ->
        List.map
          (fun (i, domains) ->
            let node = Printf.sprintf "pb-fi-n%d-%d" rep i
            and daemon = Printf.sprintf "pb-fi-d%d-%d" rep i in
            let remote = Printf.sprintf "test+tls://%s/?daemon=%s" node daemon in
            seed_member ~name:(Printf.sprintf "m%d" i) ~daemon ~node
              ~direct:(Printf.sprintf "test://%s/" node) ~remote ~default:remote
              ~kind:Ovnet.Transport.Tls ~driver:"test" ~virt_type:"test" domains)
          plan)
  in
  (* Each test node also holds the driver's built-in domain. *)
  let rows = n_members * (per_member + 1) in
  let conn, open_s =
    time (fun () ->
        ignore (Fleet.create ~name:fleet ~members:(List.map (fun m -> (m.m_name, m.m_remote)) members) ());
        ok "open fleet" (Connect.open_uri ("fleet:///" ^ fleet)))
  in
  let ops = ok "fleet ops" (Connect.ops conn) in
  let sub_errors () = match Fleet.conn_stats ops with Some s -> s.Fleet.st_sub_errors | None -> 0 in
  let op ~client:_ ~k:_ ~tr ~op_id =
    let before = sub_errors () in
    let* records =
      op_span tr ~op_id (fun parent ->
          call tr ~parent ~op:op_id "list_all_domains" (fun () -> Connect.list_all_domains conn))
    in
    let* () = Check.listing ~rows ~must_contain ~shard_errors:(sub_errors () - before) records in
    Ok 0
  in
  {
    members;
    n_clients = 1;
    op;
    final_check =
      (fun ~executed:_ ->
        List.fold_left (fun acc m -> let* () = acc in check_member_final m) (Ok ()) members);
    lag_samples = (fun () -> []);
    wire_calls = (fun _ -> List.mapi (fun i _ -> (i, Rp.Proc_dom_list_all, "")) members);
    sample_names =
      (fun n ->
        let ds = (List.hd members).m_domains in
        List.init (min n (Array.length ds)) (fun i -> ds.(i).Vm_config.name));
    reads_per_op = n_members;
    close =
      (fun () ->
        Connect.close conn;
        Fleet.dissolve fleet;
        List.iter (fun m -> Daemon.stop m.m_daemon) members);
    seed_s;
    open_s;
  }

(* ---- lifecycle-churn ----------------------------------------------- *)

(* Write-to-event delay: a client stamps each event-producing write of
   its own domain; the other client's subscription takes the stamp when
   the event arrives. *)
type lag = { mu : Mutex.t; pending : (string, float) Hashtbl.t; mutable samples : float list }

let lifecycle_churn ~seed ~rep ~track_lag =
  let rng = Random.State.make [| seed; 3 |] in
  let n_clients = 2 and per_client = 20 in
  let domains =
    Array.init n_clients (fun c -> Gen.domains rng ~nics:false ~max_vcpus:1 ~prefix:(Printf.sprintf "ch%d" c) per_client)
  in
  let xmls = Array.map (Array.map (Vmm.Domxml.to_xml ~virt_type:"kvm")) domains in
  let seqs = Array.init n_clients (fun _ -> Gen.churn_sequence rng ~n_domains:per_client ~rounds:8) in
  let node = Printf.sprintf "pb-ch-n%d" rep and daemon = Printf.sprintf "pb-ch-d%d" rep in
  let remote = Printf.sprintf "qemu+unix://%s/system?daemon=%s" node daemon in
  let m, seed_s =
    time (fun () ->
        seed_member ~name:"m0" ~daemon ~node ~direct:(Printf.sprintf "qemu://%s/system" node) ~remote
          ~default:remote
          ~kind:Ovnet.Transport.Unix_sock ~driver:"qemu" ~virt_type:"kvm"
          (Array.concat (Array.to_list domains)))
  in
  let lag = { mu = Mutex.create (); pending = Hashtbl.create 64; samples = [] } in
  let owner = Hashtbl.create 64 in
  Array.iteri (fun c ds -> Array.iter (fun cfg -> Hashtbl.replace owner cfg.Vm_config.name c) ds) domains;
  let (conns, handles), open_s =
    time (fun () ->
        let conns = Array.init n_clients (fun _ -> ok "open client" (Connect.open_uri remote)) in
        let handles =
          Array.mapi
            (fun c conn ->
              Array.map (fun cfg -> ok "lookup" (Domain.lookup_by_name conn cfg.Vm_config.name)) domains.(c))
            conns
        in
        (conns, handles))
  in
  if track_lag then
    Array.iteri
      (fun c conn ->
        ignore
          (ok "subscribe"
             (Connect.subscribe_events conn (fun ev ->
                  match Hashtbl.find_opt owner ev.Events.domain_name with
                  | Some o when o <> c ->
                    let now = Unix.gettimeofday () in
                    Mutex.lock lag.mu;
                    (match Hashtbl.find_opt lag.pending ev.Events.domain_name with
                     | Some t0 ->
                       Hashtbl.remove lag.pending ev.Events.domain_name;
                       lag.samples <- (now -. t0) :: lag.samples
                     | None -> ());
                    Mutex.unlock lag.mu
                  | _ -> ()))))
      conns;
  let stamp name =
    if track_lag then begin
      Mutex.lock lag.mu;
      Hashtbl.replace lag.pending name (Unix.gettimeofday ());
      Mutex.unlock lag.mu
    end
  in
  let op ~client ~k ~tr ~op_id =
    let seq = seqs.(client) in
    let o = seq.(k mod Array.length seq) in
      let cfg = domains.(client).(o.Gen.c_dom) in
      let name = cfg.Vm_config.name in
      let d = handles.(client).(o.Gen.c_dom) in
      let* info, autostart, xml, writes =
        op_span tr ~op_id (fun parent ->
            let call name f = call tr ~parent ~op:op_id name f in
            if o.Gen.c_write <> Gen.Flip_autostart then stamp name;
            let* writes =
              match o.Gen.c_write with
              | Gen.Start -> Result.map (fun () -> 1) (call "create" (fun () -> Domain.create d))
              | Gen.Suspend -> Result.map (fun () -> 1) (call "suspend" (fun () -> Domain.suspend d))
              | Gen.Resume -> Result.map (fun () -> 1) (call "resume" (fun () -> Domain.resume d))
              | Gen.Destroy -> Result.map (fun () -> 1) (call "destroy" (fun () -> Domain.destroy d))
              | Gen.Flip_autostart ->
                Result.map (fun () -> 1)
                  (call "set_autostart" (fun () -> Domain.set_autostart d o.Gen.c_flag))
              | Gen.Redefine ->
                let* () = call "undefine" (fun () -> Domain.undefine d) in
                let* d' =
                  call "define_xml" (fun () ->
                      Domain.define_xml conns.(client) xmls.(client).(o.Gen.c_dom))
                in
                handles.(client).(o.Gen.c_dom) <- d';
                Ok 2
            in
            let d = handles.(client).(o.Gen.c_dom) in
            let* info = call "get_info" (fun () -> Domain.get_info d) in
            let* autostart = call "get_autostart" (fun () -> Domain.get_autostart d) in
            let* xml = call "xml_desc" (fun () -> Domain.xml_desc d) in
            Ok (info, autostart, xml, writes))
      in
      let* () = Check.info ~cfg ~state:o.Gen.c_state info in
      let* () = Check.autostart ~name ~expected:o.Gen.c_autostart autostart in
      let* () = Check.xml ~cfg ~expected:xmls.(client).(o.Gen.c_dom) xml in
      Ok writes
  in
  let final_check ~executed =
    let expected =
      List.concat
        (List.init n_clients (fun c ->
             let models = Gen.models_after seqs.(c) ~n_domains:per_client ~executed:executed.(c) in
             List.init per_client (fun i ->
                 expected_of domains.(c).(i) models.(i).Gen.m_state models.(i).Gen.m_autostart)))
    in
    let* records = result_msg (direct_listing m) in
    Check.final_states ~extra:0 expected records
  in
  let direct = lazy (ok "open direct" (Connect.open_uri m.m_direct)) in
  {
    members = [ m ];
    n_clients;
    op;
    final_check;
    lag_samples =
      (fun () ->
        Mutex.lock lag.mu;
        let s = lag.samples in
        Mutex.unlock lag.mu;
        s);
    wire_calls =
      (fun name ->
        let flag =
          match Domain.lookup_by_name (Lazy.force direct) name with
          | Ok d -> Result.value (Domain.get_autostart d) ~default:false
          | Error _ -> false
        in
        let b = Rp.enc_string_body name in
        [
          (0, Rp.Proc_dom_set_autostart, Rp.enc_name_and_bool name flag);
          (0, Rp.Proc_dom_get_info, b);
          (0, Rp.Proc_dom_get_autostart, b);
          (0, Rp.Proc_dom_get_xml, b);
        ]);
    sample_names =
      (fun n ->
        List.init (min n (Array.length seqs.(0))) (fun k ->
            domains.(0).(seqs.(0).(k).Gen.c_dom).Vm_config.name));
    reads_per_op = 3;
    close =
      (fun () ->
        Array.iter Connect.close conns;
        if Lazy.is_val direct then Connect.close (Lazy.force direct);
        Daemon.stop m.m_daemon);
    seed_s;
    open_s;
  }
