(* Seeded input generation.  Everything a workload feeds the stack —
   domain configurations, the per-client operation sequences and the
   answer each operation must produce — is made here from the workload
   seed before any timing starts.  The same seed gives the same inputs. *)

module Vm_config = Vmm.Vm_config
module Vm_state = Vmm.Vm_state

let uuid_of rng =
  let hex n = String.init n (fun _ -> "0123456789abcdef".[Random.State.int rng 16]) in
  let variant = "89ab".[Random.State.int rng 4] in
  let text =
    Printf.sprintf "%s-%s-4%s-%c%s-%s" (hex 8) (hex 4) (hex 3) variant (hex 3) (hex 12)
  in
  match Vmm.Uuid.of_string text with Ok u -> u | Error e -> failwith e

let mac_of rng =
  Printf.sprintf "52:54:00:%02x:%02x:%02x" (Random.State.int rng 256)
    (Random.State.int rng 256) (Random.State.int rng 256)

(* A domain with 0-16 disks (so its XML ranges from a few hundred bytes
   to several KiB), 8-64 MiB and 1-[max_vcpus] vcpus.  [nics] is off for
   QEMU domains: starting one attaches each NIC to a node network. *)
let domain_config rng ~nics ~max_vcpus ~n_disks name =
  let disks =
    List.init n_disks (fun i ->
        {
          Vm_config.source_path = Printf.sprintf "/var/lib/ovirt/images/%s-%d.qcow2" name i;
          target_dev = Printf.sprintf "vd%c" (Char.chr (Char.code 'a' + i));
          disk_format = (if Random.State.bool rng then "qcow2" else "raw");
          readonly = Random.State.int rng 4 = 0;
        })
  in
  let nics =
    if nics then [ { Vm_config.network = "default"; mac = mac_of rng; nic_model = "virtio" } ]
    else []
  in
  let features = if Random.State.bool rng then [ "acpi"; "apic" ] else [ "acpi" ] in
  Vm_config.make ~uuid:(uuid_of rng)
    ~memory_kib:((8 + Random.State.int rng 57) * 1024)
    ~vcpus:(1 + Random.State.int rng max_vcpus)
    ~disks ~nics ~features name

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* [n] configs with distinct UUIDs.  Disk counts are a seeded shuffle
   of 0, 1, ..., 16, 0, 1, ...: which domain is large changes with the
   seed, the total XML volume does not, so seeds differ in inputs but
   not in the amount of work. *)
let domains rng ~nics ~max_vcpus ~prefix n =
  let seen = Hashtbl.create n in
  let disks = Array.init n (fun i -> i mod 17) in
  shuffle rng disks;
  Array.init n (fun i ->
      let rec fresh () =
        let cfg =
          domain_config rng ~nics ~max_vcpus ~n_disks:disks.(i) (Printf.sprintf "%s-%04d" prefix i)
        in
        if Hashtbl.mem seen cfg.Vm_config.uuid then fresh ()
        else (
          Hashtbl.add seen cfg.Vm_config.uuid ();
          cfg)
      in
      fresh ())

(* read-small: a cyclic sequence of domain indices per client. *)
let read_sequence rng ~n_domains ~length = Array.init length (fun _ -> Random.State.int rng n_domains)

(* ---- lifecycle-churn: writes and the state model ------------------- *)

type write = Start | Suspend | Resume | Flip_autostart | Destroy | Redefine

(* Each domain's writes: three lifecycle cycles, then an undefine and
   define of the stopped domain.  The schedule leaves a domain as it
   found it (stopped, autostart off), so a sequence in which every
   domain appears a multiple of [period] times can repeat forever. *)
let schedule =
  let cycle = [ Start; Suspend; Resume; Flip_autostart; Destroy ] in
  Array.of_list (cycle @ cycle @ cycle @ [ Redefine ])

let period = Array.length schedule

type model = { mutable m_state : Vm_state.state; mutable m_autostart : bool }

let fresh_model _ = { m_state = Vm_state.Shutoff; m_autostart = false }

let apply m = function
  | Start | Resume -> m.m_state <- Vm_state.Running
  | Suspend -> m.m_state <- Vm_state.Paused
  | Destroy -> m.m_state <- Vm_state.Shutoff
  | Flip_autostart -> m.m_autostart <- not m.m_autostart
  | Redefine -> m.m_autostart <- false

(* One churn operation and the answer its follow-up reads must give. *)
type churn_op = {
  c_dom : int;  (** index into the client's own domains *)
  c_write : write;
  c_flag : bool;  (** the autostart value [Flip_autostart] sets *)
  c_state : Vm_state.state;  (** expected state after the write *)
  c_autostart : bool;  (** expected autostart after the write *)
}

(* A cyclic sequence: [rounds] schedules of each of [n_domains] domains,
   interleaved in seeded order. *)
let churn_sequence rng ~n_domains ~rounds =
  let picks = Array.init (n_domains * period * rounds) (fun i -> i mod n_domains) in
  shuffle rng picks;
  let models = Array.init n_domains fresh_model and touches = Array.make n_domains 0 in
  Array.map
    (fun d ->
      let w = schedule.(touches.(d) mod period) and m = models.(d) in
      touches.(d) <- touches.(d) + 1;
      apply m w;
      { c_dom = d; c_write = w; c_flag = m.m_autostart; c_state = m.m_state; c_autostart = m.m_autostart })
    picks

(* The model of every domain after the first [executed] operations of
   the cyclic sequence [ops]; whole passes leave every domain as it was. *)
let models_after ops ~n_domains ~executed =
  let models = Array.init n_domains fresh_model in
  for i = 0 to (executed mod Array.length ops) - 1 do
    let op = ops.(i) in
    let m = models.(op.c_dom) in
    m.m_state <- op.c_state;
    m.m_autostart <- op.c_autostart
  done;
  models
