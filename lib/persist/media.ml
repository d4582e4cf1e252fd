(* Simulated durable medium: a process-global path -> bytes table.

   Everything else in this repository that must survive a simulated
   daemon crash lives in a process-global table (Netsim addresses,
   Qemu_proc process lists, ...); the "disk" is no different.  Files
   written here outlive `Drvnode.reset_nodes` and `Daemon.kill`, which
   is exactly the property the journal needs.

   Crash-point injection: a per-path *write limit* caps how many bytes
   the medium will ever persist for that path.  Writes and appends
   beyond the limit are silently cut, modelling a torn write followed by a crash —
   the writer believes the append succeeded, the disk kept a prefix.

   An image is a growable buffer, so an append costs its own bytes
   (amortised), not a copy of the whole image; [read] hands out an
   immutable copy. *)

type file = { mutable data : Buffer.t; mutable write_limit : int option }

let mutex = Mutex.create ()
let files : (string, file) Hashtbl.t = Hashtbl.create 32

let with_lock f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let get_file path =
  match Hashtbl.find_opt files path with
  | Some f -> f
  | None ->
    let f = { data = Buffer.create 0; write_limit = None } in
    Hashtbl.add files path f;
    f

(* Bytes of [s] that fit under the write limit of an image already
   [len] bytes long. *)
let clip f ~len s =
  match f.write_limit with
  | None -> s
  | Some limit ->
    let room = max 0 (limit - len) in
    if room >= String.length s then s else String.sub s 0 room

let read path =
  with_lock (fun () ->
      Option.map (fun f -> Buffer.contents f.data) (Hashtbl.find_opt files path))

let exists path = with_lock (fun () -> Hashtbl.mem files path)

let size path =
  with_lock (fun () ->
      match Hashtbl.find_opt files path with
      | Some f -> Buffer.length f.data
      | None -> 0)

(* A fresh buffer of exactly the new size: the old image's capacity is
   released, not kept around for a store that compaction just shrank. *)
let write path s =
  with_lock (fun () ->
      let f = get_file path in
      let s = clip f ~len:0 s in
      f.data <- Buffer.create (String.length s);
      Buffer.add_string f.data s)

let append path s =
  with_lock (fun () ->
      let f = get_file path in
      Buffer.add_string f.data (clip f ~len:(Buffer.length f.data) s))

let truncate path n =
  with_lock (fun () ->
      match Hashtbl.find_opt files path with
      | Some f when Buffer.length f.data > n -> Buffer.truncate f.data (max 0 n)
      | Some _ | None -> ())

let remove path = with_lock (fun () -> Hashtbl.remove files path)

let list ~prefix =
  with_lock (fun () ->
      Hashtbl.fold
        (fun path _ acc ->
          if String.length path >= String.length prefix
             && String.sub path 0 (String.length prefix) = prefix
          then path :: acc
          else acc)
        files []
      |> List.sort compare)

let set_write_limit path limit =
  with_lock (fun () ->
      let f = get_file path in
      f.write_limit <- limit)

let reset () = with_lock (fun () -> Hashtbl.reset files)
