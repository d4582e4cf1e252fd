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

   An image is a growable byte array, so an append costs its own bytes
   (amortised), not a copy of the whole image; [read] hands out an
   immutable copy.  The array lives outside the OCaml heap: an image is
   bulk bytes the collector never needs to scan, and the major heap
   carries about twice its live size again as headroom, so a journal
   kept there would cost the process that headroom too. *)

type image = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type file = { mutable data : image; mutable len : int; mutable write_limit : int option }

let create_image n = Bigarray.Array1.create Bigarray.char Bigarray.c_layout n

let mutex = Mutex.create ()
let files : (string, file) Hashtbl.t = Hashtbl.create 32

let with_lock f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let get_file path =
  match Hashtbl.find_opt files path with
  | Some f -> f
  | None ->
    let f = { data = create_image 0; len = 0; write_limit = None } in
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

let contents f =
  let b = Bytes.create f.len in
  for i = 0 to f.len - 1 do
    Bytes.unsafe_set b i (Bigarray.Array1.unsafe_get f.data i)
  done;
  Bytes.unsafe_to_string b

(* Write [s] at the end of the image, growing it by doubling. *)
let add_string f s =
  let n = String.length s in
  let cap = Bigarray.Array1.dim f.data in
  if f.len + n > cap then begin
    let data = create_image (max (f.len + n) (2 * cap)) in
    Bigarray.Array1.(blit (sub f.data 0 f.len) (sub data 0 f.len));
    f.data <- data
  end;
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set f.data (f.len + i) (String.unsafe_get s i)
  done;
  f.len <- f.len + n

let read path =
  with_lock (fun () -> Option.map contents (Hashtbl.find_opt files path))

let exists path = with_lock (fun () -> Hashtbl.mem files path)

let size path =
  with_lock (fun () ->
      match Hashtbl.find_opt files path with
      | Some f -> f.len
      | None -> 0)

(* A fresh image of exactly the new size: the old image's capacity is
   released, not kept around for a store that compaction just shrank. *)
let write path s =
  with_lock (fun () ->
      let f = get_file path in
      let s = clip f ~len:0 s in
      f.data <- create_image (String.length s);
      f.len <- 0;
      add_string f s)

let append path s =
  with_lock (fun () ->
      let f = get_file path in
      add_string f (clip f ~len:f.len s))

let truncate path n =
  with_lock (fun () ->
      match Hashtbl.find_opt files path with
      | Some f when f.len > n -> f.len <- max 0 n
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
