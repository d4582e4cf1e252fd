(* In-memory spans for the traced run.  Each client thread owns a
   buffer, so recording takes no lock; buffers are merged and written
   out after the run.  A span covers [n] repetitions of the timed call
   (1 for a single call; the codec and TLS replays time batches). *)

type span = {
  id : int;
  parent : int;  (** 0 = none *)
  op : int;  (** the operation the span belongs to; 0 = peel replay *)
  name : string;
  t0 : float;
  t1 : float;
  n : int;
}

type buf = { client : int; mutable spans : span list; mutable next : int }

let create ~client = { client; spans = []; next = 1 }

(* Span ids are unique across buffers: the client number sits in the
   high bits. *)
let fresh_id b =
  let id = (b.client lsl 32) lor b.next in
  b.next <- b.next + 1;
  id

let record b ?(parent = 0) ?(op = 0) ?(n = 1) ?id name t0 t1 =
  let id = match id with Some id -> id | None -> fresh_id b in
  b.spans <- { id; parent; op; name; t0; t1; n } :: b.spans

(* Time [f] as a span when tracing ([b] is [Some]); otherwise just run it. *)
let span b ?parent ?op ?n name f =
  match b with
  | None -> f ()
  | Some b ->
    let t0 = Unix.gettimeofday () in
    let r = f () in
    record b ?parent ?op ?n name t0 (Unix.gettimeofday ());
    r

let spans bufs = List.concat_map (fun b -> b.spans) bufs

let median l = match List.sort compare l with [] -> nan | s -> List.nth s (List.length s / 2)

(* Per-repetition durations, in seconds, of every span named [name]. *)
let durations all name =
  List.filter_map
    (fun s -> if s.name = name then Some ((s.t1 -. s.t0) /. float_of_int s.n) else None)
    all

(* One JSON object per line, times in microseconds from [epoch]. *)
let dump ~path ~epoch all =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":%S,\"start_us\":%.1f,\"end_us\":%.1f,\"n\":%d}\n"
        s.id s.parent s.op s.name
        ((s.t0 -. epoch) *. 1e6)
        ((s.t1 -. epoch) *. 1e6)
        s.n)
    (List.sort (fun a b -> compare a.t0 b.t0) all);
  close_out oc
