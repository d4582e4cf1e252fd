(* Server-side reply cache: pre-framed encoded replies for hot read
   procedures, keyed by (procedure, canonical argument bytes) and stamped
   with the driver generation current when the reply was computed.  A hit
   returns the stored frame (serial word = 0; callers patch a copy) and
   skips the read lock, body decode, handler and encode entirely.

   Validity: an entry whose stamp differs from the driver's current
   generation is dead — it is removed on lookup and counted as an
   invalidation.  Proactive invalidation (the event-bus subscription in
   Remote_service) empties the cache early; the generation check is the
   correctness backstop for writes that emit no event.

   Fill numbers: every insert stamps its entry with the next number of a
   per-cache counter.  A key holds one entry, so while the entry lives
   its number names the exact frame it holds; a conditional listing
   (v1.8) asks whether the live entry still carries the number the
   client was given.

   Concurrency: one mutex per cache.  Both the receiving threads (fast
   path) and pool workers (fills) touch it, but every section is a few
   pointer moves — no allocation beyond the entry on insert, no I/O. *)

type key = int * string

type entry = {
  e_key : key;
  mutable e_gen : int;
  mutable e_fill : int;
  mutable e_frame : string;
  mutable e_prev : entry;
  mutable e_next : entry;
}

type stats = {
  hits : int;
  misses : int;
  insertions : int;
  invalidations : int;
  evictions : int;
  patched_sends : int;
  unchanged : int;
  entries : int;
  bytes : int;
}

type since = Unchanged | Changed of { frame : string; fill : int } | Absent

type t = {
  mutex : Mutex.t;
  table : (key, entry) Hashtbl.t;
  max_entries : int;
  root : entry; (* sentinel of the circular LRU list; root.next is MRU *)
  mutable hits : int;
  mutable misses : int;
  mutable insertions : int;
  mutable invalidations : int;
  mutable evictions : int;
  mutable patched_sends : int;
  mutable unchanged : int;
  mutable fills : int;  (** the last fill number handed out *)
  mutable bytes : int;
}

let create ~max_entries =
  let rec root =
    {
      e_key = (-1, "");
      e_gen = 0;
      e_fill = 0;
      e_frame = "";
      e_prev = root;
      e_next = root;
    }
  in
  {
    mutex = Mutex.create ();
    table = Hashtbl.create (2 * max 1 max_entries);
    max_entries = max 1 max_entries;
    root;
    hits = 0;
    misses = 0;
    insertions = 0;
    invalidations = 0;
    evictions = 0;
    patched_sends = 0;
    unchanged = 0;
    fills = 0;
    bytes = 0;
  }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Intrusive circular list: O(1) unlink / push-front. *)

let unlink e =
  e.e_prev.e_next <- e.e_next;
  e.e_next.e_prev <- e.e_prev;
  e.e_prev <- e;
  e.e_next <- e

let push_front t e =
  e.e_next <- t.root.e_next;
  e.e_prev <- t.root;
  t.root.e_next.e_prev <- e;
  t.root.e_next <- e

let drop t e =
  unlink e;
  Hashtbl.remove t.table e.e_key;
  t.bytes <- t.bytes - String.length e.e_frame

let find t ~proc ~args ~gen =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.table (proc, args) with
      | Some e when e.e_gen = gen ->
        t.hits <- t.hits + 1;
        unlink e;
        push_front t e;
        Some e.e_frame
      | Some e ->
        (* Stale stamp: the state moved under the entry. *)
        t.invalidations <- t.invalidations + 1;
        drop t e;
        t.misses <- t.misses + 1;
        None
      | None ->
        t.misses <- t.misses + 1;
        None)

(* A conditional listing: [fill] is the number the caller holds (0 when
   it holds none from this daemon incarnation; numbers start at 1). *)
let find_since t ~proc ~args ~gen ~fill =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.table (proc, args) with
      | Some e when e.e_gen = gen ->
        t.hits <- t.hits + 1;
        unlink e;
        push_front t e;
        if e.e_fill = fill then begin
          t.unchanged <- t.unchanged + 1;
          Unchanged
        end
        else Changed { frame = e.e_frame; fill = e.e_fill }
      | Some e ->
        t.invalidations <- t.invalidations + 1;
        drop t e;
        t.misses <- t.misses + 1;
        Absent
      | None ->
        t.misses <- t.misses + 1;
        Absent)

let insert_numbered t ~proc ~args ~gen frame =
  with_lock t (fun () ->
      let key = (proc, args) in
      t.fills <- t.fills + 1;
      let fill = t.fills in
      (match Hashtbl.find_opt t.table key with
       | Some e ->
         (* Refill of an existing key (e.g. a fill raced another fill):
            keep the newer stamp. *)
         t.bytes <- t.bytes - String.length e.e_frame + String.length frame;
         e.e_gen <- gen;
         e.e_fill <- fill;
         e.e_frame <- frame;
         unlink e;
         push_front t e
       | None ->
         if Hashtbl.length t.table >= t.max_entries then begin
           let lru = t.root.e_prev in
           if lru != t.root then begin
             drop t lru;
             t.evictions <- t.evictions + 1
           end
         end;
         let e =
           {
             e_key = key;
             e_gen = gen;
             e_fill = fill;
             e_frame = frame;
             e_prev = t.root;
             e_next = t.root;
           }
         in
         push_front t e;
         Hashtbl.add t.table key e;
         t.bytes <- t.bytes + String.length frame);
      t.insertions <- t.insertions + 1;
      fill)

let insert t ~proc ~args ~gen frame =
  ignore (insert_numbered t ~proc ~args ~gen frame)

let invalidate_all t =
  with_lock t (fun () ->
      let n = Hashtbl.length t.table in
      if n > 0 then begin
        Hashtbl.reset t.table;
        t.root.e_next <- t.root;
        t.root.e_prev <- t.root;
        t.bytes <- 0;
        t.invalidations <- t.invalidations + n
      end)

let note_patched_send t =
  with_lock t (fun () -> t.patched_sends <- t.patched_sends + 1)

let stats t =
  with_lock t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        insertions = t.insertions;
        invalidations = t.invalidations;
        evictions = t.evictions;
        patched_sends = t.patched_sends;
        unchanged = t.unchanged;
        entries = Hashtbl.length t.table;
        bytes = t.bytes;
      })
