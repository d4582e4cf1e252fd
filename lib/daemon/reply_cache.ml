(* Server-side reply cache: encoded reply bodies of the bulk listings,
   keyed by (procedure, canonical argument bytes) and stamped
   with the driver generation current when the reply was computed.  A hit
   returns the stored body, which callers frame with their own serial,
   and skips the read lock, body decode, handler and encode entirely.

   Validity: an entry whose stamp differs from the driver's current
   generation is dead — it is removed on lookup and counted as an
   invalidation.  Proactive invalidation (the event-bus subscription in
   Remote_service) empties the cache early; the generation check is the
   correctness backstop for writes that emit no event.

   Fill numbers: every insert stamps its entry with the next number of a
   per-cache counter.  A key holds one entry, so while the entry lives
   its number names the exact body it holds; a conditional listing
   (v1.8) asks whether the live entry still carries the number the
   client was given.

   Capacity: a full table drops its least recently filled entry.  The
   daemon fills only the two listings, whose argument is [unit], so a
   node's cache holds at most two keys.

   Concurrency: one mutex per cache.  Both the receiving threads (fast
   path) and pool workers (fills) touch it, but every section is a few
   field writes — no allocation beyond the entry on insert, no I/O. *)

type key = int * string

type entry = {
  e_key : key;
  mutable e_gen : int;
  mutable e_fill : int;
  mutable e_body : string;
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
  {
    mutex = Mutex.create ();
    table = Hashtbl.create 4;
    max_entries = max 1 max_entries;
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

let drop t e =
  Hashtbl.remove t.table e.e_key;
  t.bytes <- t.bytes - String.length e.e_body

(* A scan, over a table the daemon keeps at two keys or fewer. *)
let least_recently_filled t =
  Hashtbl.fold
    (fun _ e oldest ->
      match oldest with
      | Some o when o.e_fill < e.e_fill -> oldest
      | Some _ | None -> Some e)
    t.table None

(* [fill] is the number the caller holds (0 when it holds none from this
   daemon incarnation; numbers start at 1, so 0 never matches). *)
let find_since t ~proc ~args ~gen ~fill =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.table (proc, args) with
      | Some e when e.e_gen = gen ->
        t.hits <- t.hits + 1;
        if e.e_fill = fill then begin
          t.unchanged <- t.unchanged + 1;
          Unchanged
        end
        else Changed { frame = e.e_body; fill = e.e_fill }
      | Some e ->
        (* Stale stamp: the state moved under the entry. *)
        t.invalidations <- t.invalidations + 1;
        drop t e;
        t.misses <- t.misses + 1;
        Absent
      | None ->
        t.misses <- t.misses + 1;
        Absent)

let insert t ~proc ~args ~gen body =
  with_lock t (fun () ->
      let key = (proc, args) in
      t.fills <- t.fills + 1;
      let fill = t.fills in
      (match Hashtbl.find_opt t.table key with
       | Some e ->
         (* Refill of an existing key (e.g. a fill raced another fill):
            body and stamp are replaced together, so a fill that lost
            the race and carries the older stamp only costs a later
            miss; it never pins pre-write data under a newer stamp. *)
         t.bytes <- t.bytes - String.length e.e_body + String.length body;
         e.e_gen <- gen;
         e.e_fill <- fill;
         e.e_body <- body
       | None ->
         if Hashtbl.length t.table >= t.max_entries then
           Option.iter
             (fun e ->
               drop t e;
               t.evictions <- t.evictions + 1)
             (least_recently_filled t);
         Hashtbl.add t.table key { e_key = key; e_gen = gen; e_fill = fill; e_body = body };
         t.bytes <- t.bytes + String.length body);
      t.insertions <- t.insertions + 1;
      fill)

let invalidate_all t =
  with_lock t (fun () ->
      let n = Hashtbl.length t.table in
      if n > 0 then begin
        Hashtbl.reset t.table;
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
