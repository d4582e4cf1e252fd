(* Event-invalidated client-side cache.

   The correctness problem this module solves is the window between
   sending a read RPC and installing its reply: a lifecycle event that
   arrives inside that window describes a state change the in-flight
   reply may or may not reflect, so installing the reply afterwards
   could resurrect stale data forever (no further event will come).

   The fix is the classic fill protocol: a reader captures a token
   ({!begin_fill}) before issuing the RPC and installs the reply only if
   nothing relevant was invalidated since ({!install}).  Concretely the
   cache keeps a monotonically increasing invalidation sequence; every
   {!invalidate} stamps the name with the current sequence, and a fill
   token older than a name's stamp is refused for that name.  A bulk
   reply (one token, many installs) therefore degrades per name: only
   the rows raced by an event are dropped.  It also takes the lock once
   for all its rows ({!install_bulk}), not once per row, and a row equal
   to what the entry already holds keeps that entry.

   Reconnects change epoch: the daemon may have restarted with different
   state and the event stream has a gap, so every entry and every
   outstanding fill from the previous connection is worthless.  {!clear}
   bumps the epoch, which also voids older tokens.

   Entries are optionally TTL-bounded for connections without an event
   stream (events=0): freshness then decays by wall clock instead of
   being maintained by pushes.  Time is always passed in by the caller,
   which keeps the module deterministic under test.

   A polled listing hands back the very list it installed last time
   until something changes, and re-installing it would only move TTL
   stamps.  So the cache keeps a version, bumped by every change a
   repeated install could undo (an invalidation, a clear, an install
   that replaces an entry, any write to the UUID index), and remembers the serial and the version at which the last bulk
   install ended having refused no row.  {!install_listing} skips a
   bulk install of that same serial while the version still matches,
   the fill is current (no invalidation since it was taken, so every
   row would be accepted) and the cache is untimed: the skip leaves the
   cache exactly as the full install would. *)

type 'a entry = {
  e_value : 'a;
  mutable e_stamp : float;
  e_uuid : string option;
}

type 'a t = {
  mutex : Mutex.t;
  ttl : float option;  (* None: event-maintained, entries never expire *)
  entries : (string, 'a entry) Hashtbl.t;  (* keyed by domain name *)
  by_uuid : (string, string) Hashtbl.t;  (* uuid -> name *)
  inval : (string, int) Hashtbl.t;  (* name -> seq of last invalidation *)
  mutable seq : int;
  mutable epoch : int;
  mutable version : int;  (* bumped by every change a repeated install could undo *)
  mutable memo : (int * int) option;
      (* serial and end version of the last bulk install, if it was one
         of {!install_listing} and refused no row *)
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
    version = 0;
    memo = None;
    hits = 0;
    misses = 0;
  }

let locked c f = Mutex.protect c.mutex f

let begin_fill c = locked c (fun () -> { f_epoch = c.epoch; f_seq = c.seq })

let bump c = c.version <- c.version + 1

(* Point [uuid] at [name], writing only when it points elsewhere.  A
   write bumps the version: a repeated listing could point that UUID back,
   or drop it again after a replaced entry had unindexed it. *)
let claim_uuid c uuid name =
  match uuid with
  | None -> ()
  | Some u -> (
    match Hashtbl.find c.by_uuid u with
    | owner when String.equal owner name -> ()
    | _ | (exception Not_found) ->
      bump c;
      Hashtbl.replace c.by_uuid u name)

(* Drop [name]'s UUID index entry, unless a rename has since pointed
   that UUID at another name. *)
let unindex c name e =
  match e.e_uuid with
  | Some u -> (
    match Hashtbl.find_opt c.by_uuid u with
    | Some owner when String.equal owner name -> Hashtbl.remove c.by_uuid u
    | Some _ | None -> ())
  | None -> ()

(* The one install path; assumes [c.mutex] held.  The refusals come
   first.  A row that repeats what the entry holds (same uuid,
   structurally equal value) then only refreshes the stamp: a polled
   listing mostly repeats itself, and a fresh entry for each row would
   be promoted to the major heap by the write barrier ([==] first: [=]
   walks even a physically equal value). *)
let install_locked c fill name uuid value now =
  let invalidated_since =
    match Hashtbl.find_opt c.inval name with
    | Some s -> s > fill.f_seq
    | None -> false
  in
  if fill.f_epoch <> c.epoch || invalidated_since then false
  else begin
    let kept =
      match Hashtbl.find c.entries name with
      | e when Option.equal String.equal e.e_uuid uuid
               && (e.e_value == value || e.e_value = value) ->
        e.e_stamp <- now;
        true
      | e ->
        unindex c name e;
        bump c;
        false
      | exception Not_found -> false
    in
    if not kept then
      Hashtbl.replace c.entries name { e_value = value; e_stamp = now; e_uuid = uuid };
    claim_uuid c uuid name;
    true
  end

let install c fill name ?uuid value ~now =
  locked c (fun () -> install_locked c fill name uuid value now)

(* Assumes [c.mutex] held.  Records the memo only for a listing whose
   every row went in, at the version the install ended at. *)
let bulk_locked c fill now serial rows =
  let complete = ref true in
  let r =
    rows (fun name ?uuid value ->
        let ok = install_locked c fill name uuid value now in
        if not ok then complete := false;
        ok)
  in
  c.memo <-
    (match serial with Some s when !complete -> Some (s, c.version) | _ -> None);
  r

let install_bulk c fill ~now rows =
  locked c (fun () -> bulk_locked c fill now None rows)

let install_listing c fill ~serial ~now rows =
  locked c (fun () ->
      let repeat =
        match c.memo with
        | Some (s, v) ->
          s = serial && v = c.version && c.ttl = None
          && fill.f_epoch = c.epoch && fill.f_seq = c.seq
        | None -> false
      in
      if repeat then false
      else begin
        bulk_locked c fill now (Some serial) rows;
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
      bump c;
      Hashtbl.replace c.inval name c.seq;
      match Hashtbl.find_opt c.entries name with
      | Some e ->
        unindex c name e;
        Hashtbl.remove c.entries name
      | None -> ())

let clear c =
  locked c (fun () ->
      c.epoch <- c.epoch + 1;
      bump c;
      Hashtbl.reset c.entries;
      Hashtbl.reset c.by_uuid;
      Hashtbl.reset c.inval)

let epoch c = locked c (fun () -> c.epoch)
let size c = locked c (fun () -> Hashtbl.length c.entries)
let hits c = locked c (fun () -> c.hits)
let misses c = locked c (fun () -> c.misses)
