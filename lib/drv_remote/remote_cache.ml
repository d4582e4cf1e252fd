(* Event-invalidated client-side cache, one per remote connection.

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
   token older than a name's stamp is refused for that name.  A listing
   (one token, many rows) therefore degrades per name: only the rows
   raced by an event are dropped.

   What the connection knows about one domain is one row, so an event
   drops it in one lock section, and a listing writes each row's ref,
   info and autostart in the same section.  A point read writes only its
   own field.  A field that already holds an equal value keeps it.

   Reconnects change epoch: the daemon may have restarted with different
   state and the event stream has a gap, so every row and every
   outstanding fill from the previous connection is worthless.  {!clear}
   bumps the epoch, which also voids older tokens.

   Fields are optionally TTL-bounded for connections without an event
   stream (events=0): freshness then decays by wall clock instead of
   being maintained by pushes.  Time is always passed in by the caller,
   which keeps the module deterministic under test.

   A polled listing hands back the very list it installed last time
   until something changes, and re-installing it would only move TTL
   stamps.  So the cache keeps a version, bumped by every change a
   repeated install could undo: an invalidation, a clear, a write that
   replaces a field's value, and any write to the UUID index.  Adding a
   value to an empty field is not such a change: the listing either
   writes that field, and then it was not empty after the listing, or
   never touches it.  The cache remembers the list and the version at
   which the last listing install ended having refused no row.
   {!install_listing} skips an install of that same list while the
   version still matches, the fill is current (no invalidation since it
   was taken, so every row would be accepted) and the cache is untimed:
   the skip leaves the cache exactly as the full install would. *)

open Ovirt_core

type 'a stamped = { value : 'a; mutable stamp : float }

type row = {
  mutable r_ref : Driver.domain_ref stamped option;
  mutable r_info : Driver.domain_info stamped option;
  mutable r_autostart : bool stamped option;
  mutable r_xml : string stamped option;
}

type _ field =
  | Ref : Driver.domain_ref field
  | Info : Driver.domain_info field
  | Autostart : bool field
  | Xml : string field

type t = {
  mutex : Mutex.t;
  ttl : float option;  (* None: event-maintained, fields never expire *)
  rows : (string, row) Hashtbl.t;  (* keyed by domain name *)
  by_uuid : (Vmm.Uuid.t, string) Hashtbl.t;  (* uuid -> name *)
  inval : (string, int) Hashtbl.t;  (* name -> seq of last invalidation *)
  mutable seq : int;
  mutable epoch : int;
  mutable version : int;  (* bumped by every change a repeated install could undo *)
  mutable memo : (Driver.domain_record list * int) option;
      (* list and end version of the last listing install, if it
         refused no row *)
  mutable hits : int;
  mutable misses : int;
}

type fill = { f_epoch : int; f_seq : int }

let create ?ttl () =
  {
    mutex = Mutex.create ();
    ttl;
    rows = Hashtbl.create 64;
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

let get : type a. a field -> row -> a stamped option =
 fun field r ->
  match field with
  | Ref -> r.r_ref
  | Info -> r.r_info
  | Autostart -> r.r_autostart
  | Xml -> r.r_xml

let set : type a. a field -> row -> a stamped -> unit =
 fun field r s ->
  match field with
  | Ref -> r.r_ref <- Some s
  | Info -> r.r_info <- Some s
  | Autostart -> r.r_autostart <- Some s
  | Xml -> r.r_xml <- Some s

(* Point [uuid] at [name], writing only when it points elsewhere.  A
   write bumps the version: a repeated listing could point that UUID back,
   or drop it again after a replaced ref had unindexed it. *)
let claim_uuid c uuid name =
  match Hashtbl.find c.by_uuid uuid with
  | owner when String.equal owner name -> ()
  | _ | (exception Not_found) ->
    bump c;
    Hashtbl.replace c.by_uuid uuid name

(* Drop the UUID index entry of [name]'s ref [r], unless a rename has
   since pointed that UUID at another name. *)
let unindex c name (r : Driver.domain_ref) =
  match Hashtbl.find_opt c.by_uuid r.dom_uuid with
  | Some owner when String.equal owner name -> Hashtbl.remove c.by_uuid r.dom_uuid
  | Some _ | None -> ()

(* Whether [fill] may write [name]: no clear and no invalidation of
   [name] since it was taken. *)
let accepts c fill name =
  fill.f_epoch = c.epoch
  &&
  match Hashtbl.find_opt c.inval name with
  | Some s -> s <= fill.f_seq
  | None -> true

let row_of c name =
  match Hashtbl.find_opt c.rows name with
  | Some row -> row
  | None ->
    let row = { r_ref = None; r_info = None; r_autostart = None; r_xml = None } in
    Hashtbl.add c.rows name row;
    row

(* The one write path; assumes [c.mutex] held and the fill accepted.  A
   value that repeats what the field holds only refreshes the stamp: a
   polled listing mostly repeats itself, and a fresh value for each row
   would be promoted to the major heap by the write barrier ([==] first:
   [=] walks even a physically equal value). *)
let write : type a. t -> string -> row -> a field -> a -> float -> unit =
 fun c name row field v now ->
  (match get field row with
  | Some s when s.value == v || s.value = v -> s.stamp <- now
  | old ->
    (match (field, old) with
    | Ref, Some s -> unindex c name s.value
    | _ -> ());
    if Option.is_some old then bump c;
    set field row { value = v; stamp = now });
  match field with Ref -> claim_uuid c v.Driver.dom_uuid name | _ -> ()

let install c fill field name v ~now =
  locked c (fun () ->
      accepts c fill name
      && begin
        write c name (row_of c name) field v now;
        true
      end)

let install_listing c fill records ~now =
  locked c (fun () ->
      let repeat =
        match c.memo with
        | Some (l, v) ->
          l == records && v = c.version && c.ttl = None
          && fill.f_epoch = c.epoch && fill.f_seq = c.seq
        | None -> false
      in
      if repeat then 0
      else begin
        let written = ref 0 and refused = ref false in
        List.iter
          (fun (r : Driver.domain_record) ->
            let name = r.rec_ref.dom_name in
            if accepts c fill name then begin
              let row = row_of c name in
              write c name row Ref r.rec_ref now;
              write c name row Info r.rec_info now;
              Option.iter (fun a -> write c name row Autostart a now) r.rec_autostart;
              incr written
            end
            else refused := true)
          records;
        c.memo <- (if !refused then None else Some (records, c.version));
        !written
      end)

let fresh c s ~now =
  match c.ttl with None -> true | Some ttl -> now -. s.stamp <= ttl

(* Assumes [c.mutex] held. *)
let find_locked c field name ~now =
  match get field (Hashtbl.find c.rows name) with
  | Some s when fresh c s ~now ->
    c.hits <- c.hits + 1;
    Some s.value
  | Some _ | None | (exception Not_found) ->
    c.misses <- c.misses + 1;
    None

let find c field name ~now = locked c (fun () -> find_locked c field name ~now)

let find_by_uuid c uuid ~now =
  locked c (fun () ->
      match Hashtbl.find_opt c.by_uuid uuid with
      | Some name -> find_locked c Ref name ~now
      | None ->
        c.misses <- c.misses + 1;
        None)

let invalidate c name =
  locked c (fun () ->
      c.seq <- c.seq + 1;
      bump c;
      Hashtbl.replace c.inval name c.seq;
      match Hashtbl.find_opt c.rows name with
      | Some row ->
        Option.iter (fun s -> unindex c name s.value) row.r_ref;
        Hashtbl.remove c.rows name
      | None -> ())

let clear c =
  locked c (fun () ->
      c.epoch <- c.epoch + 1;
      bump c;
      Hashtbl.reset c.rows;
      Hashtbl.reset c.by_uuid;
      Hashtbl.reset c.inval)

let epoch c = locked c (fun () -> c.epoch)
let size c = locked c (fun () -> Hashtbl.length c.rows)
let hits c = locked c (fun () -> c.hits)
let misses c = locked c (fun () -> c.misses)
