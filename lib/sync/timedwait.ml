(* Timed condition wait.

   The stdlib's [Condition] has no timed wait, which is why older code
   polled ([Thread.delay] loops in Chan.recv_opt and the rpc_client timer
   thread).  This module supplies the missing primitive with one shared
   timekeeper thread: callers register (deadline, mutex, condition) and
   block in a plain [Condition.wait]; the timekeeper broadcasts the
   condition when the deadline passes.  The timekeeper itself sleeps in
   [Unix.select] on a self-pipe, so registering an earlier deadline wakes
   it immediately — no polling anywhere.

   Lock order: callers hold their own mutex and briefly take the
   timekeeper's; the timekeeper never takes a caller mutex while holding
   its own (due entries are popped first, fired after unlock), so the
   orders cannot deadlock.

   A wait that ends before its deadline takes its entry back out of the
   heap: otherwise the timekeeper would wake at the dead deadline only
   to broadcast to a waiter that has left, and to whoever waits on the
   same condition by then. *)

type entry = {
  e_at : float;
  e_mutex : Mutex.t;
  e_cond : Condition.t;
  mutable e_pos : int;  (** index in the heap; -1 once out of it *)
}

(* Array-backed binary min-heap on [e_at]; every entry knows its index,
   so any one of them can be removed. *)
module Heap = struct
  type t = { mutable a : entry array; mutable n : int }

  let create () = { a = [||]; n = 0 }

  let set h i e =
    h.a.(i) <- e;
    e.e_pos <- i

  let swap h i j =
    let t = h.a.(i) in
    set h i h.a.(j);
    set h j t

  let rec sift_up h i =
    let parent = (i - 1) / 2 in
    if i > 0 && h.a.(parent).e_at > h.a.(i).e_at then begin
      swap h parent i;
      sift_up h parent
    end

  let rec sift_down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let s = if l < h.n && h.a.(l).e_at < h.a.(i).e_at then l else i in
    let s = if r < h.n && h.a.(r).e_at < h.a.(s).e_at then r else s in
    if s <> i then begin
      swap h s i;
      sift_down h s
    end

  let push h e =
    if h.n = Array.length h.a then begin
      let a = Array.make (max 8 (2 * h.n)) e in
      Array.blit h.a 0 a 0 h.n;
      h.a <- a
    end;
    set h h.n e;
    h.n <- h.n + 1;
    sift_up h (h.n - 1)

  let peek h = if h.n = 0 then None else Some h.a.(0)

  (* No-op for an entry already out of the heap. *)
  let remove h e =
    let i = e.e_pos in
    if i >= 0 then begin
      h.n <- h.n - 1;
      if i < h.n then begin
        let moved = h.a.(h.n) in
        set h i moved;
        sift_down h i;
        sift_up h moved.e_pos
      end;
      e.e_pos <- -1
    end

  let pop h =
    let top = h.a.(0) in
    remove h top;
    top
end

type tk = {
  tk_mutex : Mutex.t;
  tk_heap : Heap.t;
  mutable tk_armed : float;
      (* the latest instant the timekeeper looks at the heap again: a
         deadline before it needs a poke, a later one does not *)
  tk_wake_rd : Unix.file_descr;
  tk_wake_wr : Unix.file_descr;
}

let poke tk =
  (* Nonblocking: a full pipe already guarantees a pending wakeup. *)
  try ignore (Unix.write tk.tk_wake_wr (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

let drain_pipe tk =
  let buf = Bytes.create 256 in
  let rec go () =
    match Unix.read tk.tk_wake_rd buf 0 256 with
    | 256 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  go ()

let fire e =
  Mutex.lock e.e_mutex;
  Condition.broadcast e.e_cond;
  Mutex.unlock e.e_mutex

let rec tk_loop tk =
  Mutex.lock tk.tk_mutex;
  let now = Unix.gettimeofday () in
  let rec pop_due acc =
    match Heap.peek tk.tk_heap with
    | Some e when e.e_at <= now -> pop_due (Heap.pop tk.tk_heap :: acc)
    | _ -> acc
  in
  let due = pop_due [] in
  let timeout =
    match Heap.peek tk.tk_heap with
    | Some e -> max 0.0005 (e.e_at -. now)
    | None -> 3600.
  in
  tk.tk_armed <- (if due = [] then now +. timeout else neg_infinity);
  Mutex.unlock tk.tk_mutex;
  List.iter fire due;
  if due = [] then begin
    (match Unix.select [ tk.tk_wake_rd ] [] [] timeout with
     | [ _ ], _, _ -> drain_pipe tk
     | _ -> ()
     | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
  end;
  tk_loop tk

let timekeeper =
  lazy
    (let rd, wr = Unix.pipe () in
     Unix.set_nonblock rd;
     Unix.set_nonblock wr;
     let tk =
       {
         tk_mutex = Mutex.create ();
         tk_heap = Heap.create ();
         tk_armed = neg_infinity;
         tk_wake_rd = rd;
         tk_wake_wr = wr;
       }
     in
     ignore (Thread.create (fun () -> tk_loop tk) ());
     tk)

let wait mutex cond ~until =
  if until = infinity then Condition.wait cond mutex
  else begin
    let now = Unix.gettimeofday () in
    if until > now then begin
      let tk = Lazy.force timekeeper in
      Mutex.lock tk.tk_mutex;
      let needs_poke = until < tk.tk_armed in
      let e = { e_at = until; e_mutex = mutex; e_cond = cond; e_pos = -1 } in
      Heap.push tk.tk_heap e;
      Mutex.unlock tk.tk_mutex;
      if needs_poke then poke tk;
      Condition.wait cond mutex;
      Mutex.lock tk.tk_mutex;
      Heap.remove tk.tk_heap e;
      Mutex.unlock tk.tk_mutex
    end
  end
