type t = {
  mutex : Mutex.t;
  readers_cv : Condition.t;  (* readers may enter *)
  writers_cv : Condition.t;  (* one writer may enter *)
  mutable active_readers : int;
  mutable active_writer : bool;
  mutable waiting_writers : int;
}

let create () =
  {
    mutex = Mutex.create ();
    readers_cv = Condition.create ();
    writers_cv = Condition.create ();
    active_readers = 0;
    active_writer = false;
    waiting_writers = 0;
  }

let get t field =
  Mutex.lock t.mutex;
  let v = field t in
  Mutex.unlock t.mutex;
  v

let active_readers t = get t (fun t -> t.active_readers)
let waiting_writers t = get t (fun t -> t.waiting_writers)

(* Writer preference: a waiting writer bars new readers. *)
let reader_barred t = t.active_writer || t.waiting_writers > 0
let writer_barred t = t.active_writer || t.active_readers > 0

(* [until = infinity] waits without a clock, as [Timedwait.wait] does. *)
let before until = until = infinity || Unix.gettimeofday () < until

(* Hand off to the next queued writer; only when none are waiting do the
   readers get to flood back in.  Caller holds t.mutex. *)
let wake_next t =
  if t.waiting_writers > 0 then Condition.signal t.writers_cv
  else Condition.broadcast t.readers_cv

(* The one acquisition path: each returns [false] only once [until] has
   passed with the lock still barred. *)
let read_acquire t ~until =
  Mutex.lock t.mutex;
  while reader_barred t && before until do
    Timedwait.wait t.mutex t.readers_cv ~until
  done;
  let ok = not (reader_barred t) in
  if ok then t.active_readers <- t.active_readers + 1;
  Mutex.unlock t.mutex;
  ok

let write_acquire t ~until =
  Mutex.lock t.mutex;
  t.waiting_writers <- t.waiting_writers + 1;
  while writer_barred t && before until do
    Timedwait.wait t.mutex t.writers_cv ~until
  done;
  t.waiting_writers <- t.waiting_writers - 1;
  let ok = not (writer_barred t) in
  if ok then t.active_writer <- true
  else
    (* Giving up: writers are woken one at a time, so pass on a wake-up
       this waiter may have taken, and let in the readers it barred. *)
    wake_next t;
  Mutex.unlock t.mutex;
  ok

let read_unlock t =
  Mutex.lock t.mutex;
  t.active_readers <- t.active_readers - 1;
  if t.active_readers = 0 then Condition.signal t.writers_cv;
  Mutex.unlock t.mutex

let write_unlock t =
  Mutex.lock t.mutex;
  t.active_writer <- false;
  wake_next t;
  Mutex.unlock t.mutex

(* Run [f] and release, also on exception.  [release] is a toplevel
   function, so a section allocates no closure of its own. *)
let section t release f =
  match f () with
  | v ->
    release t;
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    release t;
    Printexc.raise_with_backtrace e bt

let with_read t f =
  ignore (read_acquire t ~until:infinity);
  section t read_unlock f

let with_write t f =
  ignore (write_acquire t ~until:infinity);
  section t write_unlock f

let with_read_until t ~deadline f =
  if read_acquire t ~until:deadline then Ok (section t read_unlock f)
  else Error `Timeout

let with_write_until t ~deadline f =
  if write_acquire t ~until:deadline then Ok (section t write_unlock f)
  else Error `Timeout
