(* Benchmark plumbing: a Bechamel-based point measurement (one
   Test.make per measured cell), wall-clock throughput runs for the
   concurrency figures, and paper-style table rendering. *)

open Bechamel
open Toolkit

(* Estimated ns/run for [f], via Bechamel OLS over monotonic-clock
   samples.  Each call creates its own [Test.make]. *)
let measure_ns ?(quota = 0.2) name f =
  let test = Test.make ~name (Staged.stage f) in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None
      ~stabilize:false ()
  in
  let elt =
    match Test.elements test with
    | [ elt ] -> elt
    | _ -> invalid_arg "measure_ns: single-element test expected"
  in
  let raw = Benchmark.run cfg [ Instance.monotonic_clock ] elt in
  let ols =
    Analyze.one
      (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |])
      Instance.monotonic_clock raw
  in
  match Analyze.OLS.estimates ols with
  | Some [ estimate ] -> estimate
  | Some _ | None -> nan

(* Wall-clock throughput: run [n_threads] copies of [worker] (each gets
   its thread index) for [duration_s]; each worker bumps the shared
   counter once per completed operation.  Returns ops/second. *)
let measure_throughput ~n_threads ~duration_s worker =
  let ops = Atomic.make 0 in
  let stop = Atomic.make false in
  let threads =
    List.init n_threads (fun i ->
        Thread.create
          (fun () ->
            while not (Atomic.get stop) do
              worker i;
              Atomic.incr ops
            done)
          ())
  in
  let t0 = Unix.gettimeofday () in
  Thread.delay duration_s;
  Atomic.set stop true;
  List.iter Thread.join threads;
  let elapsed = Unix.gettimeofday () -. t0 in
  float_of_int (Atomic.get ops) /. elapsed

(* Wall-clock duration of a single (non-repeatable) action, seconds. *)
let time_once f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)

(* The [p]th percentile (nearest rank) of an ascending array; nan when
   it is empty. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) rank))

(* --- formatting -------------------------------------------------------- *)

let pp_ns ns =
  if Float.is_nan ns then "-"
  else if ns < 1_000.0 then Printf.sprintf "%.0f ns" ns
  else if ns < 1_000_000.0 then Printf.sprintf "%.2f us" (ns /. 1_000.0)
  else if ns < 1_000_000_000.0 then Printf.sprintf "%.2f ms" (ns /. 1_000_000.0)
  else Printf.sprintf "%.2f s" (ns /. 1_000_000_000.0)

let pp_ops ops =
  if ops >= 1_000_000.0 then Printf.sprintf "%.2fM" (ops /. 1_000_000.0)
  else if ops >= 1_000.0 then Printf.sprintf "%.1fk" (ops /. 1_000.0)
  else Printf.sprintf "%.0f" ops

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subsection text = Printf.printf "%s\n" text

(* Render rows of equal length under the given headers. *)
let table headers rows =
  let columns = List.length headers in
  List.iter
    (fun row ->
      if List.length row <> columns then invalid_arg "table: ragged row")
    rows;
  let widths =
    List.mapi
      (fun i header ->
        List.fold_left
          (fun acc row -> max acc (String.length (List.nth row i)))
          (String.length header) rows)
      headers
  in
  let print_row cells =
    List.iteri
      (fun i cell -> Printf.printf "%-*s  " (List.nth widths i) cell)
      cells;
    print_newline ()
  in
  print_row headers;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows;
  print_newline ()

let ok = function
  | Ok v -> v
  | Error e -> failwith ("bench: " ^ Ovirt.Verror.to_string e)

let fresh_counter = ref 0

let fresh prefix =
  incr fresh_counter;
  Printf.sprintf "%s%d" prefix !fresh_counter
