(* The repository benchmark.

     python3 perfbench/run.py \
       --workload read-small|fleet-inventory|lifecycle-churn \
       --seed N --seconds S --trace 0|1

   (run.py builds this program and runs it pinned to one CPU.)

   One run builds the workload's in-process stack from the seed, warms
   it, measures a closed loop of its clients for S seconds, checks every
   answer and the final domain states against the generator's model, and
   prints one JSON object as the last line of standard output.  Times
   are measured on a reference clock that corrects for the host's
   changing speed (see [reference_loop]).  With --trace 0 it reports the
   end-to-end metrics, and their wall-clock values in the lines above;
   with --trace 1 it runs an untraced window, then a traced one, then
   peels the stack back layer by layer (see peel.ml) and reports the
   per-layer metrics, the tracing overhead, and writes the spans to
   perfbench-out/.  The exit code is non-zero if any answer is wrong. *)

let () = Ovirt.initialize ()

type spec = {
  name : string;
  build : seed:int -> rep:int -> trace:bool -> Stack.t;
  warmup_ops : int;  (** per client, before timing *)
  setup_reps : int;
      (** set-up time is the median of this many full set-ups; the first
          is the stack that gets measured, the rest run after the window *)
}

let specs =
  [
    {
      name = "read-small";
      build = (fun ~seed ~rep ~trace:_ -> Stack.read_small ~seed ~rep);
      warmup_ops = 400;
      setup_reps = 3;
    };
    {
      name = "fleet-inventory";
      build = (fun ~seed ~rep ~trace:_ -> Stack.fleet_inventory ~seed ~rep);
      warmup_ops = 5;
      setup_reps = 3;
    };
    {
      name = "lifecycle-churn";
      build = (fun ~seed ~rep ~trace -> Stack.lifecycle_churn ~seed ~rep ~track_lag:trace);
      warmup_ops = 100;
      (* Its set-up takes about 0.1 s, so more repetitions cost little. *)
      setup_reps = 9;
    };
  ]

(* ---- process-wide readings ----------------------------------------- *)

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let rss_kib () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0
  | text ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmRSS"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | n :: _ -> Option.value (int_of_string_opt n) ~default:acc
          | [] -> acc)
        | _ -> acc)
      0 (String.split_on_char '\n' text)

let percentile arr p =
  let n = Array.length arr in
  if n = 0 then nan
  else
    let a = Array.copy arr in
    Array.sort compare a;
    a.(min (n - 1) (int_of_float (Float.of_int n *. p)))

(* ---- the closed loop ----------------------------------------------- *)

(* The benchmark shares its CPU with other tenants of the host, and the
   host's speed is not steady: a 20 ms fleet listing takes about 13 or
   about 24 ms depending only on when it runs, switching every 50-150 ms,
   and the share of slow stretches drifts over minutes, so wall-clock
   figures of two runs of the same program differ by up to a half.  The
   slow stretches slow memory loads, not register arithmetic.  The
   sampler therefore times this reference loop at every tick (20 ms):
   one pass of loads over a 1 MiB array that stays in the core's caches,
   after an untimed pass that refills them, so the program's own cache
   traffic does not count; the loop does not allocate, so garbage
   collection cannot slow it.  Every time the benchmark reports is
   measured on a reference clock that runs at speed
   ([reference_s] / loop time) ** [reference_exponent].  The loop slows
   more than the workloads do: across 24 runs of the three workloads on
   a 2-vCPU VM whose loop medians ranged from 113 to 244 us, the spread
   between runs was smallest with exponents of about 0.6 (read-small),
   0.7 (lifecycle-churn) and 1.0 (fleet-inventory), and 0.8 kept every
   workload's spread of every end-to-end time below 7 %, against 12-45 %
   on the wall clock. *)
let reference_data = Array.init 131072 (fun i -> (i * 7919) land 0xffff)

let reference_loop () =
  let pass () =
    let acc = ref 0 in
    for i = 0 to 131071 do
      acc := !acc + Array.unsafe_get reference_data ((i * 17) land 131071)
    done;
    ignore (Sys.opaque_identity !acc)
  in
  pass ();
  let t0 = Unix.gettimeofday () in
  pass ();
  Unix.gettimeofday () -. t0

let reference_s = 120e-6
let reference_exponent = 0.8

type tick = { at : float; cpu : float;  (** process CPU seconds *) loop_s : float }

let tick () =
  let loop_s = reference_loop () in
  { at = Unix.gettimeofday (); cpu = cpu_s (); loop_s }

(* Takes a tick now and then every 20 ms on a thread of its own, calling
   [also] before each; the returned function takes a last tick, stops
   the thread and returns the ticks, oldest first. *)
let ticker ?(also = fun () -> ()) () =
  let stop = Atomic.make false and ticks = ref [ tick () ] in
  let th =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          also ();
          ticks := tick () :: !ticks;
          Thread.delay 0.02
        done)
      ()
  in
  fun () ->
    let last = tick () in
    Atomic.set stop true;
    Thread.join th;
    Array.of_list
      (List.sort (fun a b -> compare a.at b.at) (last :: List.filter (fun t -> t.at < last.at) !ticks))

(* The reference clock over [ts]: between two ticks its speed follows
   the mean of their loop times; [speed k] is its speed in the interval
   after tick [k].  A loop time far above the median is a thread switch
   during the loop, not the host's speed.  Returns [speed] and the
   reference time since the first tick of a wall-clock time. *)
let reference_clock ts =
  let n = Array.length ts in
  let cap = 3. *. Trace.median (Array.to_list (Array.map (fun t -> t.loop_s) ts)) in
  let loop k = Float.min cap ts.(k).loop_s in
  let speed k = (reference_s /. ((loop k +. loop (k + 1)) /. 2.)) ** reference_exponent in
  let ref_at = Array.make n 0. in
  for k = 0 to n - 2 do
    ref_at.(k + 1) <- ref_at.(k) +. ((ts.(k + 1).at -. ts.(k).at) *. speed k)
  done;
  let ref_time t =
    (* The interval holding [t] starts at the last tick at or before it. *)
    let rec go lo hi =
      if hi - lo <= 1 then lo
      else
        let mid = (lo + hi) / 2 in
        if ts.(mid).at <= t then go mid hi else go lo mid
    in
    let k = min (n - 2) (go 0 n) in
    ref_at.(k) +. ((t -. ts.(k).at) *. speed k)
  in
  (speed, ref_time)

type window = {
  ops : (float * float) array;  (** (end time, latency) of every completed operation, seconds *)
  attempted : int;
  failed : int;
  writes : int;
  t0 : float;
  wall : float;
  ticks : tick array;  (** oldest first; the first is taken at [t0], the last at the end *)
  peak_rss_kib : int;
  errors : string list;  (** first few, for the report *)
  samples : int list;  (** sampler readings ([sample] results) *)
}

(* While the window is open, a [ticker] also reads RSS and [sample]. *)
let run_window (st : Stack.t) ~ks ~stop_after ~bufs ?(sample = fun () -> 0) () =
  let peak = ref (rss_kib ()) and sampled = ref [] in
  let stop =
    ticker
      ~also:(fun () ->
        peak := max !peak (rss_kib ());
        sampled := sample () :: !sampled)
      ()
  in
  let t0 = Unix.gettimeofday () in
  let deadline = match stop_after with `Seconds s -> t0 +. s | `Ops _ -> infinity in
  let per_client =
    Array.init st.Stack.n_clients (fun c ->
        let done_ = ref [] and failed = ref 0 and writes = ref 0 and n = ref 0 and errors = ref [] in
        let more () =
          match stop_after with
          | `Seconds _ -> Unix.gettimeofday () < deadline
          | `Ops limit -> !n < limit
        in
        let th =
          Thread.create
            (fun () ->
              while more () do
                let k = ks.(c) in
                let s0 = Unix.gettimeofday () in
                let r = st.Stack.op ~client:c ~k ~tr:bufs.(c) ~op_id:(((c + 1) lsl 40) lor k) in
                let s1 = Unix.gettimeofday () in
                done_ := (s1, s1 -. s0) :: !done_;
                ks.(c) <- k + 1;
                incr n;
                match r with
                | Ok w -> writes := !writes + w
                | Error e ->
                  incr failed;
                  if List.length !errors < 3 then errors := e :: !errors
              done)
            ()
        in
        (th, done_, failed, writes, n, errors))
  in
  Array.iter (fun (th, _, _, _, _, _) -> Thread.join th) per_client;
  let ticks = stop () in
  let sum f = Array.fold_left (fun acc x -> acc + f x) 0 per_client in
  {
    ops = Array.of_list (List.concat_map (fun (_, d, _, _, _, _) -> !d) (Array.to_list per_client));
    attempted = sum (fun (_, _, _, _, n, _) -> !n);
    failed = sum (fun (_, _, f, _, _, _) -> !f);
    writes = sum (fun (_, _, _, w, _, _) -> !w);
    t0;
    wall = ticks.(Array.length ticks - 1).at -. t0;
    ticks;
    peak_rss_kib = !peak;
    errors = List.concat_map (fun (_, _, _, _, _, e) -> !e) (Array.to_list per_client);
    samples = !sampled;
  }

type e2e = { p50_ms : float; p90_ms : float; ops_per_s : float; cpu_ms_per_op : float; rss_mb : float }

(* Latencies are reference-clock differences, throughput is operations
   per reference second, and CPU time is scaled by the clock's speed
   interval by interval.  [~wall:true] gives the plain wall-clock
   figures instead.  Peak RSS is the maximum over the window. *)
let e2e_of ?(wall = false) w =
  let ts = w.ticks in
  let speed, ref_time =
    if wall then ((fun _ -> 1.), fun t -> t -. ts.(0).at) else reference_clock ts
  in
  let cpu = ref 0. in
  for k = 0 to Array.length ts - 2 do
    cpu := !cpu +. ((ts.(k + 1).cpu -. ts.(k).cpu) *. speed k)
  done;
  let lat = Array.map (fun (t, l) -> ref_time t -. ref_time (t -. l)) w.ops in
  let ops = float_of_int (max 1 (Array.length w.ops)) in
  {
    p50_ms = percentile lat 0.5 *. 1000.;
    p90_ms = percentile lat 0.9 *. 1000.;
    ops_per_s = ops /. ref_time ts.(Array.length ts - 1).at;
    cpu_ms_per_op = !cpu *. 1000. /. ops;
    rss_mb = float_of_int w.peak_rss_kib /. 1024.;
  }

let median_loop w = Trace.median (Array.to_list (Array.map (fun t -> t.loop_s) w.ticks))

(* ---- set-up -------------------------------------------------------- *)

type setup = { seed_s : float; open_s : float; warmup_s : float }

let total s = s.seed_s +. s.open_s +. s.warmup_s

(* Set-up times are on the reference clock too; the split into seeding,
   opening and warm-up uses the clock's mean speed over the set-up. *)
let build_and_warm spec ~seed ~rep ~trace =
  let stop = ticker () in
  let st = spec.build ~seed ~rep ~trace in
  let ks = Array.make st.Stack.n_clients 0 in
  let w =
    run_window st ~ks ~stop_after:(`Ops spec.warmup_ops) ~bufs:(Array.make st.Stack.n_clients None) ()
  in
  if w.failed > 0 then
    failwith (Printf.sprintf "warm-up: %d failed operation(s): %s" w.failed (String.concat "; " w.errors));
  let ticks = stop () in
  let last = ticks.(Array.length ticks - 1).at in
  let scale = snd (reference_clock ticks) last /. (last -. ticks.(0).at) in
  (st, ks, { seed_s = st.Stack.seed_s *. scale; open_s = st.Stack.open_s *. scale; warmup_s = w.wall *. scale })

(* The remaining set-up repetitions, each torn down at once. *)
let extra_setups spec ~seed ~trace =
  List.init (spec.setup_reps - 1) (fun i ->
      let st, _, s = build_and_warm spec ~seed ~rep:(i + 1) ~trace in
      st.Stack.close ();
      s)

(* ---- output -------------------------------------------------------- *)

let json_number name v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else failwith ("no finite value for metric " ^ name)

let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, unit, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number name v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed (String.concat ", " fields)

let report_line name unit v = Printf.printf "  %-40s %14.4f %s\n" name v unit

(* ---- main ---------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload read-small|fleet-inventory|lifecycle-churn --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string v; go rest
    | "--seconds" :: v :: rest -> seconds := int_of_string v; go rest
    | "--trace" :: v :: rest -> trace := int_of_string v; go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  match List.find_opt (fun s -> s.name = !workload) specs with
  | Some spec when !seed >= 0 && !seconds > 0 && (!trace = 0 || !trace = 1) ->
    (spec, !seed, !seconds, !trace = 1)
  | _ -> usage ()

(* ---- the traced run ------------------------------------------------ *)

let write_calls = [ "create"; "suspend"; "resume"; "destroy"; "set_autostart"; "undefine"; "define_xml" ]

let per_layer_metrics ~(st : Stack.t) ~setups ~(untraced : window) ~(traced : window) ~final_failed
    ~(c0 : Peel.counters) ~(c1 : Peel.counters) ~(probe : Peel.probe) ~(rpc : Peel.rpc) ~tls
    ~(fleet : Peel.fleet) all =
  let us name = Trace.median (Trace.durations all name) *. 1e6 in
  let us_any names = Trace.median (List.concat_map (Trace.durations all) names) *. 1e6 in
  let ops = float_of_int (max 1 traced.attempted) in
  let per_op f = float_of_int (f c1 - f c0) /. ops in
  (* Per-write ratios come from the window when the workload writes,
     otherwise from the probe's writes. *)
  let per_write f =
    if traced.writes > 0 then float_of_int (f c1 - f c0) /. float_of_int traced.writes
    else float_of_int (f probe.Peel.p_after - f probe.Peel.p_before) /. float_of_int probe.Peel.p_writes
  in
  let ratio hits misses = if hits + misses = 0 then 0. else float_of_int hits /. float_of_int (hits + misses) in
  let e_u = e2e_of untraced and e_t = e2e_of traced in
  let lags = match st.Stack.lag_samples () with [] -> probe.Peel.p_lags | l -> l in
  let reads = float_of_int st.Stack.reads_per_op *. ops in
  let wire = float_of_int (c1.Peel.wire_calls - c0.Peel.wire_calls) in
  let attempted = untraced.attempted + traced.attempted in
  let rtt p = us ("rpc_client.call." ^ p) in
  let seal, open_ = tls in
  [
    ("setup.seed_s", "s", Trace.median (List.map (fun s -> s.seed_s) setups));
    ("setup.open_s", "s", Trace.median (List.map (fun s -> s.open_s) setups));
    ("setup.warmup_s", "s", Trace.median (List.map (fun s -> s.warmup_s) setups));
    ("trace.window_ops", "count", float_of_int traced.attempted);
    ("trace.window_writes", "count", float_of_int traced.writes);
    ( "trace.per_write_base", "count",
      float_of_int (if traced.writes > 0 then traced.writes else probe.Peel.p_writes) );
    ("trace.spans", "count", float_of_int (List.length all));
    ("failed_frac", "ratio", float_of_int (untraced.failed + traced.failed + final_failed) /. float_of_int (max 1 attempted));
    ("core.call_us.get_info", "us", us "core.get_info");
    ("core.call_us.xml_desc", "us", us "core.xml_desc");
    ("core.call_us.get_autostart", "us", us "core.get_autostart");
    ("core.call_us.list_all_domains", "us", us "core.list_all_domains");
    ("core.call_us.write", "us", us_any (List.map (fun c -> "core." ^ c) write_calls));
    ("drv_remote.wire_calls_per_op", "count", wire /. ops);
    ("drv_remote.reads_per_op", "count", float_of_int st.Stack.reads_per_op);
    ( "drv_remote.cache_hit_ratio", "ratio",
      Float.max 0. (1. -. ((wire -. float_of_int traced.writes) /. reads)) );
    ("drv_remote.self_us.get_info", "us", us "core.get_info" -. rtt "dom_get_info");
    ("drv_remote.self_us.xml_desc", "us", us "core.xml_desc" -. rtt "dom_get_xml");
    ("drv_remote.self_us.list_all_domains", "us", (fleet.Peel.member0_ms *. 1000.) -. rtt "dom_list_all");
    ("rpc_client.rtt_us.dom_get_info", "us", rtt "dom_get_info");
    ("rpc_client.rtt_us.dom_get_xml", "us", rtt "dom_get_xml");
    ("rpc_client.rtt_us.dom_list_all", "us", rtt "dom_list_all");
    ("rpc_client.rx_bytes_per_op", "bytes", rpc.Peel.rx_per_op);
    ("rpc_client.tx_bytes_per_op", "bytes", rpc.Peel.tx_per_op);
    ("transport.tls_seal_us_per_kib", "us/KiB", seal);
    ("transport.tls_open_us_per_kib", "us/KiB", open_);
    ("protocol.dec_us.dom_get_info", "us", us "protocol.dec.dom_get_info");
    ("protocol.dec_us.dom_get_xml", "us", us "protocol.dec.dom_get_xml");
    ("protocol.dec_us.dom_list_all", "us", us "protocol.dec.dom_list_all");
    ("protocol.enc_us.dom_get_info", "us", us "protocol.enc.dom_get_info");
    ("protocol.enc_us.dom_get_xml", "us", us "protocol.enc.dom_get_xml");
    ("protocol.enc_us.dom_list_all", "us", us "protocol.enc.dom_list_all");
    ("reactor.wakeups_per_op", "count", per_op (fun c -> c.Peel.wakeups));
    ("reactor.dispatches_per_op", "count", per_op (fun c -> c.Peel.dispatches));
    ( "reactor.bufpool_hit_ratio", "ratio",
      ratio (c1.Peel.buf_hits - c0.Peel.buf_hits) (c1.Peel.buf_misses - c0.Peel.buf_misses) );
    ("reactor.bufpool_takes_per_op", "count", per_op (fun c -> c.Peel.buf_hits + c.Peel.buf_misses));
    ( "daemon.reply_cache_hit_ratio", "ratio",
      ratio (c1.Peel.rc_hits - c0.Peel.rc_hits) (c1.Peel.rc_misses - c0.Peel.rc_misses) );
    ("daemon.reply_cache_lookups_per_op", "count", per_op (fun c -> c.Peel.rc_hits + c.Peel.rc_misses));
    ("daemon.reply_cache_evictions_per_op", "count", per_op (fun c -> c.Peel.rc_evictions));
    ("daemon.reply_cache_invalidations_per_write", "count", per_write (fun c -> c.Peel.rc_invalidations));
    ("daemon.reply_cache_bytes", "bytes", float_of_int c1.Peel.rc_bytes);
    ("daemon.events_emitted_per_write", "count", per_write (fun c -> c.Peel.ev_emitted));
    ("daemon.event_lag_p50_ms", "ms", Trace.median lags *. 1000.);
    ("threadpool.jobs_per_op", "count", per_op (fun c -> c.Peel.jobs_done));
    ("threadpool.queue_depth_max", "count", float_of_int (List.fold_left max 0 traced.samples));
    ("threadpool.shed", "count", float_of_int (c1.Peel.jobs_shed - c0.Peel.jobs_shed));
    ("threadpool.expired", "count", float_of_int (c1.Peel.jobs_expired - c0.Peel.jobs_expired));
    ("drivers.call_us.get_info", "us", us "drivers.get_info");
    ("drivers.call_us.xml_desc", "us", us "drivers.xml_desc");
    ("drivers.call_us.get_autostart", "us", us "drivers.get_autostart");
    ("drivers.call_us.list_all_domains", "us", us "drivers.list_all_domains");
    ("drivers.call_us.write", "us", us "drivers.write");
    ("hvsim.qmp_us", "us", us "hvsim.qmp");
    (* Appended bytes per write, from the probe: the window's net journal
       growth hides appends behind compaction rewrites. *)
    ( "persist.journal_bytes_per_write", "bytes",
      let grown = List.filter (fun d -> d >= 0) probe.Peel.p_journal_deltas in
      float_of_int (List.fold_left ( + ) 0 grown) /. float_of_int (max 1 (List.length grown)) );
    ("persist.append_us", "us", us "persist.append");
    ("fleet.list_ms", "ms", fleet.Peel.list_ms);
    ("fleet.slowest_member_ms", "ms", fleet.Peel.slowest_member_ms);
    ("fleet.members_sum_ms", "ms", fleet.Peel.members_sum_ms);
    (* The members' listings share the one CPU the benchmark runs on, so
       together they cover the sum of their times, not the slowest. *)
    ("fleet.self_ms", "ms", fleet.Peel.list_ms -. fleet.Peel.members_sum_ms);
    ("fleet.sub_errors", "count", float_of_int (fleet.Peel.sub_errors + c1.Peel.sub_errors - c0.Peel.sub_errors));
    ("gc.minor_words_per_op", "words", (c1.Peel.minor_words -. c0.Peel.minor_words) /. ops);
    ( "gc.major_collections_per_kop", "count",
      float_of_int (c1.Peel.major_collections - c0.Peel.major_collections) *. 1000. /. ops );
    ("gc.top_heap_mb", "MiB", float_of_int (c1.Peel.top_heap_words * (Sys.word_size / 8)) /. 1048576.);
    ("host.reference_loop_us", "us", 1e6 *. median_loop traced);
    ("trace.overhead_p50_ms", "ms", e_t.p50_ms -. e_u.p50_ms);
    ("trace.overhead_p90_ms", "ms", e_t.p90_ms -. e_u.p90_ms);
    ("trace.overhead_ops_per_s", "ops/s", e_t.ops_per_s -. e_u.ops_per_s);
    ("trace.overhead_cpu_ms_per_op", "ms", e_t.cpu_ms_per_op -. e_u.cpu_ms_per_op);
  ]

let out_dir = "perfbench-out"

let report_window label w =
  List.iter (fun e -> Printf.printf "  wrong answer (%s): %s\n" label e) w.errors;
  Printf.printf "  %s window: %d ops, %d failed, %.3f s\n" label w.attempted w.failed w.wall

let () =
  let spec, seed, seconds, trace = parse_args () in
  let secs = float_of_int seconds in
  Printf.printf "perfbench %s seed=%d seconds=%d trace=%b\n%!" spec.name seed seconds trace;
  let st, ks, setup0 = build_and_warm spec ~seed ~rep:0 ~trace in
  let nobufs = Array.make st.Stack.n_clients None in
  let untraced = run_window st ~ks ~stop_after:(`Seconds secs) ~bufs:nobufs () in
  report_window "untraced" untraced;
  let finish ~final ~attempted ~failed metrics =
    (match final with Error e -> Printf.printf "  final state check failed: %s\n" e | Ok () -> ());
    let correct = failed = 0 in
    List.iter (fun (n, u, v) -> report_line n u v) metrics;
    print_result ~correct ~attempted ~failed metrics;
    exit (if correct then 0 else 1)
  in
  if not trace then begin
    let e = e2e_of untraced in
    let wall = e2e_of ~wall:true untraced in
    report_line "wall-clock op_p50_ms" "ms" wall.p50_ms;
    report_line "wall-clock op_p90_ms" "ms" wall.p90_ms;
    report_line "wall-clock ops_per_s" "ops/s" wall.ops_per_s;
    report_line "wall-clock cpu_ms_per_op" "ms" wall.cpu_ms_per_op;
    report_line "reference loop, median" "us" (1e6 *. median_loop untraced);
    let final = st.Stack.final_check ~executed:ks in
    st.Stack.close ();
    let setups = setup0 :: extra_setups spec ~seed ~trace in
    let failed = untraced.failed + (match final with Ok () -> 0 | Error _ -> 1) in
    report_line "failed_frac" "ratio" (float_of_int failed /. float_of_int (max 1 untraced.attempted));
    finish ~final ~attempted:untraced.attempted ~failed
      [
        ("op_p50_ms", "ms", e.p50_ms);
        ("op_p90_ms", "ms", e.p90_ms);
        ("ops_per_s", "ops/s", e.ops_per_s);
        ("cpu_ms_per_op", "ms", e.cpu_ms_per_op);
        ("peak_rss_mb", "MiB", e.rss_mb);
        ("setup_s", "s", Trace.median (List.map total setups));
      ]
  end
  else begin
    let epoch = Unix.gettimeofday () in
    let admins = Peel.open_admins st in
    let bufs = Array.init st.Stack.n_clients (fun c -> Trace.create ~client:(c + 1)) in
    let c0 = Peel.snapshot st admins in
    let traced =
      run_window st ~ks ~stop_after:(`Seconds secs) ~bufs:(Array.map Option.some bufs)
        ~sample:(Peel.queue_depth admins) ()
    in
    let c1 = Peel.snapshot st admins in
    report_window "traced" traced;
    let final = st.Stack.final_check ~executed:ks in
    let pb = Trace.create ~client:0 in
    let probe = Peel.probe pb st admins ~seed in
    let rpc = Peel.rpc_replay pb st in
    Peel.drivers_replay pb st;
    Peel.codec_replay pb rpc;
    let tls = Peel.tls_replay pb rpc in
    let fleet = Peel.fleet_replay pb st in
    Peel.hvsim_replay pb st;
    Peel.persist_replay pb st;
    Peel.close_admins admins;
    st.Stack.close ();
    let setups = setup0 :: extra_setups spec ~seed ~trace in
    let all = Trace.spans (pb :: Array.to_list bufs) in
    let final_failed = match final with Ok () -> 0 | Error _ -> 1 in
    let metrics =
      per_layer_metrics ~st ~setups ~untraced ~traced ~final_failed ~c0 ~c1 ~probe ~rpc ~tls ~fleet all
    in
    (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let path = Printf.sprintf "%s/spans-%s.jsonl" out_dir spec.name in
    Trace.dump ~path ~epoch all;
    Printf.printf "  %d spans written to %s\n" (List.length all) path;
    finish ~final
      ~attempted:(untraced.attempted + traced.attempted)
      ~failed:(untraced.failed + traced.failed + final_failed)
      metrics
  end
