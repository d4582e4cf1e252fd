type io_model = Io_reactor

(* CI re-runs smokes with the server reply cache force-disabled to prove
   it never changes observable behaviour; the env override flips the
   whole default without touching every test's config literal. *)
let default_reply_cache =
  match Sys.getenv_opt "OVIRT_REPLY_CACHE" with
  | Some s -> (match int_of_string_opt (String.trim s) with Some n -> n | None -> 1)
  | None -> 1

type t = {
  io_model : io_model;
  reactor_threads : int;
  min_workers : int;
  max_workers : int;
  prio_workers : int;
  max_clients : int;
  max_anonymous_clients : int;
  admin_min_workers : int;
  admin_max_workers : int;
  admin_max_clients : int;
  log_level : Vlog.priority;
  log_filters : Vlog.filter list;
  log_outputs : Vlog.output list;
  proto_minor : int;
  event_ring : int;
  reply_cache : int;
  reply_cache_entries : int;
  job_queue_limit : int;
  wall_limit_ms : int;
  reconcile_interval_ms : int;
  parallel_shutdown : int;
}

let default =
  {
    io_model = Io_reactor;
    reactor_threads = 2;
    min_workers = 5;
    max_workers = 20;
    prio_workers = 5;
    max_clients = 120;
    max_anonymous_clients = 20;
    admin_min_workers = 1;
    admin_max_workers = 5;
    admin_max_clients = 5;
    log_level = Vlog.Error;
    log_filters = [];
    log_outputs = [ { Vlog.min_priority = Vlog.Debug; sink = Vlog.Stderr } ];
    proto_minor = Protocol.Remote_protocol.minor;
    event_ring = 1024;
    reply_cache = default_reply_cache;
    reply_cache_entries = 512;
    job_queue_limit = 0;
    wall_limit_ms = 0;
    reconcile_interval_ms = 2000;
    parallel_shutdown = 4;
  }

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

type raw_value = V_int of int | V_string of string

let parse_line lineno line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let line = String.trim line in
  if line = "" then Ok None
  else
    match String.index_opt line '=' with
    | None -> Error (Printf.sprintf "line %d: expected 'key = value'" lineno)
    | Some i ->
      let key = String.trim (String.sub line 0 i) in
      let value = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
      if key = "" then Error (Printf.sprintf "line %d: empty key" lineno)
      else if String.length value >= 2 && value.[0] = '"' then
        if value.[String.length value - 1] = '"' then
          Ok (Some (key, V_string (String.sub value 1 (String.length value - 2))))
        else Error (Printf.sprintf "line %d: unterminated string" lineno)
      else
        (match int_of_string_opt value with
         | Some n -> Ok (Some (key, V_int n))
         | None -> Error (Printf.sprintf "line %d: bad value %S" lineno value))

let ( let* ) = Result.bind

let want_int key = function
  | V_int n when n >= 0 -> Ok n
  | V_int _ -> Error (Printf.sprintf "%s: must be non-negative" key)
  | V_string _ -> Error (Printf.sprintf "%s: expected an integer" key)

let want_string key = function
  | V_string s -> Ok s
  | V_int _ -> Error (Printf.sprintf "%s: expected a quoted string" key)

let apply cfg key value =
  match key with
  | "io_model" ->
    let* s = want_string key value in
    if s = "reactor" then Ok { cfg with io_model = Io_reactor }
    else
      Error
        (Printf.sprintf "io_model: unknown model %S (the only model is \"reactor\")" s)
  | "reactor_threads" ->
    let* n = want_int key value in
    if n < 1 then Error "reactor_threads: must be at least 1"
    else Ok { cfg with reactor_threads = n }
  | "min_workers" ->
    let* n = want_int key value in
    Ok { cfg with min_workers = n }
  | "max_workers" ->
    let* n = want_int key value in
    Ok { cfg with max_workers = n }
  | "prio_workers" ->
    let* n = want_int key value in
    Ok { cfg with prio_workers = n }
  | "max_clients" ->
    let* n = want_int key value in
    Ok { cfg with max_clients = n }
  | "max_anonymous_clients" ->
    let* n = want_int key value in
    Ok { cfg with max_anonymous_clients = n }
  | "admin_min_workers" ->
    let* n = want_int key value in
    Ok { cfg with admin_min_workers = n }
  | "admin_max_workers" ->
    let* n = want_int key value in
    Ok { cfg with admin_max_workers = n }
  | "admin_max_clients" ->
    let* n = want_int key value in
    Ok { cfg with admin_max_clients = n }
  | "log_level" ->
    let* n = want_int key value in
    let* level = Vlog.priority_of_int n in
    Ok { cfg with log_level = level }
  | "log_filters" ->
    let* s = want_string key value in
    let* filters = Vlog.parse_filters s in
    Ok { cfg with log_filters = filters }
  | "log_outputs" ->
    let* s = want_string key value in
    let* outputs = Vlog.parse_outputs s in
    Ok { cfg with log_outputs = outputs }
  | "proto_minor" ->
    let* n = want_int key value in
    if n > Protocol.Remote_protocol.minor then
      Error
        (Printf.sprintf "proto_minor: this build speaks at most %d"
           Protocol.Remote_protocol.minor)
    else Ok { cfg with proto_minor = n }
  | "event_ring" ->
    let* n = want_int key value in
    if n < 1 then Error "event_ring: must be at least 1"
    else Ok { cfg with event_ring = n }
  | "reply_cache" ->
    let* n = want_int key value in
    Ok { cfg with reply_cache = n }
  | "reply_cache_entries" ->
    let* n = want_int key value in
    if n < 1 then Error "reply_cache_entries: must be at least 1"
    else Ok { cfg with reply_cache_entries = n }
  | "job_queue_limit" ->
    let* n = want_int key value in
    Ok { cfg with job_queue_limit = n }
  | "wall_limit_ms" ->
    let* n = want_int key value in
    Ok { cfg with wall_limit_ms = n }
  | "reconcile_interval_ms" ->
    let* n = want_int key value in
    Ok { cfg with reconcile_interval_ms = n }
  | "parallel_shutdown" ->
    let* n = want_int key value in
    if n < 1 then Error "parallel_shutdown: must be at least 1"
    else Ok { cfg with parallel_shutdown = n }
  | key -> Error (Printf.sprintf "unknown configuration key %S" key)

let parse contents =
  let lines = String.split_on_char '\n' contents in
  let rec go cfg lineno = function
    | [] -> Ok cfg
    | line :: rest ->
      let* parsed = parse_line lineno line in
      (match parsed with
       | None -> go cfg (lineno + 1) rest
       | Some (key, value) ->
         let* cfg = apply cfg key value in
         go cfg (lineno + 1) rest)
  in
  go default 1 lines

let to_file cfg =
  String.concat "\n"
    [
      Printf.sprintf "reactor_threads = %d" cfg.reactor_threads;
      Printf.sprintf "min_workers = %d" cfg.min_workers;
      Printf.sprintf "max_workers = %d" cfg.max_workers;
      Printf.sprintf "prio_workers = %d" cfg.prio_workers;
      Printf.sprintf "max_clients = %d" cfg.max_clients;
      Printf.sprintf "max_anonymous_clients = %d" cfg.max_anonymous_clients;
      Printf.sprintf "admin_min_workers = %d" cfg.admin_min_workers;
      Printf.sprintf "admin_max_workers = %d" cfg.admin_max_workers;
      Printf.sprintf "admin_max_clients = %d" cfg.admin_max_clients;
      Printf.sprintf "log_level = %d" (Vlog.priority_to_int cfg.log_level);
      Printf.sprintf "log_filters = \"%s\"" (Vlog.format_filters cfg.log_filters);
      Printf.sprintf "log_outputs = \"%s\"" (Vlog.format_outputs cfg.log_outputs);
      Printf.sprintf "proto_minor = %d" cfg.proto_minor;
      Printf.sprintf "event_ring = %d" cfg.event_ring;
      Printf.sprintf "reply_cache = %d" cfg.reply_cache;
      Printf.sprintf "reply_cache_entries = %d" cfg.reply_cache_entries;
      Printf.sprintf "job_queue_limit = %d" cfg.job_queue_limit;
      Printf.sprintf "wall_limit_ms = %d" cfg.wall_limit_ms;
      Printf.sprintf "reconcile_interval_ms = %d" cfg.reconcile_interval_ms;
      Printf.sprintf "parallel_shutdown = %d" cfg.parallel_shutdown;
      "";
    ]
