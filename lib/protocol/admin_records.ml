(* The records that admin procedures return as typed parameters, each
   encoded and decoded through its table in [Admin_protocol].  Types
   only, so the module has no interface: it would repeat them. *)

type threadpool_info = {
  tp_min_workers : int;
  tp_max_workers : int;
  tp_n_workers : int;
  tp_free_workers : int;
  tp_prio_workers : int;
  tp_job_queue_depth : int;
  tp_job_queue_limit : int;  (** admission bound; 0 = unbounded *)
  tp_wall_limit_ms : int;  (** stuck-worker watchdog; 0 = off *)
}

(** Overload counters since pool creation, plus the live limits. *)
type pool_stats = {
  ps_jobs_done : int;
  ps_jobs_failed : int;  (** handler raised *)
  ps_jobs_shed : int;  (** rejected by admission control *)
  ps_jobs_expired : int;  (** deadline passed while queued *)
  ps_workers_stuck : int;  (** ever written off by the watchdog *)
  ps_workers_stuck_now : int;  (** still wedged *)
  ps_job_queue_depth : int;
  ps_job_queue_limit : int;
  ps_wall_limit_ms : int;
}

type client_limits = {
  nclients_max : int;
  nclients_current : int;
  nclients_unauth_max : int;
  nclients_unauth_current : int;
}

(** Aggregate replay-ring counters across the daemon's per-node event
    rings (v1.6 resumable subscriptions). *)
type event_stats = {
  es_rings : int;  (** rings created (one per distinct node opened) *)
  es_emitted : int;  (** events appended to rings since startup *)
  es_replayed : int;  (** events re-sent through resume replays *)
  es_gapped : int;  (** resumes answered with a gap verdict *)
  es_resumes : int;  (** resume calls served *)
  es_ring_occupancy : int;  (** retained events, summed over rings *)
  es_ring_capacity : int;  (** ring capacity, summed over rings *)
  es_subscribers : int;  (** live seq-tagged subscriptions *)
  es_head_seq : int;  (** highest stream position across rings *)
}

(** Aggregate reply-cache counters across the daemon's per-node caches.
    A cache holds only the two listing replies of its node, so the
    counters count listings. *)
type reply_cache_stats = {
  rc_caches : int;  (** caches created (one per distinct node opened) *)
  rc_hits : int;  (** listings answered from a cached body *)
  rc_misses : int;  (** listings that fell through to the handler *)
  rc_insertions : int;  (** bodies stored *)
  rc_invalidations : int;
      (** entries dropped by the event-driven flush or a stale
          generation stamp *)
  rc_evictions : int;
      (** entries dropped by the capacity bound: only a bound of 1 ever
          drops one, since a cache holds at most two keys *)
  rc_patched_sends : int;  (** cached replies sent from the receiving thread *)
  rc_entries : int;  (** currently cached bodies, summed over caches *)
  rc_bytes : int;  (** currently cached body bytes, summed over caches *)
  rc_enabled : bool;  (** the daemon-level [reply_cache] knob *)
}
