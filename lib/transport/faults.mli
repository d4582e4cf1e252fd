(** Deterministic fault injection for the simulated network.

    A {!plan} is a composable schedule of faults attached to a listener
    ({!Netsim.listen_direct}) or a single connection ({!Netsim.connect}).  Frame
    faults apply to the frames {e delivered to} the side the plan is
    attached to (the wire bytes, after the sender's transport wrap and
    before the receiver's unwrap, so corruption exercises the real
    checksum/MAC paths in {!Transport}); [Refuse_connect] applies at
    establishment time; connection kills close both directions.

    Everything nondeterministic (which byte of a frame gets flipped) is
    driven by the plan's PRNG seed, and per-connection streams derive from
    the seed plus a connection index, so a chaos run replays identically:
    same seed + same traffic → same faults. *)

type fault =
  | Refuse_connect  (** refuse every connection attempt *)
  | Drop_after of int
      (** kill the connection when the Nth frame arrives (the frame is
          lost with the connection).  Attached to a listener, this models
          "the connection dies every N frames": each accepted connection
          gets a fresh counter. *)
  | Delay of float  (** added latency, seconds, on every delivered frame *)
  | Corrupt_frame of int
      (** flip one PRNG-chosen bit of the Nth frame, then deliver it *)
  | Blackhole  (** accept writes, deliver nothing: frames silently vanish *)

type plan

type stats = {
  connects_refused : int;
  connections_killed : int;
  frames_corrupted : int;
  frames_delayed : int;
  frames_blackholed : int;
  frames_delivered : int;  (** delivered intact or corrupted, not dropped *)
}

val plan : ?seed:int -> fault list -> plan
(** Faults compose: [[Delay 0.001; Drop_after 50]] delays every frame and
    kills the connection at the 50th.  [seed] defaults to [1]. *)

val faults : plan -> fault list
val stats : plan -> stats

val refuses_connect : plan -> bool
(** True iff the plan contains [Refuse_connect]; bumps
    [connects_refused] when it does (callers ask exactly once per
    attempt). *)

val wrap : plan -> Chan.endpoint -> Chan.endpoint
(** Interpose the plan on an endpoint's receive path: returns an endpoint
    whose [incoming] channel is fed by a pump thread applying the plan
    frame by frame.  The [outgoing] side is shared untouched.  Killing
    faults close the underlying endpoint (both directions) so the peer
    observes the death too. *)
