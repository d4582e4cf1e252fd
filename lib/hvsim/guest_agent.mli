(** In-guest management agent: the {e intrusive} baseline (experiment E7).

    Models the approach the paper's title argues against: a software agent
    installed inside every guest, reached over a guest channel.  Three
    properties of intrusive management are captured physically:

    - {b deployment cost}: {!install} must run once per guest and does
      real work (writes the agent's footprint into guest memory);
    - {b availability}: commands fail unless the guest is {e running} —
      a paused, shut-off or crashed guest has no agent to talk to;
    - {b interference}: every command executes inside the guest, dirtying
      guest pages (visible to migration) — hypervisor-side management
      touches none.

    The wire protocol is QMP-flavoured JSON, parsed for real on both
    sides.  Supported commands: [guest-ping], [guest-info], [guest-exec]
    (arguments: [cmd]), [guest-shutdown]. *)

type endpoint

val create :
  image:Vmm.Guest_image.t ->
  state:(unit -> Vmm.Vm_state.state) ->
  request_shutdown:(unit -> unit) ->
  endpoint
(** Bind the channel to a guest's memory and state; [request_shutdown] is
    invoked when the guest processes [guest-shutdown]. *)

val installed : endpoint -> bool

val install : endpoint -> (unit, string) result
(** One-time in-guest installation; fails unless the guest is running.
    Writes {!install_footprint_pages} pages. *)

val install_footprint_pages : int

val exec : endpoint -> string -> string
(** One agent exchange: JSON request in, JSON reply out.  Errors (agent
    not installed, guest not running, unknown command) come back as
    [{"error": {...}}] — the channel itself never fails. *)

val commands_served : endpoint -> int
