(** Stall watchdog: cancels arms which stop making progress.

    Every backend already emits rate-limited heartbeats from its budget
    checkpoints ({!Telemetry.heartbeat}) and polls its budget right
    after.  The watchdog turns those beats into liveness: each supervised
    arm registers a {e cell} ({!watch}), {!with_cell} binds the beats of
    the arm's domain to it, and on every beat the cell compares the clock
    with its previous beat.  A gap longer than the stall window marks the
    arm stalled and invokes its [cancel] callback — exactly once, on the
    arm's own domain, just before the arm's next budget poll.  No domain
    scans in the background: an arm that never beats again is never
    cancelled, and one that finishes before its next checkpoint keeps its
    verdict.

    The beat plumbing costs nothing when no watchdog is live: the
    {!Telemetry.set_on_beat} hook is installed while at least one watchdog
    is started and removed when the last one stops, so the heartbeat
    disabled path stays one atomic load. *)

type cell
(** One supervised arm's liveness record. *)

type t
(** A watchdog instance: the stall window its cells share. *)

val create : ?stall_beats:float -> unit -> t
(** A watchdog whose stall window is [stall_beats] (default 16.0) times
    the current {!Telemetry.heartbeat_interval}: an arm is stalled when
    two consecutive beats — or its start and its first beat — lie further
    apart than that. *)

val watch : t -> name:string -> cancel:(unit -> unit) -> cell
(** Register an arm.  [cancel] is invoked (once, from the arm's domain)
    when the arm resumes after a stall — typically [Timer.cancel] on that
    arm's private budget.  The cell starts fresh: the clock runs from
    now. *)

val stalled : cell -> bool
(** Whether the watchdog cancelled this arm for stalling. *)

val with_cell : cell -> (unit -> 'a) -> 'a
(** Run [f] with the calling domain's telemetry beats bound to [cell]
    (restored on exit): every {!Telemetry.heartbeat} emission the domain
    makes inside [f] checks and refreshes the cell. *)

val start : t -> unit
(** Count this watchdog live, installing the telemetry beat hook if it is
    the first. *)

val stop : t -> unit
(** Count this watchdog stopped, uninstalling the beat hook if it was the
    last live one. *)
