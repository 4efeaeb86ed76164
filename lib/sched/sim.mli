(** Slot-level simulation of classic global schedulers.

    The paper's closing discussion contrasts systematic CSP search with
    priority-driven scheduling (and proposes searching priority orders as
    future work).  This simulator provides those baselines: work-conserving
    global EDF, LLF and fixed-priority (RM/DM/arbitrary order) scheduling of
    a periodic task set on identical processors, on the *absolute* timeline
    starting at t = 0.

    Unlike the CSP solvers, a priority-driven scheduler is not complete: a
    deadline miss only proves that this particular policy fails, not that
    the system is infeasible — that asymmetry (cf. the Dhall-style traps in
    {!Rt_model.Examples}) is what motivates the paper.

    The default horizon is [O_max + 2T], a feasibility interval for
    constrained-deadline periodic systems under deterministic memoryless
    policies: the scheduler state at [O_max + T] and [O_max + 2T] coincide,
    so a miss-free prefix extends periodically. *)

type policy =
  | EDF  (** Earliest absolute deadline first. *)
  | LLF  (** Least laxity (deadline − remaining work) first. *)
  | Fixed_priority of int array
      (** [priority.(i)] = rank of task [i], smaller = more urgent. *)

val rm_priorities : Rt_model.Taskset.t -> int array
(** Rate-monotonic ranks (ties by id). *)

val dm_priorities : Rt_model.Taskset.t -> int array
(** Deadline-monotonic ranks. *)

type miss = { task : int; job : int; at : int }

type result = {
  ok : bool;  (** No deadline missed within the simulated window. *)
  exact : bool;  (** The verdict is definitive: either a miss was found, or
                     the scheduler state repeated across hyperperiod
                     boundaries, so the simulated prefix extends forever. *)
  misses : miss list;  (** First few misses (the simulation keeps going). *)
  grid : Rt_model.Schedule.t;  (** What ran where; horizon = simulated length. *)
  busy : int;  (** Total busy processor-slots. *)
}

val run :
  ?horizon:int ->
  ?policy:policy ->
  ?max_hyperperiods:int ->
  Rt_model.Taskset.t ->
  m:int ->
  result
(** Simulate (default policy EDF).  Ties are broken by task id, making the
    simulation deterministic.  Each slot is one pass of an allocation-free
    step kernel over the tasks, shared with {!llf_witness}.

    Without [horizon] the simulation is adaptive: it runs hyperperiod
    chunks past [O_max] until the per-task backlog repeats at a chunk
    boundary (the deterministic scheduler then repeats forever — verdict
    exact), a miss occurs (exact), or [max_hyperperiods] (default 64) /
    the 10^7-cell memory cap is hit ([exact = false]; treat [ok] as "no
    miss found", not schedulability).  An overloaded system (utilization
    above capacity) always ends with a miss because its backlog grows.
    The first window, [(O_max + T)·m] cells, is checked against the cap
    before anything is simulated.

    With an explicit [horizon], exactly that many slots are simulated and
    [exact] is true only when a miss was found.
    @raise Invalid_argument on non-constrained-deadline systems, explicit
    horizons above 10^7 slots, or an adaptive first window above 10^7
    cells. *)

val llf_witness :
  budget:Prelude.Timer.budget -> Rt_model.Taskset.t -> m:int -> Rt_model.Schedule.t option
(** A cyclic schedule of one hyperperiod from global LLF, or [None].

    The run is {!run}[ ~policy:LLF] without a horizon, through the same
    kernel, but each slot [t] is written to cell [t mod T] of an [m × T]
    grid instead of a growing one, and the run stops at the first
    deadline miss.  When the backlog repeats at a hyperperiod boundary,
    the scheduler repeats that hyperperiod forever (the periodicity
    argument above), so the buffer — the last hyperperiod, folded mod
    [T] — is a feasible cyclic schedule in the paper's sense.  It is
    returned only if {!Rt_model.Verify.check} also accepts it.

    [None] when the first window [(O_max + T)·m] exceeds the 10^7-cell
    cap (checked before anything is allocated), on a miss, when no
    repetition shows within the caps of {!run}, or once [budget] (polled
    once per hyperperiod chunk) is exceeded or cancelled.  The grid is
    per-domain scratch ({!Prelude.Scratch}); a warm call allocates the
    returned schedule, when there is one, and O(n + m) words of state,
    nothing per simulated slot.
    @raise Invalid_argument on [m < 1] or a non-constrained-deadline
    system. *)
