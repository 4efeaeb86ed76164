(** Schedule verification against the paper's feasibility conditions.

    A schedule is feasible (Section III-C) when
    - C1: every unit of task i executes inside one of its availability
      windows;
    - C2: at most one task per processor per instant (holds by the
      {!Schedule} representation);
    - C3: a task runs on at most one processor per instant (no
      intra-task parallelism);
    - C4: each job receives exactly [C_i] units of execution — on
      heterogeneous platforms, units weighted by the rates [s_{i,j}]
      (constraint (11)).

    The verifier also rejects cells that schedule a task on a processor with
    rate 0, mirroring the domain restriction [D_{i,j}(t) = {0}] of
    Section VI-A1.

    The verifier is the ground truth for the whole test suite: every solver
    path (CSP1 on the generic solver, CSP1 via SAT, CSP2 dedicated, local
    search, simulated baselines) must produce schedules this module
    accepts. *)

type violation =
  | Bad_task of { proc : int; time : int; value : int }
      (** Cell holds an id outside [[-1, n-1]]. *)
  | Out_of_window of { proc : int; time : int; task : int }
      (** C1 violated: the task has no window covering the slot. *)
  | Parallelism of { time : int; task : int; procs : int * int }
      (** C3 violated: same task on two processors in one slot. *)
  | Zero_rate of { proc : int; time : int; task : int }
      (** Task scheduled on a processor that cannot serve it. *)
  | Wrong_amount of { task : int; job : int; expected : int; got : int }
      (** C4 violated: job received [got] ≠ [expected] units. *)
  | Wrong_total of { task : int; expected : int; got : int }
      (** C4 violated in aggregate ({!check_cyclic}): the task received
          [got] units over the whole cycle instead of [expected]. *)

val pp_violation : Format.formatter -> violation -> unit

val check :
  ?platform:Platform.t -> ?max_violations:int -> Taskset.t -> Schedule.t ->
  (unit, violation list) result
(** [check ts sched] verifies the schedule for the task set on the given
    platform (default: identical with the schedule's processor count).
    At most [max_violations] (default 32) violations are collected.

    Cost, for [m] processors over the hyperperiod [H] and [J = Σ_i H/T_i]
    jobs: one pass over the schedule's rows, in which each executed cell
    finds its job with one division and adds its units to one int array
    of [J] entries.  Time is O(m·H + n + J), space O(n + J) words;
    nothing is allocated per cell, except a violation when one is
    reported.
    @raise Invalid_argument if the schedule horizon differs from the
    hyperperiod, the platform's processor count differs from the
    schedule's, or some task has [D_i > T_i]. *)

val check_cyclic :
  ?platform:Platform.t -> ?max_violations:int -> Taskset.t -> Schedule.t ->
  (unit, violation list) result
(** Like {!check} but for cyclic schedules whose horizon is any positive
    multiple of the hyperperiod, and with arbitrary deadlines allowed —
    this is the shape {!Clone.map_schedule} returns, so it is the ground
    truth for clone-mapped schedules.  With [D_i > T_i] the windows of one
    task overlap and a cell no longer names its job; C1/C3/C4 are checked
    as an exact assignment (each job receives exactly [C_i] units inside
    its own window, at most one per instant, every executed cell assigned
    to some job), computed per task with augmenting paths.  C3 is enforced
    at {e job} granularity: two live jobs of one arbitrary-deadline task
    are distinct clones in the paper's reduction and may legitimately run
    in parallel, so {!Parallelism} is never reported here — an
    over-parallel job surfaces as {!Wrong_amount} instead.  On cells whose
    rate differs from 1 the exact partition degrades to aggregate checks
    (window membership and the per-cycle total, reported as
    {!Wrong_total}).

    Cost, for a schedule of [m] processors over horizon [H], with
    [J_i = H/T_i] jobs of task [i] and [J = Σ_i J_i].  The check first
    runs {!check}'s flat pass over the tasks with [D_i <= T_i], on
    identical platforms: there a slot lies in at most one window of its
    task, so the assignment has a single candidate per cell, and the pass
    alone accepts the task when every cell is in a window, the task runs
    at most once per slot, and every job gets exactly [C_i] units.  That
    costs O(m·H + n + J) time and O(n + J) words, and it is the whole
    check for a feasible constrained-deadline schedule, as every cache
    hit of [mgrts serve] on the paper's task sets is.

    The exact assignment runs for the tasks with [D_i > T_i], on
    other platforms, and, for every task, on any schedule the pass
    refuses, so that it alone reports and the violations and their order
    stay its own.  With [c_i] executed cells of task [i], each cell tries
    only the jobs whose window holds it, at most [⌈D_i/T_i⌉] of them, and
    the task's (job, instant) tables hold one entry per instant of each
    job's window, [J_i·D_i].  Time is O(m·H + Σ_i J_i·D_i) for the scan
    and the tables, plus O(Σ_i c_i·⌈D_i/T_i⌉) when every cell is placed
    on its first try; otherwise a cell may run one depth-first search
    over its task's (cell, job, instant) graph, which visits each cell
    and each table entry at most once.  Space is O(m·H + Σ_i J_i·D_i)
    words: about 17 words per schedule cell on the paper's task sets.
    @raise Invalid_argument if the horizon is not a multiple of the
    hyperperiod, a deadline exceeds the horizon, or the platform's
    processor count differs from the schedule's. *)

val is_feasible : ?platform:Platform.t -> Taskset.t -> Schedule.t -> bool
