(** Horn's network flow: the exact test of MGRTS-ID on identical
    platforms.

    With unit-speed identical processors, constraint (4) lets a task run
    on at most one processor per slot, so a schedule reduces to
    [y_i(t) ∈ {0, 1}]: at most [m] tasks per slot (constraint (3)) and [C]
    units inside each job's window (constraints (2) and (5)).  Any such
    [y] is laid out on processors slot by slot.  That is a bipartite
    b-matching, decided by one max flow (W. A. Horn, "Some simple
    scheduling algorithms", NRLQ 21(1), 1974): a source edge of capacity
    [C] to each job, an edge of capacity 1 from a job to each slot of its
    cyclic window, and an edge of capacity [m] from each slot to the
    sink.  The instance is feasible iff the max flow is [Σ C]; in discrete
    time an integral flow is an integral schedule.

    The flow derives every job's window from [(O, C, D, T)] itself, with
    no {!Rt_model.Windows} or {!Rt_model.Jobmap}, so it is an oracle
    independent of the tables the search engines use.  A window is a
    cyclic interval, so the job→slot edges stay implicit and each window
    cell carries one byte of flow.  The max flow is Dinic's: one
    breadth-first level graph and one blocking flow per phase.

    Constrained-deadline task sets only (reduce with {!Rt_model.Clone}
    first). *)

type outcome =
  | Schedule of Rt_model.Schedule.t
      (** The max flow as a cyclic schedule over one hyperperiod.  At each
          slot the tasks run on processors [k − 1, …, 1, 0] in ascending
          task order, where [k] is the number of tasks the slot runs. *)
  | Cut of Certificate.t
      (** The max flow falls short: a certificate whose single step is the
          min cut's job set as a {!Certificate.Hall} step. *)
  | Stopped  (** [spend] refused a phase's work. *)

val solve : spend:(int -> bool) -> Rt_model.Taskset.t -> m:int -> outcome
(** Run the flow.  After each phase, [spend] is called with the phase's
    work (window cells and slot–task pairs scanned, path steps taken);
    when it returns [false] the flow stops.  So a caller's budget is
    overdrawn by one phase at most, and polled once per phase.
    Allocates [O(jobs + T)] words and one byte per window cell.
    @raise Invalid_argument on [m < 1] or a non-constrained-deadline
    task set. *)
