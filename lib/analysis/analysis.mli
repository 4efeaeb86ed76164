(** Static schedulability analysis — the solver-free pre-pass.

    The paper prunes unsolvable instances only with the trivial [r > 1]
    utilization filter (Section VII) before paying full CSP search.  This
    module examines a task set and a processor count {e before any
    search} and decides it exactly on identical platforms, within its
    work budget:

    - [Infeasible certificate] — a machine-checkable, pretty-printable
      demand argument ({!Certificate.validate} recounts it
      independently);
    - [Feasible schedule] — a cyclic schedule from Horn's max flow
      ({!Flow}), which callers verify like any other schedule
      ({!Core.solve} does);
    - [Undecided] — the work budget or the wall stopped the passes; the
      search decides.

    The passes, in increasing cost order:

    + exact utilization test [Σ C_i·T/T_i > m·T] (the paper's [r > 1]),
      a {!Certificate.Utilization} step;
    + the all-jobs cut: [Σ_t min(m, #tasks whose window holds t) <
      Σ C_i·T/T_i], the cut of Horn's network that puts every job on the
      source side, a {!Certificate.Supply_shortfall} step.  It costs one
      pass over the jobs and one over the slots, and settles refutations
      the flow would need many phases for;
    + Horn's max flow ({!Flow}): a schedule, or the min cut's job set [A]
      with [Σ_{j∈A} C_j > Σ_t min(m, |{j ∈ A : t ∈ w(j)}|)] as a
      {!Certificate.Hall} step.  The processor-demand argument of
      Bonifaci & Marchetti-Spaccamela is the special case where [A] is the
      set of jobs forced into one interval.

    The window passes are charged [n·T + Σ T/T_i·D_i] up front against
    [work_budget], the flow then one phase at a time; what would overrun
    it is skipped and {e reported} in {!report.skipped} — never silently
    dropped.

    Identical platforms and constrained-deadline task sets only: reduce
    arbitrary deadlines with {!Rt_model.Clone} first (as {!Core.solve}
    does transparently). *)

module Certificate = Certificate
module Flow = Flow

type verdict =
  | Infeasible of Certificate.t
  | Feasible of Rt_model.Schedule.t
      (** Not yet verified: check it with {!Rt_model.Verify.check}. *)
  | Undecided

type report = {
  verdict : verdict;
  skipped : string list;
      (** Passes not run, with the reason — e.g. a work-budget overrun on a
          Table IV-sized instance.  Empty means the analysis was complete. *)
  time_s : float;
}

val default_work_budget : int
(** [10^7] elementary window operations: the window charge and the
    flow's phases of an instance with up to a few million window
    cells. *)

val analyze :
  ?work_budget:int -> ?wall:Prelude.Timer.budget -> Rt_model.Taskset.t -> m:int -> report
(** Run all passes.  [wall] (default {!Prelude.Timer.unlimited}) is polled
    at every budget checkpoint, once per flow phase included: once the
    wall clock runs out or the budget is cancelled, remaining passes are
    skipped and reported — so a caller capping the analyzer
    ({!Core.solve}'s pre-search pass, at half the request's remaining
    wall) never loses more than one checkpoint interval past its limit.
    @raise Invalid_argument on non-constrained-deadline task sets or
    [m < 1]. *)

val utilization_exceeds : Rt_model.Taskset.t -> m:int -> bool
(** The paper's [r > 1] filter, computed exactly (no float rounding and
    no overflow of [m·T]) — kept as a named fast path for the experiment
    tables' filter column and the serve front door. *)
