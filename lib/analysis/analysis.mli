(** Static schedulability analysis — the solver-free pre-pass.

    The paper prunes unsolvable instances only with the trivial [r > 1]
    utilization filter (Section VII) before paying full CSP search.  This
    module examines a task set and a processor count {e before any
    search} and decides it exactly on identical platforms, within its
    work budget:

    - [Infeasible certificate] — a machine-checkable, pretty-printable
      chain of slot or job-set demand arguments ({!Certificate.validate}
      re-verifies it independently);
    - [Feasible schedule] — a cyclic schedule from Horn's max flow
      ({!Flow}), which callers verify like any other schedule
      ({!Core.solve} does);
    - [Undecided] — the work budget or the wall stopped the passes; the
      search decides.

    The passes, in increasing cost order:

    + exact utilization test [Σ C_i·T/T_i > m·T] (the paper's [r > 1]);
    + laxity-zero forced execution: a job whose usable window slots number
      exactly [C] must run in all of them; a slot with more than [m]
      forced tasks is an immediate contradiction;
    + a fixpoint loop: a slot saturated by [m] forced tasks is removed
      from every other window, which can force or starve further jobs,
      until stable;
    + per-slot supply vs demand over the hyperperiod
      ([Σ_t min(m, available) < Σ C_i·T/T_i]);
    + Horn's max flow ({!Flow}): a schedule, or the min cut's job set [A]
      with [Σ_{j∈A} C_j > Σ_t min(m, |{j ∈ A : t ∈ w(j)}|)] as a
      {!Certificate.Hall} step.  The processor-demand argument of
      Bonifaci & Marchetti-Spaccamela is the special case where [A] is the
      set of jobs forced into one interval.

    The cheap passes cost [O(n·T + Σ T/T_i·D_i)] and come first because
    they settle the quick refutations at a fraction of the flow's cost.
    Every pass draws its cost from [work_budget], the flow one phase at a
    time; what would overrun it is skipped and {e reported} in
    {!report.skipped} — never silently dropped.

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
(** [10^7] elementary window operations: the window tables, the fixpoint
    and the flow's phases of an instance with up to a few million window
    cells. *)

val analyze :
  ?work_budget:int -> ?wall:Prelude.Timer.budget -> Rt_model.Taskset.t -> m:int -> report
(** Run all passes.  [wall] (default {!Prelude.Timer.unlimited}) is polled
    at every budget checkpoint, once per flow phase included: once the
    wall clock runs out or the budget is cancelled, remaining passes are
    skipped and reported — so a caller capping the analyzer
    ({!Core.solve}'s pre-search pass, at half the request's remaining
    wall) never loses more than one checkpoint interval past its limit.
    The flow runs inside a [flow] telemetry span.
    @raise Invalid_argument on non-constrained-deadline task sets or
    [m < 1]. *)

val m_lower_bound : ?work_budget:int -> Rt_model.Taskset.t -> int
(** Smallest processor count not excluded by the m-independent arguments
    (utilization, laxity-zero slot counts, supply and interval bounds):
    the starting point for {!Core.min_processors}' scan, and the bound
    [mgrts analyze] prints.  The interval bound is the processor-demand
    sweep over the cyclic intervals from a release instant to an absolute
    deadline; it runs only here, off the request path.  At least [⌈U⌉];
    [n + 1] when the set is provably infeasible on any number of
    processors.
    @raise Invalid_argument on non-constrained-deadline task sets. *)

val utilization_exceeds : Rt_model.Taskset.t -> m:int -> bool
(** The paper's [r > 1] filter, computed exactly (no float rounding and
    no overflow of [m·T]) — kept as a named fast path for the experiment
    tables' filter column and the serve front door. *)

(**/**)

(** Test-only access to the interval sweep behind {!m_lower_bound}. *)
module For_tests : sig
  val interval_bound : Rt_model.Taskset.t -> int
  (** The largest [⌈demand/len⌉] over the candidate intervals (at least
      1), at an unlimited work budget. *)
end
