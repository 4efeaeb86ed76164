(** Static schedulability analysis — the solver-free pre-pass.

    The paper prunes unsolvable instances only with the trivial [r > 1]
    utilization filter (Section VII) before paying full CSP search.  This
    module is the single pre-filter entry point of the library: it examines
    a task set and a processor count {e before any search} and returns

    - [Infeasible certificate] — a machine-checkable, pretty-printable
      chain of interval/slot demand arguments ({!Certificate.validate}
      re-verifies it independently);
    - [Pruned domains] — per-slot forced tasks, blocked cells, dead slots
      and a lower bound on any feasible [m] ({!Domains}), ready to seed
      every backend's search.

    The analyzer only refutes and prunes.  Feasible instances are
    answered before it runs, by the witness stage of {!Core.solve}: a
    verified global-LLF schedule ({!Sched.Sim.llf_witness}).

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
    + interval demand-bound tests: for cyclic intervals [[t1, t2)] from a
      release instant to an absolute deadline, the demand jobs are forced
      to place inside ([Σ max(0, C − usable slots outside)]) vs the
      supply [m·(t2−t1)].

    Window-based passes cost [O(n·T + Σ T/T_i·D_i)].  The interval tests
    sweep the slots once per start point, keeping the demand up to date,
    so they cost [O(starts·(T + window cells))]: a few milliseconds in the
    paper's regime ([T ≤ 420]).  Every pass draws its cost from
    [work_budget], the interval sweep one start point at a time; what
    would overrun it is skipped and {e reported} in {!report.skipped} —
    never silently dropped.

    Identical platforms and constrained-deadline task sets only: reduce
    arbitrary deadlines with {!Rt_model.Clone} first (as {!Core.solve}
    does transparently). *)

module Domains = Domains
module Certificate = Certificate

type verdict = Infeasible of Certificate.t | Pruned of Domains.t

type report = {
  verdict : verdict;
  m_lower : int;
      (** Lower bound on any feasible processor count, from m-independent
          arguments only (also stored in [Pruned] domains). *)
  skipped : string list;
      (** Passes not run, with the reason — e.g. a work-budget overrun on a
          Table IV-sized instance.  Empty means the analysis was complete. *)
  time_s : float;
}

val default_work_budget : int
(** [10^7] elementary window operations — the cost class of the former
    silent [slot_capacity_shortfall] guard, now reported when hit. *)

val analyze :
  ?work_budget:int -> ?wall:Prelude.Timer.budget -> Rt_model.Taskset.t -> m:int -> report
(** Run all passes.  [wall] (default {!Prelude.Timer.unlimited}) is polled
    at every budget checkpoint: once the wall clock runs out or the budget
    is cancelled, remaining passes are skipped and reported — so a caller
    capping the analyzer ({!Core.solve}'s pre-search pass, at half the
    request's remaining wall) never loses more than one checkpoint
    interval past its limit.
    @raise Invalid_argument on non-constrained-deadline task sets or
    [m < 1]. *)

val m_lower_bound : ?work_budget:int -> Rt_model.Taskset.t -> int
(** Smallest processor count not excluded by the m-independent arguments
    (utilization, laxity-zero slot counts, supply and interval bounds):
    the starting point for {!Core.min_processors}' scan.  At least
    [⌈U⌉]; [n + 1] when the set is provably infeasible on any number of
    processors.
    @raise Invalid_argument on non-constrained-deadline task sets. *)

val utilization_exceeds : Rt_model.Taskset.t -> m:int -> bool
(** The paper's [r > 1] filter, computed exactly (no float rounding and
    no overflow of [m·T]) — kept as a named fast path for the experiment
    tables' filter column and the serve front door. *)

(**/**)

(** Test-only access to the interval sweep and the fixpoint, at an
    unlimited work budget. *)
module For_tests : sig
  val interval_scan :
    ?allowed:bool array array -> Rt_model.Taskset.t -> m:int -> int * (int * int * int) option
  (** [(bound, hit)]: the largest [⌈demand/len⌉] over the candidate
      intervals, and the first [(start, len, demand)] in (start, end)
      order with [demand > m·len].  [allowed.(task).(slot)] restricts the
      counted window cells (default: all of them) and must leave every job
      at least [C] of them. *)

  val fixpoint_allowed : Rt_model.Taskset.t -> m:int -> bool array array option
  (** The usable cells after the forced-slot fixpoint; [None] when the
      fixpoint refutes [m]. *)
end
