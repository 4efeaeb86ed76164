(** CSP encoding #1 (Section IV): boolean variables on the generic solver.

    One 0/1 variable [x_{i,j}(t)] per (task, processor, slot) states whether
    task [i] runs on processor [j] at slot [t].  Constraints:

    - (2) [x_{i,j}(t) = 0] outside τ_i's availability windows — realized as
      domain [{0}] at construction, which is exactly the propagation the
      paper notes brings the variable count from [Σ m·T] down to
      [Σ m·(T/T_i)·D_i];
    - (3) [Σ_i x_{i,j}(t) <= 1] per (processor, slot);
    - (4) [Σ_j x_{i,j}(t) <= 1] per (task, slot);
    - (5) [Σ_{t∈window} Σ_j x_{i,j}(t) = C_i] per job — on heterogeneous
      platforms the weighted variant (11) [Σ s_{i,j}·x_{i,j}(t) = C_i], with
      [x_{i,j}(t) ∈ {0}] whenever [s_{i,j} = 0] (Section VI-A1).

    Theorem 1 (CSP1 ⟺ MGRTS-ID) makes {!decode} of any solution a feasible
    schedule; the test suite checks this against {!Rt_model.Verify}. *)

type t

val build :
  ?platform:Rt_model.Platform.t ->
  ?var_budget:int ->
  Rt_model.Taskset.t ->
  m:int ->
  t
(** Construct the model.  The variable budget (default 2M) emulates the
    memory cliff of the paper's Choco runs on Table IV sizes.
    @raise Fd.Engine.Too_large when [n·m·T] exceeds the budget.
    @raise Invalid_argument on non-constrained-deadline task sets. *)

val engine : t -> Fd.Engine.t
val horizon : t -> int

val var : t -> task:int -> proc:int -> time:int -> Fd.Engine.var
(** The variable [x_{task,proc}(time)]. *)

val decode : t -> (Fd.Engine.var -> int) -> Rt_model.Schedule.t
(** Theorem 1's [σ] built from a solution valuation. *)

val solve :
  ?platform:Rt_model.Platform.t ->
  ?var_budget:int ->
  ?var_heuristic:Fd.Search.var_heuristic ->
  ?value_heuristic:Fd.Search.value_heuristic ->
  ?seed:int ->
  ?budget:Prelude.Timer.budget ->
  ?restarts:bool ->
  Rt_model.Taskset.t ->
  m:int ->
  Outcome.t * Fd.Search.stats option
(** Build then search.  Default strategy is the randomized
    min-domain/random-value emulation of Choco's default (so different
    [seed]s may behave very differently, as in Section VII-B); [Memout] is
    reported instead of raising when the model is too large.  Stats are
    [None] only on memout. *)
