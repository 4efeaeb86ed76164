(** CSP encoding #2 (Section V) rendered on the *generic* solver.

    The paper pairs CSP2 with a hand-written search (our {!Csp2} library);
    this module instead posts CSP2's constraints on the generic FD solver,
    which isolates the contribution of the encoding from that of the search
    strategy — the ablation our benchmark harness reports alongside the
    paper's tables.

    Variables: one [(n+1)]-valued [x_j(t)] per (processor, slot), value −1
    for "no task" (6).  Constraints:

    - (7) + Section VI-A2's domain restriction: value [i ∈ D_j(t)] only if
      slot [t] lies in a window of τ_i and [s_{i,j} > 0];
    - (8): two processors agree only on idle — all-different-except-(−1)
      per slot;
    - (9)/(12): per-job (weighted) occurrence equals [C_i];
    - (10)/(13) (optional): ascending value order across (groups of
      identical) processors, the static symmetry breaker. *)

type t

val build :
  ?platform:Rt_model.Platform.t ->
  ?symmetry:bool ->
  ?var_budget:int ->
  Rt_model.Taskset.t ->
  m:int ->
  t
(** @raise Fd.Engine.Too_large when [m·T] exceeds the variable budget. *)

val engine : t -> Fd.Engine.t
val horizon : t -> int

val var : t -> proc:int -> time:int -> Fd.Engine.var
val decode : t -> (Fd.Engine.var -> int) -> Rt_model.Schedule.t

val solve :
  ?platform:Rt_model.Platform.t ->
  ?symmetry:bool ->
  ?var_budget:int ->
  ?var_heuristic:Fd.Search.var_heuristic ->
  ?value_heuristic:Fd.Search.value_heuristic ->
  ?seed:int ->
  ?budget:Prelude.Timer.budget ->
  ?restarts:bool ->
  Rt_model.Taskset.t ->
  m:int ->
  Outcome.t * Fd.Search.stats option
