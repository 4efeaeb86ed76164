(** Min-conflicts local search over the CSP2 representation.

    The paper's first future-work item (Section VIII): "using the same CSP
    formalizations with local search algorithms, although they won't be
    able to prove that a given instance is infeasible".

    The state is a full assignment of CSP2's variables — a task id or idle
    per (processor, slot) — kept consistent with constraints (7) (windows)
    and (8) (no intra-slot duplicates) by construction; the cost counts
    violations of the demand constraint (9): [Σ_jobs |received − C|].
    A move re-assigns one (processor, slot) cell to the value minimizing the
    cost, with random-walk noise to escape plateaus.

    Consequently the verdict is [Feasible] (cost reached 0, schedule
    verified) or [Limit] — never [Infeasible]. *)

type stats = {
  iterations : int;
  restarts : int;
  best_cost : int;  (** 0 on success. *)
  time_s : float;
}

val to_stats : backend:string -> stats -> Telemetry.Stats.t
(** The unified telemetry view: iterations play the role of [nodes] and
    restarts of [fails]. *)

val solve :
  ?seed:int ->
  ?noise:float ->
  ?budget:Prelude.Timer.budget ->
  ?restart_every:int ->
  Rt_model.Taskset.t ->
  m:int ->
  Encodings.Outcome.t * stats
(** [noise] (default 0.08) is the random-walk probability;
    [restart_every] (default 20·m·T iterations) re-seeds from a fresh
    greedy state.  The node budget counts iterations. *)
