(** Incremental search for the smallest feasible processor count.

    Pure control flow over an abstract [solve] callback, so it belongs to
    the model layer: {!Core.min_processors} hands it a solve that runs the
    static analyzer first, which on identical platforms decides each [m]
    exactly within its work budget. *)

type min_processors_outcome =
  | Exact of int
      (** Smallest feasible [m]; every smaller candidate was refuted, so
          this is the true minimum. *)
  | Inconclusive of { first_limit : int; feasible : int option }
      (** Some candidate hit the per-[m] budget before a feasible [m] was
          decided: [first_limit] is the smallest undecided [m] (the true
          minimum may be as low as that), [feasible] the smallest [m]
          actually proved feasible, if any — an upper bound only. *)
  | All_infeasible  (** Every [m <= max_m] was refuted. *)

val min_processors_feasible :
  solve:(m:int -> [ `Feasible | `Infeasible | `Undecided ]) ->
  Taskset.t ->
  max_m:int ->
  min_processors_outcome
(** Incremental search for the smallest feasible [m], starting from
    [⌈U⌉] (the paper's closing suggestion in Section VII-E) and stopping
    at the first [`Feasible] verdict.  A budget-limited [`Undecided]
    verdict is {e not} treated as infeasible: it demotes the final answer
    to {!Inconclusive} instead of silently inflating the reported
    minimum. *)
