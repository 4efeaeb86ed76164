(** CSP1 compiled to CNF for the CDCL SAT solver.

    Section IV motivates CSP1's boolean variables by noting that "even
    boolean satisfiability (SAT) solvers could be used"; this module cashes
    that remark in.  Only in-window (task, processor, slot) cells get a
    propositional variable; constraints (3) and (4) become at-most-one
    clauses and the per-job demand (5) an exactly-[C_i] sequential counter.

    Identical platforms only: the weighted demand (11) of heterogeneous
    platforms is a pseudo-boolean constraint, outside plain CNF cardinality
    (use the FD paths for those). *)

type t

val build : ?var_budget:int -> Rt_model.Taskset.t -> m:int -> t
(** @raise Fd.Engine.Too_large when the cell count exceeds the budget
    (same cliff semantics as {!Csp1.build}). *)

val solver : t -> Sat.Solver.t
val cell_count : t -> int
(** Number of propositional variables before the cardinality auxiliaries. *)

val to_dimacs : t -> Sat.Dimacs.cnf
(** Export the clause set (for external solvers or round-trip tests).
    Only valid before the first {!solve}/[Sat.Solver.solve] call. *)

val decode : t -> bool array -> Rt_model.Schedule.t

val solve :
  ?var_budget:int ->
  ?seed:int ->
  ?budget:Prelude.Timer.budget ->
  Rt_model.Taskset.t ->
  m:int ->
  Outcome.t * Sat.Solver.stats option
(** Build then search.  The build polls [budget] once per task, before
    the first clause and between tasks; when a poll fires, the rest of the
    CNF is not built and the result is [(Limit, None)].  [Memout] (stats
    [None]) when the model exceeds [var_budget]. *)
