(** Budgeted solver invocations shared by the table reproductions. *)

type solver = {
  name : string;  (** Column label, matching the paper's. *)
  run :
    Rt_model.Taskset.t ->
    m:int ->
    budget:Prelude.Timer.budget ->
    seed:int ->
    Encodings.Outcome.t;
}

val csp1 : solver
(** CSP1 on the generic FD solver with the randomized default strategy —
    the "Choco with default search" column. *)

val csp2_variants : solver list
(** The paper's five dedicated-search columns: CSP2 (id order), +RM, +DM,
    +(T−C), +(D−C); all deterministic. *)

val table1_solvers : solver list
(** {!csp1} followed by {!csp2_variants} — Table I's column order. *)

val csp2_weak_variants : solver list
(** The same five columns with urgency propagation disabled — the weak
    search regime in which the paper's heuristic ordering
    (CSP2 > +RM > +DM > +(T−C) > +(D−C) overruns) becomes observable. *)

val table1_weak_solvers : solver list

val csp1_wdeg : solver
(** CSP1 with the conflict-driven dom/wdeg variable heuristic — a modern
    CP baseline the 2009 Choco default predates. *)

val csp1_sat : solver
val csp2_generic : ?symmetry:bool -> ?dc_value_order:bool -> unit -> solver

val csp2_opt : ?nogoods:bool -> ?memo_mb:int -> unit -> solver
(** The optimized engine ({!Csp2.Opt.solve}, D−C order) as a table
    column.  Runs on the calling domain's pooled engine, so campaigns
    driven through it rebind — not re-allocate — their memo, nogood and
    frame storage between instances; [nogoods:false] is the learning
    ablation column ("CSP2/opt-ng"). *)

val local_search : solver

val portfolio : ?jobs:int -> unit -> solver
(** {!Core.solve_portfolio} without schedule verification, like every
    other column: the pre-search pass, then the Domains-based race over
    {!Portfolio.default_specs}; [jobs] defaults to the machine's
    recommended domain count.  Lets the table reproductions report a
    portfolio column next to the sequential backends it races. *)

type run = {
  outcome : Encodings.Outcome.t;
  time_s : float;  (** Wall clock, capped at the budget for overruns. *)
  overrun : bool;  (** [Limit] or [Memout] — the paper counts both. *)
}

val run_one : solver -> Rt_model.Taskset.t -> m:int -> limit_s:float -> seed:int -> run
