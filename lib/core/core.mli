(** MGRTS — Global Multiprocessor Real-Time Scheduling as a CSP.

    One-stop facade over the library: pick a solver path, hand it a task
    set and a processor count, get a verified verdict back.  The underlying
    pieces remain available for fine-grained control:

    - {!Rt_model}: tasks, platforms, windows, schedules, verification;
    - {!Fd}: the generic finite-domain solver (CSP1/CSP2 encodings);
    - {!Sat}: the CDCL solver behind the CSP1→CNF path;
    - {!Csp2}: the paper's dedicated chronological solver;
    - {!Sched}, {!Localsearch}, {!Priority}: baselines and future-work
      extensions;
    - {!Gen}: the random instance generator of Section VII-A.

    {2 Quickstart}

    {[
      let ts = Rt_model.Examples.running_example in
      match Core.solve ts ~m:2 with
      | Core.Feasible schedule, _ ->
        Format.printf "%a@." Rt_model.Schedule.pp schedule
      | _ -> print_endline "no schedule"
    ]} *)

type solver =
  | Csp1_generic  (** Boolean encoding on the generic FD solver (Section IV). *)
  | Csp1_sat  (** Boolean encoding compiled to CNF (Section IV's SAT remark). *)
  | Csp2_generic  (** Multi-valued encoding on the generic solver (ablation). *)
  | Csp2_dedicated of Csp2.Heuristic.t
      (** The paper's hand-written chronological search (Section V):
          {!Csp2.Opt.solve} with [memo_mb:0], which runs the paper's rules
          exactly — no memo, no nogoods, no capacity bound.  Falls back to
          {!Csp2.Het} on heterogeneous platforms. *)
  | Csp2_opt of Csp2.Heuristic.t
      (** The same engine in its memo-on configuration (state-dominance
          memoization, nogood learning, the aggregate capacity bound) —
          sequential here; {!solve_csp2_opt} adds the subtree-splitting
          knobs and the engine counters.  Falls back to {!Csp2.Het} on
          heterogeneous platforms, like [Csp2_dedicated]. *)
  | Local_search  (** Min-conflicts (future work #1); cannot prove infeasibility. *)
  | Portfolio of int
      (** Race the {!Portfolio.default_specs} backends on the given number
          of domains; first decisive verdict wins, losers are cancelled.
          Through {!solve} this is {!solve_portfolio}. *)

val default_solver : solver
(** [Csp2_dedicated DC] — the paper's overall winner. *)

val solver_name : solver -> string

val solver_of_string : string -> solver option
(** Inverse of {!solver_name}'s CLI spellings (case-insensitive): [csp1],
    [csp1-sat]/[sat], [csp2-generic], [csp2], [csp2+rm/dm/tc/dc],
    [csp2-opt]/[opt] (also [+rm/dm/tc/dc]), [local]/[local-search],
    [portfolio].  [Portfolio] carries a placeholder job count of 0 —
    callers substitute their own.  Shared by the CLI converter and the
    serve protocol so the two front ends accept the same names. *)

val all_solvers : solver list
(** One of each family (D−C heuristic for the dedicated path, four jobs
    for the portfolio). *)

type verdict = Encodings.Outcome.t =
  | Feasible of Rt_model.Schedule.t
  | Infeasible
  | Limit
  | Memout of string

val solve :
  ?solver:solver ->
  ?platform:Rt_model.Platform.t ->
  ?budget:Prelude.Timer.budget ->
  ?seed:int ->
  ?verify:bool ->
  ?analyze:bool ->
  Rt_model.Taskset.t ->
  m:int ->
  verdict * float
(** Decide feasibility; returns the verdict and the wall-clock seconds
    spent.  [verify] (default true) re-checks any produced schedule against
    {!Rt_model.Verify} and raises [Failure] on a solver bug — schedules you
    receive are guaranteed feasible.

    [analyze] (default true) runs the pre-search pass first on identical
    platforms, the same pass for every entry point.  Its witness stage
    simulates global LLF ({!Sched.Sim.llf_witness}): a schedule the
    simulation proves periodic and {!Rt_model.Verify} accepts returns
    without any search.  Otherwise the {!Analysis} static pass runs,
    capped at half of [budget]'s remaining wall clock: a certified
    refutation returns without any search (so even [Local_search] can
    report [Infeasible] through this path), and otherwise the chosen
    backend searches the instance as given.  A cancelled [budget] skips
    the pass.  [analyze:false] restores the bare backend.  The pass is not
    contained here: an exception it raises reaches the caller.

    Every entry point ({!solve}, {!solve_portfolio}, {!solve_csp2_opt},
    {!analyze}) first checks that [n·T] and [m·T] — for the system it
    runs on, the clone system under arbitrary deadlines — stay within
    10{^8} window cells, the size of Table IV's largest instance rounded
    up, and raises [Invalid_argument "instance too large: ..."] before
    allocating anything otherwise.

    [Portfolio j] returns {!solve_portfolio}[ ~jobs:j]'s verdict.

    Arbitrary-deadline task sets are transparently reduced with the clone
    transform (Section VI-B); the returned schedule then spans the clone
    hyperperiod and refers to the original task ids — the static pass runs
    on the clone system, and with [verify] both the clone-level schedule
    {e and} the mapped-back schedule are checked (the latter against the
    original task set via {!Rt_model.Verify.check_cyclic}).  Heterogeneous platforms are supported by
    [Csp1_generic], [Csp2_generic] and the dedicated path (which switches
    to {!Csp2.Het}); [Csp1_sat] and [Local_search] raise
    [Invalid_argument] for them. *)

val admit : Rt_model.Taskset.t -> m:int -> unit
(** The admission check every entry point runs first: [n·T] and [m·T]
    within 10{^8} window cells, checked by division so that nothing wraps.
    Exposed for the front ends that build an encoding themselves
    ([mgrts dimacs]).
    @raise Invalid_argument ["instance too large: ..."] otherwise. *)

val feasible : ?solver:solver -> ?budget:Prelude.Timer.budget -> Rt_model.Taskset.t -> m:int -> bool option
(** [Some true]/[Some false] when decided, [None] on limit/memout. *)

val dispatch :
  solver ->
  platform:Rt_model.Platform.t ->
  budget:Prelude.Timer.budget ->
  seed:int ->
  Rt_model.Taskset.t ->
  m:int ->
  verdict
(** The bare backend dispatch used by {!solve}: no static pass, no clone
    transform, no schedule verification — constrained-deadline task sets
    only.  Exposed for callers (and tests) that need to pin the exact
    backend behavior.  [seed] only feeds the randomized backends; the
    dedicated CSP2 searches are deterministic and ignore it.
    [Csp2_dedicated]/[Csp2_opt] fall back to {!Csp2.Het} on heterogeneous
    platforms.
    @raise Invalid_argument when the platform is heterogeneous and the
    solver is [Csp1_sat], [Local_search] or [Portfolio]. *)

val solve_csp2_opt :
  ?heuristic:Csp2.Heuristic.t ->
  ?budget:Prelude.Timer.budget ->
  ?verify:bool ->
  ?analyze:bool ->
  ?memo_mb:int ->
  ?nogoods:bool ->
  ?jobs:int ->
  ?split_depth:int ->
  Rt_model.Taskset.t ->
  m:int ->
  verdict * float * Csp2.Opt.stats option
(** {!solve} specialized to the optimized engine via
    {!Csp2.Opt.solve_parallel}, exposing its knobs ([memo_mb] caps the
    combined memo + nogood tables, [0] turning them and the capacity
    bound off, [nogoods] toggles dominance-nogood
    learning, [jobs]/[split_depth] control subtree splitting) and
    returning the engine's counters — nodes, memo and nogood
    hits/misses/stores, subtrees, steals — or [None] when the pre-search
    pass (witness stage or static analyzer) decided without any search.  Identical platforms only (built
    from [m]); the clone transform and schedule verification behave
    exactly as in {!solve}. *)

val solve_portfolio :
  ?specs:Portfolio.spec list ->
  ?jobs:int ->
  ?budget:Prelude.Timer.budget ->
  ?seed:int ->
  ?verify:bool ->
  ?analyze:bool ->
  ?stall_beats:float ->
  Rt_model.Taskset.t ->
  m:int ->
  Portfolio.result
(** What [solve ~solver:(Portfolio jobs)] runs, returning the full race
    result — per-backend outcome, node/fail counts, times and the winner —
    for callers that report statistics ({!Portfolio.summary} renders it as
    one line).  Unless [analyze:false], {!solve}'s pre-search pass runs
    first, contained like an arm, and is reported as the first entry,
    {!Portfolio.analysis_arm_name}: it wins when it decides (every spec
    then [Not_started]), reads [Limit] with zero counters when it does
    not, and on a crash reads [Crashed] while the race runs.
    [stall_beats] tunes (or, with a
    non-positive value, disables) the stall watchdog.  Applies the same
    clone transform and schedule verification as {!solve}; identical
    platforms only. *)

val analyze :
  ?work_budget:int -> Rt_model.Taskset.t -> m:int -> Analysis.report * Rt_model.Taskset.t
(** The static pass alone, without any search.  Returns the report and the
    task set it refers to: the input itself when its deadlines are
    constrained, the clone system (Section VI-B) otherwise — certificates
    in the report name {e that} system's task ids and hyperperiod.
    [work_budget] as in {!Analysis.analyze}. *)

type min_processors_outcome = Rt_model.Minproc.min_processors_outcome =
  | Exact of int  (** True minimum: every smaller [m] was refuted. *)
  | Inconclusive of { first_limit : int; feasible : int option }
      (** A budgeted run was undecided at [first_limit] before the search
          could prove a minimum; [feasible], when present, is only an upper
          bound. *)
  | All_infeasible  (** Refuted for every [m <= max_m]. *)

val min_processors :
  ?solver:solver -> ?budget_per_m:Prelude.Timer.budget option -> ?max_m:int ->
  ?analyze:bool -> Rt_model.Taskset.t -> min_processors_outcome
(** Smallest [m] for which a schedule is found, starting from [⌈U⌉]
    (Section VII-E's closing suggestion) sharpened to the static analyzer's
    {!Analysis.m_lower_bound} unless [analyze:false], scanning up to
    [max_m] (default [n]).  With [budget_per_m], a [Limit]/[Memout]
    verdict at some [m] no longer masquerades as infeasibility: the result
    degrades to {!Inconclusive} carrying the smallest undecided [m]. *)

val min_processors_exn :
  ?solver:solver -> ?budget_per_m:Prelude.Timer.budget option -> ?max_m:int ->
  Rt_model.Taskset.t -> int option
(** Convenience wrapper for unbudgeted use: [Some m] for {!Exact},
    [None] for {!All_infeasible}.
    @raise Invalid_argument on an {!Inconclusive} outcome. *)

(** {1 Typed top-level errors}

    Bad input and resource exhaustion surface from the solver layers as a
    small set of exceptions: [Invalid_argument] for malformed task sets
    and parameters, {!Prelude.Intmath.Overflow} (or an [Invalid_argument]
    mentioning overflow, from [Taskset.of_tasks]) for hyperperiods that
    do not fit a native [int], and {!Portfolio.All_arms_crashed} when
    containment ran out of arms.  {!solve_result} and {!error_of_exn}
    classify them into a typed error a CLI or service can render —
    [mgrts] maps them to distinct nonzero exit codes
    ({!error_exit_code}). *)

type error =
  | Invalid_input of string  (** Malformed task set or invalid parameter. *)
  | Overflow of string  (** Hyperperiod (or other exact arithmetic) overflow. *)
  | All_arms_crashed of (string * string) list
      (** Every portfolio arm crashed ([(arm, exception text)] pairs). *)

val solve_result :
  ?solver:solver ->
  ?platform:Rt_model.Platform.t ->
  ?budget:Prelude.Timer.budget ->
  ?seed:int ->
  ?verify:bool ->
  ?analyze:bool ->
  Rt_model.Taskset.t ->
  m:int ->
  (verdict * float, error) result
(** {!solve} with the classified exceptions caught into [Error].
    Exceptions outside the classification (solver soundness bugs reported
    as [Failure], [Out_of_memory] on the unsupervised sequential paths)
    still raise. *)

val error_of_exn : exn -> error option
(** The classifier behind {!solve_result}, exposed so other entry points
    (the CLI wraps every subcommand, the serve daemon wraps every request)
    can reuse it.  [Sys_error] — a missing or unreadable input file — is
    classified as [Invalid_input]: file I/O problems are the caller's bad
    input, not a solver failure. *)

val error_message : error -> string
(** One human line, no trailing newline. *)

val error_exit_code : error -> int
(** Stable nonzero exit codes: 3 invalid input, 4 overflow, 5 all arms
    crashed.  (The CLI reserves 0 for decided, 2 for undecided runs.) *)
