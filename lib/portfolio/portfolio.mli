(** Parallel solver portfolio on OCaml 5 domains, with fault containment.

    Tables I–IV of the paper show no single strategy dominating: CSP1 wins
    some instances, each CSP2 value-ordering heuristic wins others, and the
    hard instances produce heavy-tailed overruns at the time limit.  The
    classic answer is to {e race} complementary strategies on the same
    instance and cancel the losers the moment one of them decides.

    Every arm runs an unmodified sequential backend under a budget derived
    from the caller's ({!Prelude.Timer.with_stop}): same wall/node limits,
    one shared stop flag.  The first arm returning a decisive verdict
    ([Feasible] or [Infeasible]) wins the compare-and-swap and raises the
    flag; the other arms observe it at their next budget poll — every
    backend polls at least each 256 search nodes — and return [Limit]
    promptly.  [Limit]/[Memout] arms are never winners: a local-search arm
    that gives up does not stop a complete solver mid-proof.

    The race is only the race: the pre-search pass (witness stage and
    static analyzer) belongs to {!Core}, whose {!Core.solve_portfolio}
    runs it before racing and passes the pruned [domains] in.

    {b Supervision} (see DESIGN.md §9): every arm runs inside a
    containment wrapper
    ({!Resilience.Supervise.protect}).  A crash ([Out_of_memory] while
    growing a memo, a [Stack_overflow] in a deep subtree, any solver
    bug) is recorded as that arm's {!arm_status} and the race continues;
    the freed domain backfills from the remaining work.  Failing
    csp2-opt and SAT arms are re-enqueued once in degraded form
    (retry-with-degradation), and a stall watchdog cancels — via that
    arm's private {!Prelude.Timer.fork} budget — any arm whose telemetry
    heartbeats go silent.  Only when {e every} search arm (retries
    included) crashed does the race surface the typed
    {!All_arms_crashed} error.

    The race is {e sound} because each backend is: a [Feasible] schedule is
    verified by the caller exactly as in the sequential paths, and an
    [Infeasible] only comes from complete searches.  Containment preserves
    this: a crashed arm contributes no verdict at all, so it can remove
    potential deciders but never inject a wrong answer.  The race is not
    deterministic in {e which} arm wins a tie, but the verdict itself is
    the same for any winner (decisive verdicts must agree; disagreement is
    reported as a solver bug by raising [Failure]). *)

type spec =
  | Csp2 of Csp2.Heuristic.t
      (** The paper's dedicated chronological search (identical
          platforms, urgency propagation on) under the given value
          ordering: {!Csp2.Opt.solve} with [memo_mb:0], so no memo, no
          nogoods and no capacity bound. *)
  | Csp2_opt of Csp2.Heuristic.t
      (** The same engine in its memo-on configuration: transposition
          table, nogood store and capacity bound.  Both CSP2 arms run
          sequentially (one arm = one domain; subtree splitting inside an
          arm would oversubscribe the race). *)
  | Csp1_sat  (** CSP1 compiled to CNF for the in-house CDCL solver. *)
  | Local_search  (** Min-conflicts; can win only with [Feasible]. *)

val spec_name : spec -> string

val analysis_arm_name : string
(** ["static-analysis"]: the name under which {!Core.solve_portfolio}
    reports, contains and traces its pre-search pass. *)

val default_specs : spec list
(** [csp2-opt+D-C, csp2+RM, csp1-sat, local-search, csp2+DM, csp2+T-C,
    csp2+D-C] — most complementary strategies first, so truncating to the
    first [jobs] arms keeps the strongest mix; the memo-free D−C search
    rides at the tail as a cross-check arm. *)

type arm_status =
  | Ran  (** Completed normally (its [outcome] says how). *)
  | Crashed of string
      (** Contained crash; the string is the exception text
          ({!Resilience.Supervise.crash_message}).  The exception and
          backtrace are also recorded as a [crash:<arm>] telemetry
          instant. *)
  | Stalled
      (** Cancelled by the stall watchdog, at the heartbeat that ended a
          silence longer than the stall window.  The arm still
          reports the (non-decisive) outcome it returned after the
          cancellation landed. *)
  | Not_started  (** The race ended before this spec's turn. *)

type backend_stats = {
  name : string;
      (** Spec name; a degraded re-run carries a ["(retry)"] suffix. *)
  outcome : Encodings.Outcome.t option;
      (** [None] when the arm never started or crashed. *)
  stats : Telemetry.Stats.t;
      (** The backend's unified counters ({!Telemetry.Stats}): SAT
          decisions/conflicts and local-search iterations/restarts map to
          [nodes]/[fails]; all-zero for an arm that never started or
          crashed. *)
  winner : bool;
  status : arm_status;
}

exception All_arms_crashed of (string * string) list
(** Every search arm that ran (retries included) crashed: no arm was even
    cut short by a budget, so there is no honest [Limit] to report.  The
    payload lists [(arm name, exception text)] per crash.  {!Core.solve_result}
    maps this to a typed error and [mgrts] to a dedicated exit code. *)

type result = {
  verdict : Encodings.Outcome.t;
      (** The winner's verdict, or [Limit] when no arm decided
          ([Memout] only when every arm ran out of memory). *)
  winner : string option;
  time_s : float;
      (** Wall clock of the whole race; {!Core.solve_portfolio} reports
          its pre-search pass in it too. *)
  backends : backend_stats list;
      (** One entry per spec, in spec order, followed by one
          ["<spec>(retry)"] entry per degraded re-run that started.
          {!Core.solve_portfolio} puts its {!analysis_arm_name} entry
          first: [nodes]/[fails] report statically forced/blocked cells,
          and a pass that only prunes shows as [Limit]. *)
}

val solve :
  ?specs:spec list ->
  ?jobs:int ->
  ?budget:Prelude.Timer.budget ->
  ?seed:int ->
  ?stall_beats:float ->
  ?domains:Analysis.Domains.t ->
  Rt_model.Taskset.t ->
  m:int ->
  result
(** Race [specs] (default {!default_specs}) with at most [jobs] domains
    (default {!Prelude.Parallel.recommended_jobs}[ ()], clamped to the
    spec count); with fewer domains than specs, idle domains pull the next spec
    from the queue until a verdict lands.  Identical platforms and
    constrained deadlines only, like the backends themselves ({!Core} runs
    the clone transform before racing).  [seed + arm index] seeds the
    randomized backends, so a single-job portfolio is deterministic.

    The caller's [budget] wall/node limits apply to every arm, and so does
    its stop flag: the race installs its own flag for the winner signal,
    but the caller's flag is kept watched ({!Prelude.Timer.with_stop}), so
    [Timer.cancel] on the original budget stops every arm promptly and
    the race returns [Limit].  Each arm additionally
    runs under a private {!Prelude.Timer.fork} of the race budget, which
    is what the stall watchdog ({!Resilience.Watchdog}) cancels: an arm
    whose heartbeats fall silent for more than [stall_beats] ×
    {!Telemetry.heartbeat_interval} seconds (default 16 beats of 0.5 s)
    is cancelled alone at its next heartbeat and marked {!Stalled}, and
    its domain backfills from the queue.  An arm that finishes before
    that heartbeat keeps its verdict.  [stall_beats <= 0] disables the
    watchdog.

    [domains], when given, seeds every arm's search; the race runs no
    analyzer of its own.
    @raise Invalid_argument on [m < 1], an empty [specs], or a [domains]
    fingerprint that does not match the instance (checked before any arm
    starts).
    @raise All_arms_crashed when every arm that ran crashed. *)

val summary : result -> string
(** One line: overall verdict, wall time, winner, then per-arm
    [name outcome] followed by {!Telemetry.Stats.summary} cells ([*] marks
    the winner, [-] an arm that never started, [!crashed(exn)] a contained
    crash, [~stalled] a watchdog cancellation). *)
