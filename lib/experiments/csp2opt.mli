(** CSP2OPT benchmark section: the engine's two configurations.

    Over a generated batch (Table I distribution, instances the analyzer
    refutes skipped so only real search is measured), runs four
    configurations per instance under the configured per-run budget:

    - "classic": {!Csp2.Opt.solve} with [memo_mb:0] (D−C heuristic), the
      paper's rules exactly — node for node the classic engine this
      column measured before it was retired to the test suite's
      reference, so the JSON keys keep their names;
    - {!Csp2.Opt.solve} — bitsets, transposition table, nogood
      learning, capacity bound;
    - the same with [nogoods:false] (the learning ablation);
    - {!Csp2.Opt.solve_parallel} with [jobs] domains.

    Accumulates node counts and wall clocks over the instances both
    engines decided (the acceptance measurement: the optimized engine
    must explore markedly fewer nodes at equal verdicts), memo and
    nogood hit/store counters with their hit rates, frontier sizes, and
    re-verifies every schedule the optimized engine produces.  A final
    batch phase re-solves the searched campaign back-to-back with warm
    pooled engines and again with {!Csp2.Opt.reset_caches} forced
    before every solve, so the artifact records what arena/epoch reuse
    is worth on wall clock.  The three batch configurations are timed
    in interleaved rounds (after an untimed lead-in pass) so load drift
    on the host lands on all of them about equally. *)

type totals = {
  instances : int;
  searched : int;  (** Not refuted by the analyzer: the engines actually ran. *)
  classic_decided : int;
  opt_decided : int;
  compared : int;  (** Decided by both classic and opt. *)
  verdicts_equal : int;  (** Same constructor on compared instances. *)
  schedules_valid : int;  (** Opt [Feasible] schedules passing {!Rt_model.Verify}. *)
  feasible_checked : int;
  nodes_classic : int;  (** Over compared instances. *)
  nodes_opt : int;
  nodes_opt_searched : int;
      (** Nogoods-on nodes over {e all} searched instances.  The
          ablation pair accumulates on this wider basis because the
          instances where learning pays are exactly the ones the
          classic solver times out on, which never enter [compared];
          on the compared set both numbers sit at the
          schedule-construction floor (feasible first descents). *)
  nodes_opt_nonogood : int;  (** Same engine and basis, nogood learning off. *)
  memo_hits : int;
  memo_misses : int;
  memo_stores : int;
  nogood_hits : int;
  nogood_misses : int;
  nogood_stores : int;
  nogood_evicted : int;
  subtrees : int;  (** Work items deep-solved by the parallel runs. *)
  pulls : int;  (** Items workers took from their own deques. *)
  steals : int;  (** Items taken from {e another} worker's deque — the honest count. *)
  parks : int;  (** Idle-worker sleeps while out of stealable work. *)
  parallel_jobs : int;
  classic_wall_s : float;  (** Summed over compared instances. *)
  opt_wall_s : float;
  opt_parallel_wall_s : float;
  batch_solves : int;  (** Searched instances × passes (each campaign runs 3×). *)
  batch_passes : int;
  batch_reuse_wall_s : float;  (** Back-to-back campaign, warm pooled engines. *)
  batch_nonogood_wall_s : float;
      (** Same warm campaign, learning gated off — the equal-footing
          wall side of the nogood ablation (interleaved per-instance
          walls are order-biased by OS/allocator warmth). *)
  batch_fresh_wall_s : float;  (** Same campaign, caches dropped before every solve. *)
}

val run : ?progress:(int -> unit) -> ?jobs:int -> Config.t -> totals
(** [jobs] defaults to {!Prelude.Parallel.recommended_jobs} — [1] on a
    single-core box, where the parallel entry point then takes its
    sequential path.  Pass [~jobs] (or [MGRTS_JOBS] on the bench
    harness) to force oversubscribed domains explicitly. *)

val node_reduction_pct : totals -> float
(** Percent fewer nodes for the optimized engine on compared instances. *)

val nogood_node_reduction_pct : totals -> float
(** Percent fewer nodes with nogood learning on vs off — same engine,
    over all searched instances ([nodes_opt_nonogood] vs
    [nodes_opt_searched]). *)

val memo_hit_rate_pct : totals -> float
val nogood_hit_rate_pct : totals -> float

val render : totals -> string
val to_json : totals -> Prelude.Json.t
(** One flat JSON object. *)
