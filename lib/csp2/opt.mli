(** The dedicated CSP2 search (Section V of the paper), identical
    platforms: the repository's one Section V engine.

    A deterministic chronological backtracking search over the
    hyperperiod: time slots are decided in order (Section V-C1), and
    within a slot the search branches over which tasks to run.  The
    paper's search rules are built in:

    - {b no-idle rule}: a processor idles only when no available task
      remains, so a slot schedules exactly [min(m, #available)] tasks (safe
      by the swap argument: a later unit of an available task can always be
      pulled into an idle slot);
    - {b symmetry rule (10)}: tasks and processors are considered in
      ascending order, so the [m!] permutations of one slot collapse into a
      single canonical assignment — the search branches over {e subsets},
      not vectors;
    - {b value ordering}: subsets are enumerated so that tasks ranked better
      by the chosen {!Heuristic} enter first (the first subset tried is the
      greedy top-k);
    - {b urgency propagation}: a task whose remaining demand equals its
      remaining window slots must run now; slots where the urgent tasks
      outnumber the processors fail immediately.  With this rule the
      invariant [rem <= remaining window slots] holds along every branch,
      so urgency overload is the {e only} failure condition.

    Windows that wrap the hyperperiod boundary contribute their head slots
    at the start of the sweep and their tail at the end; a wrapped job's
    remaining-capacity accounting spans both parts (see {!Rt_model.Jobmap}).
    The search is complete: [Infeasible] is a proof.  It is also fully
    deterministic — the paper contrasts exactly this with Choco's
    randomized runs (Section VII-B).

    {b The memo-on configuration} ([memo_mb > 0], the default) adds three
    pruning layers on top of those rules; [memo_mb <= 0] turns all three
    off and runs the paper's rules exactly (a differential in [test/]
    pins it node for node against the classic reference search):

    - {b state-dominance memoization}: a search state is fully described by
      [(t, rem)] — the slot to decide and the per-job remaining demand —
      and the exploration below it is a deterministic function of that
      pair.  States refuted by exhausting every subset are recorded in a
      transposition table that doubles from a tiny initial size toward the
      [memo_mb] cap (direct-mapped, replace on collision) keyed by an
      incrementally maintained Zobrist hash;
      pruning compares the {e full} rem vector, so collisions cost a missed
      prune, never a wrong verdict.  Entries are written only on genuine
      exhaustion — never on a budget stop, never while enumerating work
      items for the parallel phase — so [Infeasible] remains a proof.
      Entries are epoch-stamped: rebinding a pooled engine to the next
      instance invalidates the whole table in O(1) by bumping the epoch,
      which is what makes cross-solve engine reuse sound;

    - {b aggregate capacity bound}: a state with more remaining work than
      [m · (T − t)] slot-units left fails immediately (urgency propagation
      keeps every unfinished job's window open, so all remaining work
      competes for those units);

    - {b nogood learning}: on top of the exact-key memo, each genuinely
      exhausted subtree root is recorded as a (slot, remaining-demand)
      {e dominance nogood}: an exhausted [(t, rem₀)] refutes every
      [(t, rem)] with [rem ≥ rem₀] pointwise (deleting the extra units
      from a feasible completion of the harder state yields one for
      [rem₀]; DESIGN.md §7c), so pruning knowledge transfers across
      sibling branches the exact-key table cannot connect.  Nogoods
      live in per-slot chains (bounded scan, move-to-front), their
      vectors in a {!Prelude.Arena}, their chain heads in a
      {!Prelude.Epoch_dict}; the store shares the [memo_mb] budget with
      the memo and evicts its least-active half, deterministically,
      when full.  [nogoods:false] turns learning off (ablation).

    In every configuration:

    - {b packed eligibility}: per-slot candidate sets live in {!Prelude.Ibits}
      words (in-window tasks, in heuristic-rank space),
      so classifying a slot walks set bits instead of all [n] tasks, and the
      per-node hot path allocates nothing (reused buffers, one max-sized
      combination cursor per frame advanced with {!Prelude.Combi.next_k});

    - {b engine pooling and epoch reuse}: each domain caches one warm
      engine (frames, the rem buffer, the memo table, the nogood store)
      plus the eligibility bitsets; back-to-back solves rebind instead of
      reallocating — tables are invalidated by O(1) epoch bumps, and a
      memo-off solve keeps them for the next memo-on one — and the
      parallel phase draws its worker domains from {!Pool}, so a bench
      campaign of hundreds of millisecond-sized instances pays for
      neither [Domain.spawn] nor table zeroing per instance.  The frame
      stack grows as the search descends, so the per-solve setup is
      linear in the job count with a small constant;

    - {b work-stealing parallel search} ({!solve_parallel}): after a
      cheap sequential probe (static tree-size estimate, then a bounded
      node burst) fails to decide the instance, workers explore subtrees
      drawn from per-worker lock-free Chase-Lev deques
      ({!Prelude.Deque}).  Splitting is lazy and depth-adaptive: a worker
      expands an item into its children (the surviving assignments of
      one slot) while the item is shallow or the worker's own deque has
      run dry, and deep-solves it otherwise; idle workers steal from
      random victims.  First [Feasible] wins and stops the race;
      [Infeasible] requires a pending-work counter to reach zero with no
      worker budget-limited; anything cut short degrades to [Limit]. *)

type stats = {
  nodes : int;  (** Slot assignments tried (summed over workers). *)
  fails : int;
      (** Dead ends: overloads, capacity cuts, memo hits, exhaustions, and
          (urgency off) subsets rejected for a window closing unfinished. *)
  memo_hits : int;  (** Lookups that pruned a known-infeasible state. *)
  memo_misses : int;
  memo_stores : int;
  nogood_hits : int;  (** Chain scans that found a dominating nogood. *)
  nogood_misses : int;  (** Chain scans that found none (ran on memo miss). *)
  nogood_stores : int;  (** Nogoods recorded (post-subsumption). *)
  nogood_evicted : int;  (** Entries dropped by activity-based eviction. *)
  subtrees : int;  (** Work items deep-solved to the horizon (0 = sequential). *)
  pulls : int;  (** Work items taken from a worker's own deque. *)
  steals : int;  (** Work items taken from {e another} worker's deque. *)
  parks : int;  (** Times an idle worker slept after finding nothing to steal. *)
  max_time_reached : int;
  time_s : float;
}

val hit_rate_pct : hits:int -> misses:int -> float
(** [100 · hits / (hits + misses)], or [0.] with no lookups at all — the
    rate the CLI and the bench report next to the raw counters. *)

val default_memo_mb : int
(** 64 MiB; an explicit upper bound on {e combined} table memory (the
    nogood store takes an eighth of the bytes, the memo the rest), not a
    reservation. *)

val default_probe_nodes : int
(** 4096: the sequential-burst node cap of {!solve_parallel}'s probe. *)

val to_stats : backend:string -> stats -> Telemetry.Stats.t
(** The unified telemetry view: the memo and work-distribution counters
    map to their namesake fields, [max_time_reached] to [depth]. *)

val reset_caches : unit -> unit
(** Drop the calling domain's warm engine and context scratch, so its
    next solve allocates everything from scratch.  Exists for the
    batch-reuse bench (honest fresh-vs-warm comparison) and for tests;
    pooled worker domains keep their own caches. *)

val solve :
  ?heuristic:Heuristic.t ->
  ?budget:Prelude.Timer.budget ->
  ?memo_mb:int ->
  ?nogoods:bool ->
  ?urgency:bool ->
  Rt_model.Taskset.t ->
  m:int ->
  Encodings.Outcome.t * stats
(** Sequential entry point.  Default heuristic is [DC], the paper's best.
    [memo_mb <= 0] is the paper's rules exactly: no transposition table,
    no nogood store and no capacity bound.  Per-job demands above 65535,
    where memo keys would no longer pack into two bytes, and a cap too
    small for the tables' minimum sizes drop the tables but keep the
    capacity bound.  [nogoods] (default [true]) toggles dominance-nogood
    learning alone; the verdict never depends on it.

    [urgency] (default [true]) controls the urgency propagation.
    Disabling it keeps the search complete — a subset that leaves a
    closing window unfinished is rejected in place and the next one
    tried, each attempt counting as a node — but far weaker, which is the
    regime where the paper's value-ordering comparison (CSP2 vs
    +RM/+DM/+(T−C)/+(D−C)) becomes visible; the benchmark ablation uses
    it for exactly that.  [Memout] is never returned.
    @raise Invalid_argument on non-constrained-deadline task sets (apply
    {!Rt_model.Clone} first), [m < 1], or [urgency:false] with
    [memo_mb > 0] (the memo and nogood soundness arguments assume
    urgency). *)

val solve_parallel :
  ?heuristic:Heuristic.t ->
  ?budget:Prelude.Timer.budget ->
  ?memo_mb:int ->
  ?nogoods:bool ->
  ?jobs:int ->
  ?split_depth:int ->
  ?probe_nodes:int ->
  Rt_model.Taskset.t ->
  m:int ->
  Encodings.Outcome.t * stats
(** Work-stealing parallel search across [jobs] domains (default
    {!Prelude.Parallel.recommended_jobs}, so [1] on a single-core box);
    [memo_mb] is split evenly across workers ([memo_mb <= 0] stays off in
    every worker).  Urgency propagation is always on.  [jobs <= 1] or
    [split_depth = 0] falls back to {!solve}'s sequential loop, and so
    does any instance the probe decides: a static tree-size estimate
    under [probe_nodes] skips parallel setup outright, otherwise a
    sequential burst of at most [probe_nodes] nodes (default
    {!default_probe_nodes}) runs first and its memo entries stay warm
    for worker 0.  [probe_nodes <= 0] disables the probe and forces the
    parallel phase — tests use this to exercise the deques on small
    instances.  [split_depth] (default 2, clamped to [T − 1]) is the
    depth below which items are always expanded rather than deep-solved;
    beyond it workers still split adaptively (up to [split_depth + 4])
    whenever their own deque runs dry.  Deterministic in its verdict —
    [Feasible]/[Infeasible] never depends on [jobs] — though which
    witness schedule is returned may (any returned schedule verifies).
    The wall budget is honored in all phases; node budgets apply per
    engine. *)
