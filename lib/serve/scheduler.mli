(** The serve daemon's request scheduler: a bounded admission queue feeding
    [workers] worker loops, each solving one request at a time under its
    own supervision scope, budget and telemetry, with a shared verdict
    cache (see DESIGN.md §11).  The scheduler owns no domain: {!serve}
    runs the worker loops, and the stats ticker, as jobs of one
    {!Csp2.Pool.run}.

    Sharding: with [Prelude.Parallel.recommended_jobs ()] cores available,
    the scheduler runs [workers] concurrent requests and hands each
    request [jobs_per_request] domains of intra-solve parallelism
    (portfolio races), so concurrent tenants split the machine instead of
    each grabbing all of it.

    Admission control: {!handle_line} rejects a solve request outright
    (code 6) when the queue already holds [queue_capacity] requests — the
    client sees the rejection immediately instead of its request sitting
    behind an unbounded backlog.  Per-request wall budgets are clamped to
    [max_wall_s], so one tenant cannot monopolize a worker.

    Containment: each request runs inside
    {!Resilience.Supervise.protect}[ ~name:("request:" ^ id)] — a solver
    crash (or an armed ["serve.request"] failpoint) becomes a code-5
    response for that request and the daemon keeps serving.  The
    [mgrts serve] I/O loop and the tests drive this module the same way:
    feed lines to {!handle_line} inside {!serve}, collect responses from
    the [emit] callback.

    A request names its own solver and node budget, or gets
    {!Core.default_solver} with no node budget; a portfolio request races
    under the portfolio's default stall-watchdog window. *)

type config = {
  workers : int;  (** Concurrent requests in flight. *)
  jobs_per_request : int;  (** Domains each portfolio solve may use. *)
  queue_capacity : int;  (** Admission bound; beyond it, code 6. *)
  default_wall_s : float;  (** Wall budget when the request names none. *)
  max_wall_s : float;  (** Hard per-request clamp, tenant-proof. *)
  cache_capacity : int;  (** Verdict cache entries before LRU eviction. *)
}

val default_config : unit -> config
(** Shards [Prelude.Parallel.recommended_jobs ()] into
    [workers * jobs_per_request]; 5 s default / 30 s max wall budget,
    queue capacity 64, cache capacity 512. *)

type t

val create : ?config:config -> emit:(string -> unit) -> unit -> t
(** A scheduler with an empty queue and cache; it starts no domain.
    [emit] receives every output line (responses and stats events),
    without trailing newline; it is called from the worker loops, the
    ticker and {!handle_line}'s caller, so it must be thread-safe — the
    serve loop passes a mutex-guarded stdout writer, tests a
    mutex-guarded collector. *)

val serve : ?stats_every_s:float -> t -> (unit -> unit) -> unit
(** [serve t f] runs [f] on the calling domain while [workers] worker
    loops drain the queue, and — when [stats_every_s] is positive — a
    ticker emits the stats event every [stats_every_s] seconds.  All of
    them are jobs of one {!Csp2.Pool.run}, which hands out the workers
    before [f] starts.  When [f] returns or raises, the queue is closed
    ({!shutdown}) and the ticker stopped; [serve] returns (or re-raises)
    once every queued request has been answered.  [f] typically feeds
    lines to {!handle_line}. *)

val handle_line : t -> fallback_id:string -> string -> [ `Continue | `Shutdown ]
(** Parse one NDJSON request line and act on it: enqueue a solve (or emit
    the code-6 rejection when the queue is full), emit the stats event,
    emit the code-3 error for a malformed line, or return [`Shutdown] for
    a shutdown command.  Never raises. *)

val process : t -> queue_s:float -> Proto.solve_request -> Proto.response
(** The per-request pipeline a worker runs: front-door exact-utilization
    check, cache lookup (verify-on-hit, relabeling only when the request
    orders its tasks otherwise than the one that stored the entry),
    budgeted solve, cache store.  Exposed so tests and the benchmark's
    replay can drive single requests synchronously, outside {!serve};
    [handle_line] is the concurrent entry point. *)

val counters : t -> Proto.counters
(** Live snapshot.  [received] counts solve attempts (including rejected)
    plus malformed lines; [served] counts worker-produced solve responses
    (decided + undecided + solver-side errors + crashed); [errors] counts
    code-3/4 responses, malformed lines answered inline included;
    [crashed] counts contained code-5 responses. *)

val emit_stats : t -> unit
(** Emit one [{"event": "stats", ...}] line through the [emit] callback. *)

val shutdown : t -> unit
(** Stop admitting: close the queue, so the worker loops of {!serve}
    return once it is drained.  Idempotent.  [handle_line] after shutdown
    rejects solves. *)
