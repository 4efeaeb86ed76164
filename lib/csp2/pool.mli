(** A process-wide pool of warm worker domains.

    [Domain.spawn] costs hundreds of microseconds — runtime handshakes,
    fresh minor heaps, cold domain-local state.  Both parallel paths in
    this repo used to pay it on {e every} solve: the portfolio race
    spawned its arms' domains per call, and [Csp2.Opt.solve_parallel]
    spawned its subtree workers per instance, which is a large slice of
    the committed 10× parallel wall-clock regression (the CSP2OPT bench
    solves ~200 instances of a millisecond each).  The pool spawns a
    worker domain once, parks it on a condition variable between uses,
    and hands it back out to the next {!run} — so back-to-back solves
    (the bench campaign, the portfolio race, the [mgrts serve] workers)
    reuse domains, and with them every domain-local cache the engines
    keep (telemetry rings, and {!Csp2.Opt}'s warm engine state: frames,
    rem buffers, epoch-invalidated memo tables).  It is the only place a
    domain is spawned ([tool/lint]'s [spawn-site] rule): every domain in
    the process is a job of some {!run}.

    Failpoint scoping propagates: when the caller of {!run} is inside a
    {!Resilience.Supervise.protect} scope, the pooled workers run their
    share inside a scope too, so injection semantics do not depend on
    which domain happens to execute an arm.

    Workers are joined through an [at_exit] hook; an idle pool costs one
    parked domain per high-water-mark worker and nothing else. *)

val run : jobs:int -> (int -> unit) -> unit
(** [run ~jobs fn] executes [fn 0 .. fn (jobs-1)] concurrently: [fn 0]
    on the calling domain, the rest on pooled worker domains (spawned on
    first use, reused afterwards).  Returns when every [fn] has; if any
    raised, one of the exceptions is re-raised on the caller (the
    caller's own, if it raised too).  [jobs <= 1] degrades to [fn 0]
    inline.  Reentrant calls are safe — nested [run]s draw fresh workers
    — but nothing in this repo nests parallel regions on purpose. *)

val spawned_count : unit -> int
(** Domains spawned by the pool since program start (a high-water mark:
    it never decreases while the process lives).  Exposed so tests can
    pin that repeated races reuse workers instead of respawning. *)
