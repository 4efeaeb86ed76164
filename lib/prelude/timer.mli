(** Wall-clock timers and combined wall-clock/node budgets.

    The paper gives every solver run a 30 s limit on a 2.4 GHz Core2Quad.
    We reproduce the mechanism with a deadline based on the monotonic-enough
    [Unix.gettimeofday], complemented by a node budget so that test-suite
    runs stay fast and fully deterministic.

    A budget also carries a cooperative {e stop flag}: an [Atomic.t] that
    another domain can raise with {!cancel} to make every solver polling the
    budget return [Limit] promptly.  This is how the parallel portfolio
    ({!Portfolio}) cancels losing backends. *)

val now : unit -> float
(** Seconds since the epoch, sub-millisecond resolution. *)

type t
(** A started stopwatch. *)

val start : unit -> t
val elapsed : t -> float

type budget

val budget : ?wall_s:float -> ?nodes:int -> ?stop:bool Atomic.t -> unit -> budget
(** Missing components are unlimited.  When [stop] is omitted a fresh flag
    is allocated, so {!cancel} works on every budget made here; pass a
    shared flag to make several budgets cancellable together. *)

val unlimited : budget
(** No limits and no stop flag: {!cancel} on it is a no-op (it is a shared
    constant; a cancellable unlimited budget is [budget ()]). *)

val cancel : budget -> unit
(** Raise the budget's own stop flag: every solver sharing it observes
    {!exceeded} at its next poll and returns [Limit].  Safe to call from
    another domain; idempotent.  Cancellation propagates {e downward}
    through {!with_stop}/{!sub} derivations (a derived budget observes its
    ancestors' flags), never upward: cancelling a derived budget does not
    cancel the budget it was derived from. *)

val cancelled : budget -> bool
(** Stop-flag component only — one atomic read per attached flag (usually
    one or two), cheap enough to call on every search node (unlike the
    wall-clock read in {!exceeded}). *)

val with_stop : budget -> bool Atomic.t -> budget
(** Same limits, with the given flag as the budget's own stop flag.  Any
    previously attached flag is {e kept} and still observed by
    {!cancelled}: cancellation composes — a [cancel] on the original
    budget is seen through every [with_stop] derivation.  Used to derive
    per-backend budgets that share one cancellation point without
    disconnecting the caller's. *)

val fork : budget -> budget
(** [with_stop b (Atomic.make f)] for a fresh flag: same limits, the
    parent's flags still watched, but independently cancellable — a
    [cancel] on the fork stops only its holder.  This is how the
    portfolio gives each arm a private cancellation point (the stall
    watchdog cancels a single stalled arm without touching the race). *)

val sub : ?wall_s:float -> ?nodes:int -> budget -> budget
(** A fresh budget with the given (tighter) limits and its own fresh stop
    flag, which additionally observes every stop flag of the argument:
    cancelling the parent cancels the sub-budget, but not vice versa.
    This is how the pre-search pass caps the analyzer at half the
    request's remaining wall clock while keeping it interruptible by the
    caller. *)

val exceeded : budget -> nodes:int -> bool
(** [exceeded b ~nodes] is true once either limit is hit or the stop flag
    raised.  The wall clock is consulted lazily (every call), so callers
    should poll at a coarse granularity (e.g. every 256 search nodes) —
    but on {e every} increment of their node counter, so a masked check
    such as [nodes land 255 = 0] cannot be skipped over. *)

val nodes_exceeded : budget -> nodes:int -> bool
(** Node-limit component only — no clock read, cheap enough to call on
    every search node. *)

val wall_limit : budget -> float option
val remaining_wall : budget -> float option
