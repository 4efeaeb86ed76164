(** Concrete periodic schedules σ over one hyperperiod.

    A schedule stores, for each processor [j] and slot [t], the task
    scheduled there ([idle] = −1 when none) — exactly the paper's
    [σ_j(t)] restricted to [t ∈ [0, T)], to be repeated forever
    (Theorem 1).  The representation makes condition C2 (at most one task
    per processor per instant) hold by construction. *)

type t

val idle : int
(** The "no task" value, −1. *)

val create : m:int -> horizon:int -> t
(** All-idle schedule. *)

val m : t -> int
val horizon : t -> int

val get : t -> proc:int -> time:int -> int
(** Task at [(proc, time mod horizon)], or {!idle}. *)

val set : t -> proc:int -> time:int -> int -> unit
(** Assign a task id (or {!idle}); bounds-checked. *)

val copy : t -> t

val rows : t -> int array array
(** The cells themselves, [(rows s).(proc).(time)] for [time] in
    [[0, horizon)]: not a copy, so a reader pays nothing per cell.
    Read-only by contract: writing through it bypasses {!set}'s checks. *)

val relabel : int array -> t -> t
(** [relabel map s] renames task [v] to [map.(v)] in every busy cell of a
    copy of [s], in one pass over its rows; idle cells stay idle.
    @raise Invalid_argument if a busy cell holds an id outside [map], or
    [map] gives an id below {!idle}. *)

val of_cells : int array array -> t
(** [of_cells c] wraps [c.(proc).(time)]; rows must be rectangular and
    non-empty.  The rows are not copied: they are the schedule's cells
    from then on, so the caller hands them over and keeps no other use
    of them. *)

val tasks_at : t -> time:int -> int list
(** Distinct non-idle tasks running in the slot, ascending. *)

val proc_of_task_at : t -> task:int -> time:int -> int option
(** First processor running the task in the slot, if any. *)

val units_of_task : t -> task:int -> int
(** Total slots the task occupies over the hyperperiod (unit rates). *)

val busy_slots : t -> int
(** Total non-idle (processor, slot) cells. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Grid rendering: one row per processor, columns are slots, task ids are
    printed 1-based as in the paper ('.' = idle). *)

type segment = { task : int; proc : int; start : int; len : int }
(** A maximal run of consecutive slots of one task on one processor
    (not merged across the hyperperiod wrap). *)

val segments : t -> segment list
(** All busy segments, ordered by processor then start slot — the compact
    form Gantt-style renderings and humans prefer over per-slot grids. *)

val pp_gantt : Format.formatter -> t -> unit
(** Task-major Gantt rendering built from {!segments}: one row per task,
    bars showing when and where it runs, e.g.

    {v
    τ1   [P1 0-1] [P1 4-5]
    τ2   [P2 2-3]
    v} *)
