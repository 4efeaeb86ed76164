(** Machine-checkable infeasibility certificates.

    An [Infeasible] verdict of the static analyzer is justified by one
    {!step}: a job set whose demand exceeds what its windows can supply
    on [m] processors.  Each step is a cut of Horn's network ({!Flow}),
    stated with its numbers, and {!validate} recounts them from the task
    set alone — the analyzer cannot silently produce a wrong [Infeasible]
    verdict, mirroring how {!Rt_model.Verify.check} is the ground truth
    for [Feasible].

    All slot arguments assume identical unit-speed processors and a
    constrained-deadline task set (arbitrary deadlines are reduced with
    {!Rt_model.Clone} first; the certificate then speaks clone task ids). *)

type step =
  | Utilization of { demand : int; supply : int }
      (** Total demand [Σ C_i·T/T_i] exceeds total supply [m·T] — the
          paper's [r > 1] filter, stated exactly. *)
  | Supply_shortfall of { demand : int; supply : int }
      (** The all-jobs cut: summed over the hyperperiod,
          [Σ_t min(m, #tasks whose window holds t)] cannot cover the total
          demand [Σ C_i·T/T_i]. *)
  | Hall of { jobs : (int * int) list; demand : int; supply : int }
      (** The jobs [(task, k)] of [jobs] need [demand = Σ C] units, but
          their windows supply only [supply = Σ_t min(m, number of them
          whose window holds t)]: Hall's condition fails for this set, so
          no schedule serves it.  Horn's max flow names the set as its
          min cut ({!Flow}). *)

type t = {
  m : int;  (** Processor count the infeasibility is proved for. *)
  step : step;
}

val validate : Rt_model.Taskset.t -> Rt_model.Platform.t -> t -> bool
(** Independent recount: re-derives the step's numbers from the task set
    and accepts only if they match exactly and the demand exceeds the
    supply.  A {!Utilization} step is checked without building windows;
    a {!Supply_shortfall} is recounted with {!Rt_model.Windows.slot_load},
    and a {!Hall} step in one pass over its jobs' windows, which must be
    distinct jobs of the task set.  Returns [false] for non-identical
    platforms, platform/m mismatches, and non-constrained task sets (no
    certificate is valid there). *)

val pp : Format.formatter -> t -> unit
(** Human-readable rendering of the argument; a {!Hall} step lists its
    job set task by task. *)
