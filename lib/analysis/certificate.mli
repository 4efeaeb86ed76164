(** Machine-checkable infeasibility certificates.

    An [Infeasible] verdict of the static analyzer is justified by a
    {e chain} of steps.  Derivation steps ({!Forced}, {!Saturated}) record
    facts that hold in every feasible schedule; the final step states a
    contradiction.  Each step is checkable from the task set and the facts
    established by the preceding steps alone, so {!validate} re-verifies
    the whole argument with an independent replay — the analyzer cannot
    silently produce a wrong [Infeasible] verdict, mirroring how
    {!Rt_model.Verify.check} is the ground truth for [Feasible].

    All slot/interval arguments assume identical unit-speed processors and
    a constrained-deadline task set (arbitrary deadlines are reduced with
    {!Rt_model.Clone} first; the certificate then speaks clone task ids). *)

type step =
  | Utilization of { demand : int; supply : int }
      (** Total demand [Σ C_i·T/T_i] exceeds total supply [m·T] — the
          paper's [r > 1] filter, stated exactly.  Terminal. *)
  | Forced of { task : int; k : int }
      (** Job [k] of [task] has exactly [C] unblocked window slots left, so
          every feasible schedule runs the task in all of them.
          Derivation. *)
  | Saturated of { time : int }
      (** Slot [time] already carries [m] forced tasks, so no other task
          can run there: the slot is removed from every other window.
          Derivation. *)
  | Slot_overload of { time : int }
      (** More than [m] tasks are forced at the slot.  Terminal. *)
  | Starved of { task : int; k : int; allowed : int; wcet : int }
      (** Job [k] of [task] has fewer unblocked window slots than [C].
          Terminal. *)
  | Supply_shortfall of { demand : int; supply : int }
      (** Summed over the hyperperiod, [Σ_t min(m, #unblocked tasks at t)]
          cannot cover the total demand.  Terminal. *)
  | Hall of { jobs : (int * int) list; demand : int; supply : int }
      (** The jobs [(task, k)] of [jobs] need [demand = Σ C] units, but
          their windows supply only [supply = Σ_t min(m, number of them
          whose unblocked window holds t)]: Hall's condition fails for
          this set, so no schedule serves it.  Horn's max flow names the
          set as its min cut ({!Flow}).  Terminal. *)

type t = {
  m : int;  (** Processor count the infeasibility is proved for. *)
  steps : step list;
      (** Derivations followed by exactly one terminal contradiction. *)
}

val validate : Rt_model.Taskset.t -> Rt_model.Platform.t -> t -> bool
(** Independent replay: re-derives every step from the task set, checking
    the recorded numbers exactly, and accepts only chains whose every
    prefix is justified and whose last step is a contradiction.  Returns
    [false] for non-identical platforms, platform/m mismatches, and
    non-constrained task sets (no certificate is valid there).  A
    {!Hall} step is recounted in one pass over its jobs' windows, which
    must be distinct jobs of the task set. *)

val pp : Format.formatter -> t -> unit
(** Human-readable rendering of the argument, one numbered step per line;
    a {!Hall} step lists its job set task by task. *)
