(** Dedicated CSP2 search for heterogeneous platforms (Section VI-A).

    Implements the paper's proposed adaptations of the CSP2 search
    strategy:

    - variables are still decided chronologically, and within a slot the
      processors are decided {e least capable first}, ordered by the quality
      measure [Q(P_j) = Σ_i s_{i,j}·C_i/T_i];
    - the value order prefers tasks that can run on few processors, then
      the scheduling heuristic (default D−C);
    - the symmetry rule (13) applies the ascending-value constraint to
      adjacent pairs of *identical* processors only;
    - domains follow Section VI-A2: task [i] is a candidate for [P_j] only
      when [s_{i,j} > 0], the slot is in a window, and the job still needs
      at least [s_{i,j}] units (the demand (12) is an exact sum, so an
      overshooting slot can never be repaired).

    {b Deviation from the paper}: the no-idle rule is {e not} enforced
    here.  With execution rates it is unsound — e.g. a job with [C = 5]
    and a 5-slot window on processors with rates (3, 2) completes only as
    3 + 2: three slots stay idle, some of them while the task is still
    eligible (the exact-demand constraint (12) forbids running it again).
    Idle is instead ordered last, so work-conserving assignments are still
    tried first.  (On identical platforms the rule is safe — see
    {!Opt} — because swapping a later unit into the idle slot preserves
    the completed amount.)

    Search is complete; [Infeasible] is a proof.  Intended for the
    moderate-size platforms of the heterogeneity extension; the identical
    fast path is {!Opt.solve}. *)

type stats = {
  nodes : int;  (** Cell assignments tried, idle included. *)
  fails : int;
  max_time_reached : int;  (** Deepest slot decided. *)
  time_s : float;
}

val solve :
  ?heuristic:Heuristic.t ->
  ?budget:Prelude.Timer.budget ->
  platform:Rt_model.Platform.t ->
  Rt_model.Taskset.t ->
  Encodings.Outcome.t * stats
(** @raise Invalid_argument on non-constrained-deadline task sets. *)
