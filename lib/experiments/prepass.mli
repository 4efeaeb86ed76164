(** ANALYZE benchmark section: what the static pre-pass decides.

    Over a generated instance batch (same distribution as Tables I–III),
    measures the analyzer's refutations against the pre-existing
    utilization filter ([r > 1]), re-validates every certificate, counts
    what its max flow decided (feasible, and refuted by a Hall set) and
    the flow's own time, and counts the instances whose
    {!Analysis.m_lower_bound} beats ⌈U⌉. *)

type totals = {
  instances : int;
  old_filter_refuted : int;  (** Refuted by utilization alone ([r > 1]). *)
  static_refuted : int;  (** Analyzer [Infeasible]; always >= the above. *)
  certificates_valid : int;  (** Refutations whose certificate re-validated. *)
  flow_feasible : int;  (** Analyzer [Feasible]: the flow's schedule. *)
  flow_refuted : int;  (** Refutations ending in the flow's Hall step. *)
  flow_time_s : float;  (** The flow alone, on the instances it decided. *)
  m_lower_raised : int;
      (** Instances with {!Analysis.m_lower_bound} strictly above ⌈U⌉. *)
  analysis_time_s : float;
}

val run : ?progress:(int -> unit) -> Config.t -> totals
(** Analyze every generated instance. *)

val render : totals -> string
