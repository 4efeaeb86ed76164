(** ANALYZE benchmark section: what the static pre-pass decides.

    Over a generated instance batch (same distribution as Tables I–III),
    measures the analyzer's refutations against the pre-existing
    utilization filter ([r > 1]), re-validates every certificate, and
    counts the instances whose [m] lower bound beats ⌈U⌉. *)

type totals = {
  instances : int;
  old_filter_refuted : int;  (** Refuted by utilization alone ([r > 1]). *)
  static_refuted : int;  (** Analyzer [Infeasible]; always >= the above. *)
  certificates_valid : int;  (** Refutations whose certificate re-validated. *)
  m_lower_raised : int;  (** Instances with [m_lower] strictly above ⌈U⌉. *)
  analysis_time_s : float;
}

val run : ?progress:(int -> unit) -> Config.t -> totals
(** Analyze every generated instance. *)

val render : totals -> string
