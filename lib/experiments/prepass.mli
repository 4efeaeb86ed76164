(** ANALYZE benchmark section: what the static pre-pass decides.

    Over a generated instance batch (same distribution as Tables I–III),
    counts the analyzer's refutations by the step that made them (the
    utilization test, i.e. the paper's [r > 1] filter, the all-jobs cut,
    or the flow's Hall set), re-validates every certificate, and counts
    what its max flow decided and the flow's own time. *)

type totals = {
  instances : int;
  by_utilization : int;  (** Refuted by utilization alone ([r > 1]). *)
  by_cut : int;  (** Refuted by the all-jobs cut ([Supply_shortfall]). *)
  by_hall : int;  (** Refuted by the flow's min cut ([Hall]). *)
  certificates_valid : int;  (** Refutations whose certificate re-validated. *)
  flow_feasible : int;  (** Analyzer [Feasible]: the flow's schedule. *)
  flow_time_s : float;  (** The flow alone, on the instances it decided. *)
  analysis_time_s : float;
}

val run : ?progress:(int -> unit) -> Config.t -> totals
(** Analyze every generated instance. *)

val render : totals -> string
