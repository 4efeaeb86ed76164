open Rt_model

type totals = {
  instances : int;
  old_filter_refuted : int;
  static_refuted : int;
  certificates_valid : int;
  m_lower_raised : int;
  analysis_time_s : float;
}

let empty =
  {
    instances = 0;
    old_filter_refuted = 0;
    static_refuted = 0;
    certificates_valid = 0;
    m_lower_raised = 0;
    analysis_time_s = 0.;
  }

let run ?(progress = fun _ -> ()) (config : Config.t) =
  let params = Campaign.generation_params config in
  let instances =
    Gen.Generator.batch ~seed:(config.Config.seed + 4242) ~count:config.Config.instances params
  in
  let acc = ref { empty with instances = Array.length instances } in
  Array.iteri
    (fun idx (ts, m) ->
      let t = !acc in
      let old_hit = Analysis.utilization_exceeds ts ~m in
      let report = Analysis.analyze ts ~m in
      let t =
        {
          t with
          old_filter_refuted = t.old_filter_refuted + Bool.to_int old_hit;
          analysis_time_s = t.analysis_time_s +. report.Analysis.time_s;
          m_lower_raised =
            (t.m_lower_raised
            + Bool.to_int (report.Analysis.m_lower > Taskset.min_processors ts));
        }
      in
      acc :=
        (match report.Analysis.verdict with
        | Analysis.Infeasible cert ->
          {
            t with
            static_refuted = t.static_refuted + 1;
            certificates_valid =
              (t.certificates_valid
              + Bool.to_int (Analysis.Certificate.validate ts (Platform.identical ~m) cert));
          }
        | Analysis.Undecided -> t);
      progress idx)
    instances;
  !acc

let render t =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "Static pre-pass over %d generated instances (%.3fs of analysis total):" t.instances
    t.analysis_time_s;
  line "  refuted statically        %4d  (old r>1 filter alone: %d)" t.static_refuted
    t.old_filter_refuted;
  line "  certificates re-validated %4d  (of %d refutations)" t.certificates_valid
    t.static_refuted;
  line "  m lower bound beat ceil(U) on %d instance(s)" t.m_lower_raised;
  Buffer.contents b
