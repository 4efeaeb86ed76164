open Rt_model

type totals = {
  instances : int;
  old_filter_refuted : int;
  static_refuted : int;
  certificates_valid : int;
  flow_feasible : int;
  flow_refuted : int;
  flow_time_s : float;
  m_lower_raised : int;
  analysis_time_s : float;
}

let empty =
  {
    instances = 0;
    old_filter_refuted = 0;
    static_refuted = 0;
    certificates_valid = 0;
    flow_feasible = 0;
    flow_refuted = 0;
    flow_time_s = 0.;
    m_lower_raised = 0;
    analysis_time_s = 0.;
  }

let run ?(progress = fun _ -> ()) (config : Config.t) =
  let params = Campaign.generation_params config in
  let instances =
    Gen.Generator.batch ~seed:(config.Config.seed + 4242) ~count:config.Config.instances params
  in
  let acc = ref { empty with instances = Array.length instances } in
  (* The flow alone, timed on the instances it decided inside the
     analyzer. *)
  let flow_s ts ~m =
    let t0 = Prelude.Timer.now () in
    ignore (Analysis.Flow.solve ~spend:(fun _ -> true) ts ~m);
    Prelude.Timer.now () -. t0
  in
  let by_flow (cert : Analysis.Certificate.t) =
    match List.rev cert.Analysis.Certificate.steps with
    | Analysis.Certificate.Hall _ :: _ -> true
    | _ -> false
  in
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
            + Bool.to_int (Analysis.m_lower_bound ts > Taskset.min_processors ts));
        }
      in
      acc :=
        (match report.Analysis.verdict with
        | Analysis.Infeasible cert ->
          let t =
            {
              t with
              static_refuted = t.static_refuted + 1;
              certificates_valid =
                (t.certificates_valid
                + Bool.to_int (Analysis.Certificate.validate ts (Platform.identical ~m) cert));
            }
          in
          if by_flow cert then
            {
              t with
              flow_refuted = t.flow_refuted + 1;
              flow_time_s = t.flow_time_s +. flow_s ts ~m;
            }
          else t
        | Analysis.Feasible _ ->
          {
            t with
            flow_feasible = t.flow_feasible + 1;
            flow_time_s = t.flow_time_s +. flow_s ts ~m;
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
  line "  decided by the flow       %4d  (%d feasible, %d refuted by a Hall set; %.3fs of flow)"
    (t.flow_feasible + t.flow_refuted) t.flow_feasible t.flow_refuted t.flow_time_s;
  line "  left undecided            %4d"
    (t.instances - t.static_refuted - t.flow_feasible);
  line "  m lower bound beat ceil(U) on %d instance(s)" t.m_lower_raised;
  Buffer.contents b
