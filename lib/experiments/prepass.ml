open Rt_model

type totals = {
  instances : int;
  by_utilization : int;
  by_cut : int;
  by_hall : int;
  certificates_valid : int;
  flow_feasible : int;
  flow_time_s : float;
  analysis_time_s : float;
}

let empty =
  {
    instances = 0;
    by_utilization = 0;
    by_cut = 0;
    by_hall = 0;
    certificates_valid = 0;
    flow_feasible = 0;
    flow_time_s = 0.;
    analysis_time_s = 0.;
  }

let refuted t = t.by_utilization + t.by_cut + t.by_hall

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
  Array.iteri
    (fun idx (ts, m) ->
      let report = Analysis.analyze ts ~m in
      let t = { !acc with analysis_time_s = !acc.analysis_time_s +. report.Analysis.time_s } in
      acc :=
        (match report.Analysis.verdict with
        | Analysis.Infeasible cert ->
          let t =
            {
              t with
              certificates_valid =
                (t.certificates_valid
                + Bool.to_int (Analysis.Certificate.validate ts (Platform.identical ~m) cert));
            }
          in
          (match cert.Analysis.Certificate.step with
          | Analysis.Certificate.Utilization _ -> { t with by_utilization = t.by_utilization + 1 }
          | Analysis.Certificate.Supply_shortfall _ -> { t with by_cut = t.by_cut + 1 }
          | Analysis.Certificate.Hall _ ->
            { t with by_hall = t.by_hall + 1; flow_time_s = t.flow_time_s +. flow_s ts ~m })
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
  line "  refuted statically        %4d  (utilization r>1: %d, all-jobs cut: %d, Hall set: %d)"
    (refuted t) t.by_utilization t.by_cut t.by_hall;
  line "  certificates re-validated %4d  (of %d refutations)" t.certificates_valid (refuted t);
  line "  decided by the flow       %4d  (%d feasible, %d refuted by a Hall set; %.3fs of flow)"
    (t.flow_feasible + t.by_hall) t.flow_feasible t.by_hall t.flow_time_s;
  line "  left undecided            %4d" (t.instances - refuted t - t.flow_feasible);
  Buffer.contents b
