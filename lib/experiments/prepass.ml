open Rt_model

type totals = {
  instances : int;
  old_filter_refuted : int;
  static_refuted : int;
  certificates_valid : int;
  pruned_with_facts : int;
  forced_cells : int;
  blocked_cells : int;
  dead_slots : int;
  m_lower_raised : int;
  window_cells : int;
  analysis_time_s : float;
  nodes_bare : int;
  nodes_pruned : int;
  nodes_compared : int;
}

let empty =
  {
    instances = 0;
    old_filter_refuted = 0;
    static_refuted = 0;
    certificates_valid = 0;
    pruned_with_facts = 0;
    forced_cells = 0;
    blocked_cells = 0;
    dead_slots = 0;
    m_lower_raised = 0;
    window_cells = 0;
    analysis_time_s = 0.;
    nodes_bare = 0;
    nodes_pruned = 0;
    nodes_compared = 0;
  }

(* Cells the encodings would give a variable: one per (job, window slot). *)
let window_cells_of ts =
  let windows = Windows.build ts in
  Array.fold_left
    (fun acc (j : Windows.job) -> acc + Array.length j.slots)
    0 (Windows.jobs windows)

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
      let t =
        match report.Analysis.verdict with
        | Analysis.Infeasible cert ->
          {
            t with
            static_refuted = t.static_refuted + 1;
            certificates_valid =
              (t.certificates_valid
              + Bool.to_int (Analysis.Certificate.validate ts (Platform.identical ~m) cert));
          }
        | Analysis.Pruned d ->
          let forced = Analysis.Domains.forced_cells d in
          let blocked = Analysis.Domains.blocked_cells d in
          let dead = Analysis.Domains.dead_slots d in
          let t =
            if forced + blocked + dead > 0 then
              { t with pruned_with_facts = t.pruned_with_facts + 1 }
            else t
          in
          (* The acceptance measurement: the complete CSP2 search with and
             without the analyzer's domains, same budget, same instance. *)
          let bare, bare_st = Csp2.Opt.solve ~memo_mb:0 ~budget:(Config.budget config) ts ~m in
          let pruned, pruned_st =
            Csp2.Opt.solve ~memo_mb:0 ~budget:(Config.budget config) ~domains:d ts ~m
          in
          let decided = function
            | Encodings.Outcome.Feasible _ | Encodings.Outcome.Infeasible -> true
            | Encodings.Outcome.Limit | Encodings.Outcome.Memout _ -> false
          in
          let t =
            if decided bare && decided pruned then
              {
                t with
                nodes_bare = t.nodes_bare + bare_st.Csp2.Opt.nodes;
                nodes_pruned = t.nodes_pruned + pruned_st.Csp2.Opt.nodes;
                nodes_compared = t.nodes_compared + 1;
              }
            else t
          in
          {
            t with
            forced_cells = t.forced_cells + forced;
            blocked_cells = t.blocked_cells + blocked;
            dead_slots = t.dead_slots + dead;
            window_cells = t.window_cells + window_cells_of ts;
          }
      in
      acc := t;
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
  line "  pruned domains emitted    %4d  (with at least one fact)" t.pruned_with_facts;
  let cells = max 1 t.window_cells in
  line "  forced cells %d, blocked cells %d, dead slots %d (%.2f%% of %d window cells)"
    t.forced_cells t.blocked_cells t.dead_slots
    (100. *. float_of_int (t.forced_cells + t.blocked_cells) /. float_of_int cells)
    t.window_cells;
  line "  m lower bound beat ceil(U) on %d instance(s)" t.m_lower_raised;
  (if t.nodes_compared = 0 then line "  csp2 node comparison: no instance decided both ways"
   else
     let reduction =
       if t.nodes_bare = 0 then 0.
       else
         100. *. float_of_int (t.nodes_bare - t.nodes_pruned) /. float_of_int t.nodes_bare
     in
     line "  csp2 nodes on %d decided instances: %d bare vs %d with domains (%.2f%% fewer)"
       t.nodes_compared t.nodes_bare t.nodes_pruned reduction);
  Buffer.contents b
