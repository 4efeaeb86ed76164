(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section VII), the ablation/baseline extensions documented in
   DESIGN.md, and a set of Bechamel micro-benchmarks for the solver kernels.

   Paper regime: MGRTS_LIMIT=30 MGRTS_INSTANCES=500 dune exec bench/main.exe
   (defaults are scaled down so the default run finishes in minutes; see
   EXPERIMENTS.md for the paper-vs-measured discussion). *)

open Experiments

let section title =
  Printf.printf "\n%s\n%s\n%!" title (String.make (String.length title) '=')

(* MGRTS_SECTIONS=portfolio,analyze runs only the sections whose title
   contains one of the comma-separated keys (case-insensitive); unset or
   empty runs everything. *)
let wanted =
  match Sys.getenv_opt "MGRTS_SECTIONS" with
  | None | Some "" -> fun _ -> true
  | Some spec ->
    let keys =
      String.split_on_char ',' (String.lowercase_ascii spec)
      |> List.map String.trim
      |> List.filter (fun k -> k <> "")
    in
    let contains hay needle =
      let h = String.length hay and n = String.length needle in
      let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
      n = 0 || at 0
    in
    fun title ->
      let t = String.lowercase_ascii title in
      List.exists (contains t) keys

(* Every section is timed (and recorded as a telemetry span when tracing
   is on); the per-phase wall clocks land in BENCH_phases.json so runs can
   be compared phase by phase, not just by total. *)
let phases : (string * float) list ref = ref []

let run_section title body =
  if wanted title then begin
    section title;
    let t0 = Prelude.Timer.start () in
    Telemetry.with_span title ~cat:"bench" body;
    phases := (title, Prelude.Timer.elapsed t0) :: !phases
  end

let write_json path v = Resilience.Artifact.write_atomic path (Prelude.Json.to_string v ^ "\n")

let write_phases () =
  let out =
    match Sys.getenv_opt "MGRTS_PHASES_OUT" with
    | Some p when p <> "" -> p
    | _ -> "BENCH_phases.json"
  in
  let phase (title, s) = Prelude.Json.(Obj [ ("phase", Str title); ("wall_s", Num s) ]) in
  write_json out Prelude.Json.(Obj [ ("phases", Arr (List.rev_map phase !phases)) ]);
  Printf.printf "\nphase timings written to %s\n" out

let progress_every every label i =
  if (i + 1) mod every = 0 then Printf.printf "  .. %s %d\n%!" label (i + 1)

let () =
  (* MGRTS_TRACE=out.json records the whole harness run — section spans
     plus solver heartbeats — as Chrome trace-event JSON.  Off by default:
     the CSP2OPT section doubles as the telemetry no-op overhead guard and
     must run with recording disabled. *)
  let trace_out =
    match Sys.getenv_opt "MGRTS_TRACE" with Some p when p <> "" -> Some p | _ -> None
  in
  if trace_out <> None then Telemetry.start ();
  let config = Config.from_env () in
  Printf.printf
    "MGRTS benchmark harness\n\
     config: %d instances, %.3fs limit, seed %d, table IV: %d instances x n in {%s}\n\
     (paper regime: MGRTS_LIMIT=30 MGRTS_INSTANCES=500)\n%!"
    config.Config.instances config.Config.limit_s config.Config.seed
    config.Config.table4_instances
    (String.concat "," (List.map string_of_int config.Config.table4_sizes));

  run_section "FIGURE 1" (fun () -> print_string (Tables.figure1 ()));

  run_section "TABLES I-III (shared campaign: m=5, n=10, Tmax=7)" (fun () ->
      let campaign = Campaign.run ~progress:(progress_every 100 "instance") config in
      print_string (Tables.render_table1 (Tables.table1 campaign));
      print_newline ();
      print_string (Tables.render_table2 (Tables.table2 campaign));
      print_newline ();
      print_string (Tables.render_bucket_rows (Tables.table3 campaign)));

  run_section
    "TABLE I VARIANT (weak propagation: urgency off — the regime where the paper's heuristic ordering shows)"
    (fun () ->
      let weak_campaign =
        Campaign.run
          ~solvers:Experiments.Runner.table1_weak_solvers
          ~progress:(progress_every 100 "instance")
          config
      in
      print_string (Tables.render_table1 (Tables.table1 weak_campaign)));

  run_section "TABLE IV (scaling: Tmax=15, m minimal)" (fun () ->
      let rows = Tables.table4 ~progress:(fun i -> progress_every 1 "size" i) config in
      print_string (Tables.render_table4 rows));

  run_section "PORTFOLIO (Domains race vs its sequential arms)" (fun () ->
      let portfolio_solvers =
        [
          List.find (fun s -> s.Runner.name = "+(D-C)") Runner.csp2_variants;
          Runner.csp1_sat;
          Runner.local_search;
          Runner.portfolio ();
        ]
      in
      let portfolio_campaign =
        Campaign.run ~solvers:portfolio_solvers ~progress:(progress_every 100 "instance") config
      in
      print_string (Tables.render_table1 (Tables.table1 portfolio_campaign));
      print_newline ();
      print_string (Tables.render_bucket_rows (Tables.table3 portfolio_campaign)));

  run_section "ANALYZE (static pre-pass: refutations by utilization, all-jobs cut and Hall set)"
    (fun () ->
      print_string (Prepass.render (Prepass.run ~progress:(progress_every 100 "instance") config)));

  run_section "CSP2OPT (memo-off classic search vs memo-on engine, node parity and wall clock)"
    (fun () ->
      (* MGRTS_JOBS forces the parallel run's domain count (e.g. [2] to
         measure the work-stealing path even on a single-core box);
         unset, the section uses the engine's own clamped default. *)
      let jobs =
        match Sys.getenv_opt "MGRTS_JOBS" with
        | Some v -> int_of_string_opt (String.trim v)
        | None -> None
      in
      let totals = Csp2opt.run ~progress:(progress_every 100 "instance") ?jobs config in
      print_string (Csp2opt.render totals);
      let out =
        match Sys.getenv_opt "MGRTS_BENCH_OUT" with
        | Some p when p <> "" -> p
        | _ -> "BENCH_csp2.json"
      in
      write_json out (Csp2opt.to_json totals);
      Printf.printf "  json written to %s\n" out);

  run_section "RANDOMNESS (Section VII-B)" (fun () -> print_string (Variance.render (Variance.run config)));

  run_section "ABLATIONS" (fun () -> print_string (Ablation.render (Ablation.run config)));

  run_section "BASELINES" (fun () -> print_string (Baselines.render (Baselines.run config)));

  run_section "MICRO-BENCHMARKS (Bechamel)" (fun () -> Micro.run ());

  write_phases ();
  match trace_out with
  | None -> ()
  | Some out ->
    Telemetry.stop ();
    let events = Telemetry.drain () in
    Resilience.Artifact.write_atomic out (Telemetry.to_chrome_json events);
    Printf.printf "trace (%d events) written to %s\n" (List.length events) out
