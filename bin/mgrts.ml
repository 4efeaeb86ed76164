(* mgrts — command-line front end.

   Subcommands:
     gen      generate random instances (Section VII-A parameters)
     solve    decide feasibility of an instance with any solver path
     verify   check a schedule file against a task set
     fig1     print the paper's Figure 1
     table1 / table3 / table4 / ablation / baselines
              reproduce the corresponding experiment
     minproc  incremental search for the smallest feasible m

   Task sets are read as text: one task per line, "O C D T" integers,
   '#' comments allowed. *)

open Cmdliner
open Rt_model

(* ------------------------------------------------------------------ *)
(* Task-set file I/O (format: Rt_model.Io).                            *)

let read_taskset = Io.load_taskset
let print_taskset ts = print_string (Io.taskset_to_string ts)

(* ------------------------------------------------------------------ *)
(* Common arguments.                                                   *)

let m_arg =
  let doc = "Number of processors." in
  Arg.(required & opt (some int) None & info [ "m"; "processors" ] ~docv:"M" ~doc)

let limit_arg =
  let doc = "Per-run wall-clock limit in seconds (0 = unlimited)." in
  Arg.(value & opt float 0. & info [ "limit" ] ~docv:"SECONDS" ~doc)

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

(* Deliberately [string], not [Arg.file]: cmdliner's existence check only
   catches files missing at parse time (exit 124) and lets unreadable ones
   through to an uncaught [Sys_error].  Routing every path through
   [Io.load_taskset] under [guard] gives one behavior for both: a
   one-line "mgrts: ..." message and the stable invalid-input exit 3. *)
let file_arg =
  let doc = "Task-set file (one 'O C D T' line per task)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"TASKSET" ~doc)

let budget_of_limit limit =
  if limit <= 0. then Prelude.Timer.unlimited else Prelude.Timer.budget ~wall_s:limit ()

(* ------------------------------------------------------------------ *)
(* Typed error handling.

   Every subcommand body runs under [guard]: bad input and resource
   exhaustion become a one-line "mgrts: ..." message on stderr and a
   stable nonzero exit code instead of a crash dump.  Exit codes:
   0 decided, 1 tool-specific failure, 2 undecided, 3 invalid input
   (malformed task set, m < 1, bad flags), 4 hyperperiod overflow,
   5 all portfolio arms crashed.  Genuinely unexpected exceptions
   (solver soundness bugs) still escape with a backtrace. *)

let guard f =
  try f () with
  | Failure msg ->
    (* [Io] parse errors ("line N: ...") and ad-hoc option validation. *)
    Printf.eprintf "mgrts: %s\n%!" msg;
    Core.error_exit_code (Core.Invalid_input msg)
  | e -> (
    match Core.error_of_exn e with
    | Some err ->
      Printf.eprintf "mgrts: %s\n%!" (Core.error_message err);
      Core.error_exit_code err
    | None -> raise e)

let solver_conv =
  (* The name grammar lives in [Core.solver_of_string], shared with the
     serve protocol's "solver" field.  [Portfolio]'s job count is a
     placeholder; [solve] substitutes --jobs. *)
  let parse s =
    match Core.solver_of_string s with
    | Some solver -> Ok solver
    | None -> Error (`Msg (Printf.sprintf "unknown solver %S" s))
  in
  Arg.conv (parse, fun ppf s -> Format.fprintf ppf "%s" (Core.solver_name s))

let solver_arg =
  let doc =
    "Solver path: csp1, csp1-sat, csp2-generic, csp2, csp2+rm, csp2+dm, csp2+tc, csp2+dc, \
     csp2-opt (alias csp2-opt+dc; also +rm/+dm/+tc), local-search, portfolio."
  in
  Arg.(value & opt solver_conv Core.default_solver & info [ "solver" ] ~docv:"SOLVER" ~doc)

let jobs_arg =
  let doc =
    "Domains for --solver portfolio or csp2-opt subtree splitting (0 = all available cores)."
  in
  Arg.(value & opt int 0 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let memo_mb_arg =
  let doc =
    "csp2-opt cap in MiB on the transposition table and nogood store together (0 turns \
     off the memo, the nogoods and the capacity bound: the paper's search, as csp2+<h> \
     runs it; ignored by other solvers)."
  in
  Arg.(value & opt int Csp2.Opt.default_memo_mb & info [ "memo-mb" ] ~docv:"MIB" ~doc)

let no_nogoods_arg =
  let doc =
    "csp2-opt: disable dominance-nogood learning (the memo and capacity bound stay on; \
     ignored by other solvers)."
  in
  Arg.(value & flag & info [ "no-nogoods" ] ~doc)

let split_depth_arg =
  let doc =
    "csp2-opt: time slots decided sequentially before the surviving prefixes are raced \
     across domains (0 keeps the search sequential; ignored by other solvers)."
  in
  Arg.(value & opt int 2 & info [ "split-depth" ] ~docv:"SLOTS" ~doc)

(* ------------------------------------------------------------------ *)
(* Commands.                                                           *)

let gen_cmd =
  let run n m tmax seed count offsets order =
    guard @@ fun () ->
    let order =
      match order with
      | "d" -> Gen.Generator.D_first
      | "c" -> Gen.Generator.C_first
      | "t" -> Gen.Generator.T_first
      | other -> failwith ("unknown order (use d, c or t): " ^ other)
    in
    let params = { (Gen.Generator.default ~n ~m:(Gen.Generator.Fixed_m m) ~tmax) with order; offsets } in
    let instances = Gen.Generator.batch ~seed ~count params in
    Array.iteri
      (fun i (ts, m) ->
        Printf.printf "# instance %d: m=%d U=%.3f r=%.3f T=%d\n" i m (Taskset.utilization ts)
          (Taskset.utilization_ratio ts ~m)
          (Taskset.hyperperiod ts);
        print_taskset ts)
      instances;
    0
  in
  let n = Arg.(value & opt int 10 & info [ "n"; "tasks" ] ~docv:"N" ~doc:"Number of tasks.") in
  let m = Arg.(value & opt int 5 & info [ "m" ] ~docv:"M" ~doc:"Number of processors.") in
  let tmax = Arg.(value & opt int 7 & info [ "tmax" ] ~docv:"TMAX" ~doc:"Maximum period.") in
  let count = Arg.(value & opt int 1 & info [ "count" ] ~docv:"K" ~doc:"Instances to emit.") in
  let offsets =
    Arg.(value & opt bool true & info [ "offsets" ] ~docv:"BOOL" ~doc:"Sample release offsets.")
  in
  let order =
    Arg.(value & opt string "d" & info [ "order" ] ~docv:"ORDER" ~doc:"Sampling order: d, c or t.")
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate random instances (Section VII-A).")
    Term.(const run $ n $ m $ tmax $ seed_arg $ count $ offsets $ order)

let solve_cmd =
  let run file m solver jobs memo_mb no_nogoods split_depth limit seed quiet trace progress
      failpoints watchdog_beats =
    guard @@ fun () ->
    Option.iter Resilience.Failpoint.arm_spec failpoints;
    let ts = read_taskset file in
    let budget = budget_of_limit limit in
    (* Telemetry: --trace records spans/counters for a Chrome trace dump,
       --progress streams heartbeat lines; either one turns recording on. *)
    if trace <> None || progress then begin
      Telemetry.start ();
      if progress then
        Telemetry.set_on_progress
          (Some
             (fun p ->
               Printf.eprintf "progress: %s nodes=%d fails=%d depth=%d rate=%.0f/s t=%.1fs\n%!"
                 p.Telemetry.p_name p.Telemetry.p_nodes p.Telemetry.p_fails
                 p.Telemetry.p_depth p.Telemetry.p_rate p.Telemetry.p_elapsed))
    end;
    let stats_acc = ref [] in
    let dump_trace () =
      match trace with
      | None -> ()
      | Some out ->
        Telemetry.stop ();
        let events = Telemetry.drain () in
        let json = Telemetry.to_chrome_json ~stats:(List.rev !stats_acc) events in
        (* Atomic: a crash or Ctrl-C mid-write must not leave a truncated
           trace for the CI shape check to choke on. *)
        Resilience.Artifact.write_atomic out json;
        let dropped = Telemetry.dropped () in
        Printf.eprintf "trace: %d event(s) written to %s%s\n%!" (List.length events) out
          (if dropped > 0 then Printf.sprintf " (%d dropped)" dropped else "")
    in
    let print_verdict verdict elapsed =
      match verdict with
      | Core.Feasible _ ->
        Printf.printf "feasible (%.4fs, %s)\n" elapsed (Core.solver_name solver)
      | Core.Infeasible -> Printf.printf "infeasible (%.4fs, proof)\n" elapsed
      | Core.Limit -> Printf.printf "limit reached (%.4fs): undecided\n" elapsed
      | Core.Memout reason -> Printf.printf "model too large: %s\n" reason
    in
    let verdict, report =
      match solver with
      | Core.Portfolio _ ->
        let jobs = if jobs > 0 then Some jobs else None in
        let r = Core.solve_portfolio ?jobs ~budget ~seed ~stall_beats:watchdog_beats ts ~m in
        List.iter
          (fun b ->
            if b.Portfolio.outcome <> None then
              stats_acc := b.Portfolio.stats :: !stats_acc)
          r.Portfolio.backends;
        (r.Portfolio.verdict, Some (Portfolio.summary r))
      | Core.Csp2_opt heuristic ->
        let jobs = if jobs > 0 then Some jobs else None in
        let verdict, elapsed, stats =
          Core.solve_csp2_opt ~heuristic ~budget ~memo_mb ~nogoods:(not no_nogoods) ?jobs
            ~split_depth ts ~m
        in
        print_verdict verdict elapsed;
        Option.iter
          (fun st ->
            stats_acc := Csp2.Opt.to_stats ~backend:(Core.solver_name solver) st :: !stats_acc)
          stats;
        let report =
          Option.map
            (fun st ->
              Printf.sprintf
                "csp2-opt: nodes=%d fails=%d memo hits=%d misses=%d stores=%d (%.1f%% hit \
                 rate) nogood hits=%d misses=%d stores=%d evicted=%d (%.1f%% hit rate) \
                 subtrees=%d pulls=%d steals=%d parks=%d"
                st.Csp2.Opt.nodes st.Csp2.Opt.fails st.Csp2.Opt.memo_hits
                st.Csp2.Opt.memo_misses st.Csp2.Opt.memo_stores
                (Csp2.Opt.hit_rate_pct ~hits:st.Csp2.Opt.memo_hits
                   ~misses:st.Csp2.Opt.memo_misses)
                st.Csp2.Opt.nogood_hits st.Csp2.Opt.nogood_misses st.Csp2.Opt.nogood_stores
                st.Csp2.Opt.nogood_evicted
                (Csp2.Opt.hit_rate_pct ~hits:st.Csp2.Opt.nogood_hits
                   ~misses:st.Csp2.Opt.nogood_misses)
                st.Csp2.Opt.subtrees st.Csp2.Opt.pulls st.Csp2.Opt.steals st.Csp2.Opt.parks)
            stats
        in
        (verdict, report)
      | _ ->
        let verdict, elapsed = Core.solve ~solver ~budget ~seed ts ~m in
        print_verdict verdict elapsed;
        (verdict, None)
    in
    Option.iter print_endline report;
    dump_trace ();
    (match verdict with
    | Core.Feasible sched -> if not quiet then Format.printf "%a@." Schedule.pp sched
    | Core.Infeasible | Core.Limit | Core.Memout _ -> ());
    match verdict with Core.Feasible _ | Core.Infeasible -> 0 | _ -> 2
  in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Do not print the schedule.") in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record solver spans, counters and heartbeats and write them as Chrome \
             trace-event JSON (load in chrome://tracing or Perfetto).")
  in
  let progress =
    Arg.(
      value & flag
      & info [ "progress" ]
          ~doc:"Stream rate-limited progress heartbeats (nodes, depth, node rate) to stderr.")
  in
  let failpoints =
    Arg.(
      value
      & opt (some string) None
      & info [ "failpoints" ] ~docv:"SPEC"
          ~doc:
            "Arm deterministic failpoints for fault-tolerance testing (same grammar as the \
             MGRTS_FAILPOINTS environment variable: \
             'site=raise:Out_of_memory@3,site2=delay:50ms').  Armed sites fire only inside \
             supervised portfolio arms.")
  in
  let watchdog_beats =
    Arg.(
      value & opt float 16.
      & info [ "watchdog-beats" ] ~docv:"BEATS"
          ~doc:
            "Portfolio stall-watchdog window, in heartbeat intervals: an arm silent for \
             more than this many intervals is cancelled alone at its next heartbeat and \
             marked stalled (<= 0 disables the watchdog).")
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Decide feasibility of a task-set file.")
    Term.(
      const run $ file_arg $ m_arg $ solver_arg $ jobs_arg $ memo_mb_arg $ no_nogoods_arg
      $ split_depth_arg $ limit_arg $ seed_arg $ quiet $ trace $ progress $ failpoints
      $ watchdog_beats)

let fig1_cmd =
  let run () =
    print_string (Experiments.Tables.figure1 ());
    0
  in
  Cmd.v (Cmd.info "fig1" ~doc:"Print the paper's Figure 1.") Term.(const run $ const ())

let with_config limit instances seed f =
  let base = Experiments.Config.from_env () in
  let config =
    {
      base with
      Experiments.Config.limit_s = (if limit > 0. then limit else base.Experiments.Config.limit_s);
      instances = (if instances > 0 then instances else base.Experiments.Config.instances);
      seed;
    }
  in
  f config

let instances_arg =
  Arg.(value & opt int 0 & info [ "instances" ] ~docv:"K" ~doc:"Instance count (0 = default).")

let table1_cmd =
  let run limit instances seed =
    guard @@ fun () ->
    with_config limit instances seed (fun config ->
        let campaign = Experiments.Campaign.run config in
        print_string (Experiments.Tables.render_table1 (Experiments.Tables.table1 campaign));
        print_newline ();
        print_string (Experiments.Tables.render_table2 (Experiments.Tables.table2 campaign));
        0)
  in
  Cmd.v
    (Cmd.info "table1" ~doc:"Reproduce Tables I and II.")
    Term.(const run $ limit_arg $ instances_arg $ seed_arg)

let table3_cmd =
  let run limit instances seed =
    guard @@ fun () ->
    with_config limit instances seed (fun config ->
        let campaign = Experiments.Campaign.run config in
        print_string (Experiments.Tables.render_bucket_rows (Experiments.Tables.table3 campaign));
        0)
  in
  Cmd.v
    (Cmd.info "table3" ~doc:"Reproduce Table III.")
    Term.(const run $ limit_arg $ instances_arg $ seed_arg)

let table4_cmd =
  let run limit instances seed =
    guard @@ fun () ->
    with_config limit instances seed (fun config ->
        let config =
          if instances > 0 then { config with Experiments.Config.table4_instances = instances }
          else config
        in
        print_string (Experiments.Tables.render_table4 (Experiments.Tables.table4 config));
        0)
  in
  Cmd.v
    (Cmd.info "table4" ~doc:"Reproduce Table IV.")
    Term.(const run $ limit_arg $ instances_arg $ seed_arg)

let ablation_cmd =
  let run limit instances seed =
    guard @@ fun () ->
    with_config limit instances seed (fun config ->
        print_string (Experiments.Ablation.render (Experiments.Ablation.run config));
        0)
  in
  Cmd.v
    (Cmd.info "ablation" ~doc:"Run the encoding/search ablations.")
    Term.(const run $ limit_arg $ instances_arg $ seed_arg)

let baselines_cmd =
  let run limit instances seed =
    guard @@ fun () ->
    with_config limit instances seed (fun config ->
        print_string (Experiments.Baselines.render (Experiments.Baselines.run config));
        0)
  in
  Cmd.v
    (Cmd.info "baselines" ~doc:"Compare priority-driven baselines on feasible instances.")
    Term.(const run $ limit_arg $ instances_arg $ seed_arg)

let analyze_cmd =
  let run file m work_budget =
    guard @@ fun () ->
    let ts = read_taskset file in
    let work_budget = if work_budget > 0 then Some work_budget else None in
    let report, analyzed = Core.analyze ?work_budget ts ~m in
    if analyzed != ts then
      Printf.printf "# arbitrary deadlines: report refers to the clone system (mgrts clone)\n";
    List.iter (Printf.printf "note: skipped %s\n") report.Analysis.skipped;
    Printf.printf "m lower bound: %d\n" (Analysis.m_lower_bound ?work_budget analyzed);
    match report.Analysis.verdict with
    | Analysis.Infeasible cert ->
      let valid = Analysis.Certificate.validate analyzed (Platform.identical ~m) cert in
      Format.printf "statically infeasible on %d processor(s) (%.4fs)@.%a@." m
        report.Analysis.time_s Analysis.Certificate.pp cert;
      if valid then begin
        print_endline "certificate: independently re-validated";
        0
      end
      else begin
        (* Should be unreachable: the analyzer only emits checkable chains. *)
        print_endline "certificate: FAILED validation (analyzer bug)";
        1
      end
    | Analysis.Feasible sched -> (
      match Verify.check analyzed sched with
      | Ok () ->
        Printf.printf "statically feasible on %d processor(s) (%.4fs): schedule verified\n" m
          report.Analysis.time_s;
        2
      | Error _ ->
        print_endline "schedule: FAILED verification (analyzer bug)";
        1)
    | Analysis.Undecided ->
      Printf.printf "statically undecided (%.4fs)\n" report.Analysis.time_s;
      2
  in
  let work_budget =
    Arg.(
      value & opt int 0
      & info [ "work-budget" ] ~docv:"UNITS"
          ~doc:"Analyzer work budget in abstract units (0 = default).")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Run the static schedulability analyzer alone: certified refutation (exit 0), or not \
          refuted (exit 2): a verified schedule, or undecided within the work budget.")
    Term.(const run $ file_arg $ m_arg $ work_budget)

let minproc_cmd =
  let run file solver limit =
    guard @@ fun () ->
    let ts = read_taskset file in
    let budget_per_m = if limit > 0. then Some (Prelude.Timer.budget ~wall_s:limit ()) else None in
    match Core.min_processors ~solver ~budget_per_m ts with
    | Core.Exact m ->
      Printf.printf "schedulable on %d processor(s) (lower bound %d)\n" m
        (Taskset.min_processors ts);
      0
    | Core.All_infeasible ->
      Printf.printf "not schedulable on up to %d processors\n" (Taskset.size ts);
      0
    | Core.Inconclusive { first_limit; feasible } ->
      (match feasible with
      | Some upper ->
        Printf.printf
          "inconclusive: schedulable on %d processor(s), but m=%d was undecided within the \
           budget (true minimum is in [%d, %d])\n"
          upper first_limit first_limit upper
      | None ->
        Printf.printf
          "inconclusive: m=%d was undecided within the budget and no larger m was proved \
           schedulable\n"
          first_limit);
      2
  in
  Cmd.v
    (Cmd.info "minproc" ~doc:"Find the smallest feasible processor count (Section VII-E).")
    Term.(const run $ file_arg $ solver_arg $ limit_arg)

let priority_cmd =
  let run file m limit =
    guard @@ fun () ->
    let ts = read_taskset file in
    let budget = budget_of_limit limit in
    (match Priority.Assignment.search ~budget ts ~m with
    | Priority.Assignment.Found ranks, stats ->
      Printf.printf "feasible fixed-priority assignment found (%d candidates simulated):\n"
        stats.Priority.Assignment.candidates;
      Array.iteri (fun i r -> Printf.printf "  task %d -> priority %d\n" (i + 1) r) ranks
    | Priority.Assignment.Not_found, stats ->
      Printf.printf "no fixed-priority assignment works (%d candidates simulated)\n"
        stats.Priority.Assignment.candidates
    | Priority.Assignment.Limit, _ -> Printf.printf "limit reached: undecided\n");
    0
  in
  Cmd.v
    (Cmd.info "priority" ~doc:"Search for a feasible fixed-priority assignment (future work #2).")
    Term.(const run $ file_arg $ m_arg $ limit_arg)

let simulate_cmd =
  let run file m policy =
    guard @@ fun () ->
    let ts = read_taskset file in
    let policy, label =
      match String.lowercase_ascii policy with
      | "edf" -> (Sched.Sim.EDF, "EDF")
      | "llf" -> (Sched.Sim.LLF, "LLF")
      | "rm" -> (Sched.Sim.Fixed_priority (Sched.Sim.rm_priorities ts), "RM")
      | "dm" -> (Sched.Sim.Fixed_priority (Sched.Sim.dm_priorities ts), "DM")
      | other -> failwith ("unknown policy (edf, llf, rm, dm): " ^ other)
    in
    let res = Sched.Sim.run ts ~m ~policy in
    if res.Sched.Sim.ok && res.Sched.Sim.exact then
      Printf.printf "%s meets all deadlines (schedule provably repeats)\n" label
    else if res.Sched.Sim.ok then
      Printf.printf "%s found no miss within the simulated window (not a proof)\n" label
    else begin
      Printf.printf "%s misses deadlines:\n" label;
      List.iter
        (fun { Sched.Sim.task; job; at } ->
          Printf.printf "  job %d of task %d at t=%d\n" job (task + 1) at)
        res.Sched.Sim.misses
    end;
    if res.Sched.Sim.ok && res.Sched.Sim.exact then 0 else 1
  in
  let policy =
    Arg.(value & opt string "edf" & info [ "policy" ] ~docv:"POLICY" ~doc:"edf, llf, rm or dm.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Simulate a priority-driven global scheduler (exact verdict).")
    Term.(const run $ file_arg $ m_arg $ policy)

let clone_cmd =
  let run file =
    guard @@ fun () ->
    let ts = read_taskset file in
    let reduction = Clone.transform ts in
    let cloned = Clone.cloned reduction in
    Printf.printf "# clone system (Section VI-B); origins:" ;
    Array.iteri
      (fun c _ -> Printf.printf " %d->%d" (c + 1) (Clone.origin reduction c + 1))
      (Taskset.tasks cloned);
    print_newline ();
    print_taskset cloned;
    0
  in
  Cmd.v
    (Cmd.info "clone" ~doc:"Print the arbitrary-deadline clone transform of a task set.")
    Term.(const run $ file_arg)

let dimacs_cmd =
  let run file m =
    guard @@ fun () ->
    let ts = read_taskset file in
    Core.admit ts ~m;
    let model = Encodings.Csp1_sat.build ts ~m in
    print_string (Sat.Dimacs.to_string (Encodings.Csp1_sat.to_dimacs model));
    0
  in
  Cmd.v
    (Cmd.info "dimacs" ~doc:"Export the CSP1 encoding as DIMACS CNF (for external SAT solvers).")
    Term.(const run $ file_arg $ m_arg)

let metrics_cmd =
  let run file m solver limit polish =
    guard @@ fun () ->
    let ts = read_taskset file in
    match Core.solve ~solver ~budget:(budget_of_limit limit) ts ~m with
    | Core.Feasible sched, elapsed ->
      Format.printf "feasible (%.4fs); %a@." elapsed Rt_model.Metrics.pp
        (Rt_model.Metrics.analyze ts sched);
      if polish then begin
        let polished = Sched.Polish.minimize_migrations sched in
        Format.printf "polished:           %a@." Rt_model.Metrics.pp
          (Rt_model.Metrics.analyze ts polished)
      end;
      0
    | (Core.Infeasible | Core.Limit | Core.Memout _), _ ->
      print_endline "no schedule to measure";
      1
  in
  let polish =
    Arg.(value & flag & info [ "polish" ] ~doc:"Also report metrics after migration polishing.")
  in
  Cmd.v
    (Cmd.info "metrics" ~doc:"Solve and report schedule quality metrics.")
    Term.(const run $ file_arg $ m_arg $ solver_arg $ limit_arg $ polish)

let verify_cmd =
  let run taskset_file schedule_file =
    guard @@ fun () ->
    let ts = read_taskset taskset_file in
    let ic = open_in schedule_file in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let sched = Io.schedule_of_csv text in
    match Verify.check ts sched with
    | Ok () ->
      print_endline "schedule is feasible (C1-C4 hold)";
      0
    | Error violations ->
      Printf.printf "schedule is INVALID (%d violation(s)):\n" (List.length violations);
      List.iter
        (fun v -> Format.printf "  %a@." Verify.pp_violation v)
        violations;
      1
  in
  let schedule_file =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"SCHEDULE.CSV"
           ~doc:"Schedule CSV (rows = processors, cells = 1-based task ids or empty).")
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Check a schedule CSV against a task set (conditions C1-C4).")
    Term.(const run $ file_arg $ schedule_file)

let serve_cmd =
  let run workers jobs queue default_limit max_limit cache stats_every failpoints =
    guard @@ fun () ->
    Option.iter Resilience.Failpoint.arm_spec failpoints;
    let base = Serve.Scheduler.default_config () in
    let config =
      {
        Serve.Scheduler.workers = (if workers > 0 then workers else base.Serve.Scheduler.workers);
        jobs_per_request =
          (if jobs > 0 then jobs else base.Serve.Scheduler.jobs_per_request);
        queue_capacity =
          (if queue > 0 then queue else base.Serve.Scheduler.queue_capacity);
        default_wall_s =
          (if default_limit > 0. then default_limit else base.Serve.Scheduler.default_wall_s);
        max_wall_s = (if max_limit > 0. then max_limit else base.Serve.Scheduler.max_wall_s);
        cache_capacity =
          (if cache > 0 then cache else base.Serve.Scheduler.cache_capacity);
      }
    in
    let stats_every_s = if stats_every > 0. then Some stats_every else None in
    Serve.Daemon.run ~config ?stats_every_s ()
  in
  let workers =
    Arg.(
      value & opt int 0
      & info [ "workers" ] ~docv:"N"
          ~doc:"Concurrent requests in flight (0 = half the recommended domains).")
  in
  let jobs =
    Arg.(
      value & opt int 0
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Domains each request's portfolio solve may use (0 = auto-shard).")
  in
  let queue =
    Arg.(
      value & opt int 0
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Admission-queue capacity: further solve requests are rejected with code 6 \
             until the backlog drains (0 = default 64).")
  in
  let default_limit =
    Arg.(
      value & opt float 0.
      & info [ "default-limit" ] ~docv:"SECONDS"
          ~doc:"Wall budget for requests that name none (0 = default 5s).")
  in
  let max_limit =
    Arg.(
      value & opt float 0.
      & info [ "max-limit" ] ~docv:"SECONDS"
          ~doc:"Hard per-request wall-budget clamp (0 = default 30s).")
  in
  let cache =
    Arg.(
      value & opt int 0
      & info [ "cache" ] ~docv:"ENTRIES"
          ~doc:"Verdict-cache capacity before LRU eviction (0 = default 512).")
  in
  let stats_every =
    Arg.(
      value & opt float 0.
      & info [ "stats-every" ] ~docv:"SECONDS"
          ~doc:
            "Emit a periodic {\"event\": \"stats\", ...} line on the output stream (0 = \
             only the final one).")
  in
  let failpoints =
    Arg.(
      value
      & opt (some string) None
      & info [ "failpoints" ] ~docv:"SPEC"
          ~doc:
            "Arm deterministic failpoints (MGRTS_FAILPOINTS grammar); serve requests run \
             supervised, so an armed serve.request site crashes individual requests, never \
             the daemon.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the multi-tenant solve daemon: NDJSON requests on stdin, one response per \
          line on stdout, shared verdict cache, per-request budgets and crash containment.")
    Term.(
      const run $ workers $ jobs $ queue $ default_limit $ max_limit $ cache $ stats_every
      $ failpoints)

let default =
  Term.(ret (const (`Help (`Pager, None))))

let () =
  let info = Cmd.info "mgrts" ~version:"1.0.0" ~doc:"Global multiprocessor real-time scheduling as a CSP." in
  exit
    (Cmd.eval'
       (Cmd.group ~default info
          [
            gen_cmd;
            solve_cmd;
            analyze_cmd;
            fig1_cmd;
            table1_cmd;
            table3_cmd;
            table4_cmd;
            ablation_cmd;
            baselines_cmd;
            minproc_cmd;
            priority_cmd;
            simulate_cmd;
            clone_cmd;
            dimacs_cmd;
            metrics_cmd;
            verify_cmd;
            serve_cmd;
          ]))
