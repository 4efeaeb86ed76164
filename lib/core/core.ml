open Prelude
open Rt_model

type solver =
  | Csp1_generic
  | Csp1_sat
  | Csp2_generic
  | Csp2_dedicated of Csp2.Heuristic.t
  | Csp2_opt of Csp2.Heuristic.t
  | Local_search
  | Portfolio of int

let default_solver = Csp2_dedicated Csp2.Heuristic.DC

let solver_name = function
  | Csp1_generic -> "csp1"
  | Csp1_sat -> "csp1-sat"
  | Csp2_generic -> "csp2-generic"
  | Csp2_dedicated h -> "csp2+" ^ Csp2.Heuristic.to_string h
  | Csp2_opt h -> "csp2-opt+" ^ Csp2.Heuristic.to_string h
  | Local_search -> "local-search"
  | Portfolio jobs -> Printf.sprintf "portfolio(%d)" jobs

(* Inverse of {!solver_name}'s CLI spellings; shared by the cmdliner
   converter in [bin/mgrts.ml] and the serve protocol's "solver" field so
   the two front ends cannot drift. *)
let solver_of_string s =
  let prefixed prefix other =
    let pl = String.length prefix in
    if String.length other > pl && String.sub other 0 pl = prefix then
      Some (String.sub other pl (String.length other - pl))
    else None
  in
  match String.lowercase_ascii s with
  | "csp1" -> Some Csp1_generic
  | "csp1-sat" | "sat" -> Some Csp1_sat
  | "csp2-generic" -> Some Csp2_generic
  | "local" | "local-search" -> Some Local_search
  (* The job count is a placeholder; callers substitute their own. *)
  | "portfolio" -> Some (Portfolio 0)
  | "csp2-opt" | "opt" -> Some (Csp2_opt Csp2.Heuristic.DC)
  | "csp2" -> Some (Csp2_dedicated Csp2.Heuristic.Id)
  | other -> (
    match prefixed "csp2-opt+" other with
    | Some h -> Option.map (fun h -> Csp2_opt h) (Csp2.Heuristic.of_string h)
    | None -> (
      match prefixed "csp2+" other with
      | Some h -> Option.map (fun h -> Csp2_dedicated h) (Csp2.Heuristic.of_string h)
      | None -> None))

let all_solvers =
  [
    Csp1_generic;
    Csp1_sat;
    Csp2_generic;
    Csp2_dedicated Csp2.Heuristic.DC;
    Csp2_opt Csp2.Heuristic.DC;
    Local_search;
    Portfolio 4;
  ]

type verdict = Encodings.Outcome.t =
  | Feasible of Rt_model.Schedule.t
  | Infeasible
  | Limit
  | Memout of string

let dispatch solver ~platform ~budget ~seed ts ~m =
  let identical = Platform.is_identical platform in
  (* [seed] only feeds the randomized backends: the dedicated searches
     are deterministic. *)
  match solver with
  | Csp1_generic -> fst (Encodings.Csp1.solve ~platform ~budget ~seed ts ~m)
  | Csp1_sat ->
    if not identical then invalid_arg "Core.solve: Csp1_sat requires an identical platform";
    fst (Encodings.Csp1_sat.solve ~budget ~seed ts ~m)
  | Csp2_generic -> fst (Encodings.Csp2_fd.solve ~platform ~budget ~seed ts ~m)
  | Csp2_dedicated heuristic ->
    if identical then fst (Csp2.Opt.solve ~heuristic ~budget ~memo_mb:0 ts ~m)
    else fst (Csp2.Het.solve ~heuristic ~budget ~platform ts)
  | Csp2_opt heuristic ->
    (* Sequential by default at this level; {!solve_csp2_opt} exposes the
       subtree-splitting knobs and the memo/steal counters. *)
    if identical then fst (Csp2.Opt.solve ~heuristic ~budget ts ~m)
    else fst (Csp2.Het.solve ~heuristic ~budget ~platform ts)
  | Local_search ->
    if not identical then invalid_arg "Core.solve: Local_search requires an identical platform";
    fst (Localsearch.Min_conflicts.solve ~seed ~budget ts ~m)
  | Portfolio jobs ->
    if not identical then invalid_arg "Core.solve: Portfolio requires an identical platform";
    (Portfolio.solve ~jobs ~budget ~seed ts ~m).Portfolio.verdict

(* The admission bound: every stage sizes its tables by n·T or m·T
   window cells, so an instance over the cap is refused before anything
   is allocated.  Table IV's largest instance (n = 256, T = 360 360)
   needs 9.2·10^7 cells.  The products are never formed: n·T overflows
   [int] on hyperperiods near 10^18. *)
let max_cells = 100_000_000

let admit ts ~m =
  let n = Taskset.size ts and t = Taskset.hyperperiod ts in
  if t > max_cells / Int.max 1 n || t > max_cells / Int.max 1 m then
    invalid_arg
      (Printf.sprintf
         "instance too large: %d tasks on %d processors over a hyperperiod of %d exceed %d \
          window cells"
         n m t max_cells)

(* The witness stage: a global-LLF schedule that {!Sched.Sim.llf_witness}
   has verified, or [None].  Skipped when U > m, where no schedule exists
   and the simulation would only run until its backlog overflows. *)
let witness ~budget ts ~m =
  if Analysis.utilization_exceeds ts ~m then None else Sched.Sim.llf_witness ~budget ts ~m

(* What the pre-search pass found: a witness schedule, the analyzer's
   report, or nothing because it did not run. *)
type pass = Witness of Schedule.t | Report of Analysis.report | Skipped

(* The pre-search pass on a constrained system and identical platform,
   the only code that runs the witness stage or the analyzer before a
   search.  A witness decides a feasible instance outright; otherwise the
   analyzer, capped at half the remaining wall clock so that it cannot
   take the search's whole allowance, decides the instance by its max
   flow or, when its work budget or wall stops it, leaves it to the
   search.  A cancelled budget skips the pass.  [contained] runs
   it the way the portfolio runs an arm: behind its failpoint, with a
   crash returned as [Error]; the sequential paths let exceptions
   through. *)
let static_pass ~contained ~analyze ~platform ~budget ts ~m =
  Telemetry.with_span "static-pass" ~cat:"core" @@ fun () ->
  if not (analyze && Platform.is_identical platform) || Timer.cancelled budget then Ok Skipped
  else
    let run () =
      match witness ~budget ts ~m with
      | Some sched -> Witness sched
      | None ->
        let wall =
          match Timer.remaining_wall budget with
          | None -> budget
          | Some s -> Timer.sub ~wall_s:(s /. 2.) budget
        in
        Report (Analysis.analyze ~wall ts ~m)
    in
    if not contained then Ok (run ())
    else
      Resilience.Supervise.protect ~name:Portfolio.analysis_arm_name (fun () ->
          Telemetry.with_span Portfolio.analysis_arm_name ~cat:"portfolio" (fun () ->
              Resilience.Failpoint.hit "portfolio.analysis";
              run ()))

(* The verdict a pass decides, if any; a crashed pass decides nothing.
   The flow's schedule is verified by [verified], like a search's. *)
let decision = function
  | Ok (Witness sched) | Ok (Report { Analysis.verdict = Analysis.Feasible sched; _ }) ->
    Some (Feasible sched)
  | Ok (Report { Analysis.verdict = Analysis.Infeasible _; _ }) -> Some Infeasible
  | Ok (Report { Analysis.verdict = Analysis.Undecided; _ }) | Ok Skipped | Error _ -> None

(* The one verify/clone path behind every entry point.  [search] decides
   a constrained system on a platform and returns its verdict plus
   whatever the entry point reports next to it; a [Feasible] schedule is
   verified before it is returned, unless [search] says that
   [Verify.check] has already accepted it on this system (the witness
   stage keeps only such schedules).  Arbitrary deadlines are reduced via
   the clone transform (Section VI-B): the search runs on the clone
   system, and the schedule it returns is verified there, mapped back to
   the original task ids and re-verified with the cyclic checker against
   the {e original} task set — the clone-level check alone would let a
   [Clone.map_schedule] bug ship an invalid schedule. *)
let verified ~who ~verify ~platform ts search =
  let check span checker ~platform ts schedule =
    if verify then
      Telemetry.with_span span ~cat:"core" (fun () ->
          match checker ~platform ts schedule with
          | Ok () -> ()
          | Error (v :: _) ->
            failwith
              (Format.asprintf "Core.%s: solver produced an invalid schedule: %a" who
                 Verify.pp_violation v)
          | Error [] -> assert false)
  in
  let check_plain = check "verify" (fun ~platform ts s -> Verify.check ~platform ts s) in
  let m = Platform.processors platform in
  if Taskset.is_constrained ts then begin
    admit ts ~m;
    let verdict, checked, extra = search ~platform ts in
    (match verdict with
    | Feasible schedule -> if not checked then check_plain ~platform ts schedule
    | Infeasible | Limit | Memout _ -> ());
    (verdict, extra)
  end
  else begin
    let reduction = Clone.transform ts in
    let cloned = Clone.cloned reduction in
    admit cloned ~m;
    let clone_platform = Clone.map_platform reduction platform in
    match search ~platform:clone_platform cloned with
    | Feasible clone_schedule, checked, extra ->
      if not checked then check_plain ~platform:clone_platform cloned clone_schedule;
      let mapped = Clone.map_schedule reduction clone_schedule in
      check "verify-mapped"
        (fun ~platform ts s -> Verify.check_cyclic ~platform ts s)
        ~platform ts mapped;
      (Feasible mapped, extra)
    | ((Infeasible | Limit | Memout _) as other), _, extra -> (other, extra)
  end

(* Whether the pass's schedule has already passed [Verify.check]: the
   witness stage's has, the flow's has not. *)
let checked = function Ok (Witness _) -> true | Ok (Report _ | Skipped) | Error _ -> false

(* The static pass, then [search] unless the pass decided; [decided]
   stands in for the search's report when it never runs.  Returns the
   verdict, whether its schedule is already checked, and the report. *)
let after_static_pass ~analyze ~budget ~m ~platform ~decided ts search =
  let pass = static_pass ~contained:false ~analyze ~platform ~budget ts ~m in
  match decision pass with
  | Some verdict -> (verdict, checked pass, decided)
  | None ->
    let verdict, extra = search ts in
    (verdict, false, extra)

(* One entry of the portfolio's report, with zero counters. *)
let race_entry ?outcome ?(time_s = 0.) name status =
  {
    Portfolio.name;
    outcome;
    stats = Telemetry.Stats.make ~backend:name ~time_s ();
    winner = (match outcome with Some o -> Encodings.Outcome.is_decided o | None -> false);
    status;
  }

(* The portfolio's entry for its pre-search pass: the winner when the pass
   decides, [Limit] when it does not, the crash when it crashed, and no
   entry when it was skipped. *)
let pass_entry pass ~time_s =
  match pass with
  | Ok Skipped -> None
  | Ok (Witness _ | Report _) ->
    let outcome = Option.value (decision pass) ~default:Limit in
    Some (race_entry ~outcome ~time_s Portfolio.analysis_arm_name Portfolio.Ran)
  | Error crash ->
    Some
      (race_entry Portfolio.analysis_arm_name
         (Portfolio.Crashed (Resilience.Supervise.crash_message crash)))

let solve_portfolio ?(specs = Portfolio.default_specs) ?jobs ?(budget = Timer.unlimited)
    ?(seed = 0) ?(verify = true) ?(analyze = true) ?stall_beats ts ~m =
  let race ~platform cts =
    let t0 = Timer.start () in
    let pass = static_pass ~contained:true ~analyze ~platform ~budget cts ~m in
    let entry = Option.to_list (pass_entry pass ~time_s:(Timer.elapsed t0)) in
    let verdict, winner, backends =
      match decision pass with
      | Some verdict ->
        let not_started spec = race_entry (Portfolio.spec_name spec) Portfolio.Not_started in
        (verdict, Some Portfolio.analysis_arm_name, entry @ List.map not_started specs)
      | None ->
        let r = Portfolio.solve ~specs ?jobs ~budget ~seed ?stall_beats cts ~m in
        (r.Portfolio.verdict, r.Portfolio.winner, entry @ r.Portfolio.backends)
    in
    (verdict, checked pass, { Portfolio.verdict; winner; time_s = Timer.elapsed t0; backends })
  in
  let verdict, r =
    verified ~who:"solve_portfolio" ~verify ~platform:(Platform.identical ~m) ts race
  in
  { r with Portfolio.verdict }

let solve ?(solver = default_solver) ?platform ?(budget = Timer.unlimited) ?(seed = 0)
    ?(verify = true) ?(analyze = true) ts ~m =
  let platform = match platform with Some p -> p | None -> Platform.identical ~m in
  if Platform.processors platform <> m then invalid_arg "Core.solve: platform/m mismatch";
  let t0 = Timer.start () in
  let verdict =
    match solver with
    | Portfolio jobs when Platform.is_identical platform ->
      (solve_portfolio ~jobs ~budget ~seed ~verify ~analyze ts ~m).Portfolio.verdict
    | _ ->
      (* A heterogeneous platform skips the pass, and [dispatch] rejects it
         for the portfolio. *)
      fst
        (verified ~who:"solve" ~verify ~platform ts (fun ~platform ts ->
             after_static_pass ~analyze ~budget ~m ~platform ~decided:() ts (fun ts ->
                 ( Telemetry.with_span ("search:" ^ solver_name solver) ~cat:"core" (fun () ->
                       dispatch solver ~platform ~budget ~seed ts ~m),
                   () ))))
  in
  (verdict, Timer.elapsed t0)

(* Like {!solve} with [Csp2_opt], but through {!Csp2.Opt.solve_parallel}
   with its knobs exposed, and returning the engine's counters (memo hits,
   subtrees, steals) — [None] when the static pass decided alone. *)
let solve_csp2_opt ?(heuristic = Csp2.Heuristic.DC) ?(budget = Timer.unlimited)
    ?(verify = true) ?(analyze = true) ?memo_mb ?nogoods ?jobs ?split_depth ts ~m =
  let t0 = Timer.start () in
  let verdict, stats =
    verified ~who:"solve_csp2_opt" ~verify ~platform:(Platform.identical ~m) ts
      (fun ~platform ts ->
        after_static_pass ~analyze ~budget ~m ~platform ~decided:None ts (fun ts ->
            let outcome, stats =
              Telemetry.with_span
                ("search:csp2-opt+" ^ Csp2.Heuristic.to_string heuristic)
                ~cat:"core"
                (fun () ->
                  Csp2.Opt.solve_parallel ~heuristic ~budget ?memo_mb ?nogoods ?jobs
                    ?split_depth ts ~m)
            in
            (outcome, Some stats)))
  in
  (verdict, Timer.elapsed t0, stats)

let analyze ?work_budget ts ~m =
  let analyzed = if Taskset.is_constrained ts then ts else Clone.cloned (Clone.transform ts) in
  admit analyzed ~m;
  (Analysis.analyze ?work_budget analyzed ~m, analyzed)

let feasible ?solver ?budget ts ~m =
  match fst (solve ?solver ?budget ts ~m) with
  | Feasible _ -> Some true
  | Infeasible -> Some false
  | Limit | Memout _ -> None

type min_processors_outcome = Minproc.min_processors_outcome =
  | Exact of int
  | Inconclusive of { first_limit : int; feasible : int option }
  | All_infeasible

let min_processors ?solver ?(budget_per_m = None) ?max_m ?(analyze = true) ts =
  let max_m = match max_m with Some v -> v | None -> Taskset.size ts in
  let solve_m ~m =
    let budget = match budget_per_m with Some b -> b | None -> Timer.unlimited in
    match fst (solve ?solver ~budget ~analyze ts ~m) with
    | Feasible _ -> `Feasible
    | Infeasible -> `Infeasible
    | Limit | Memout _ -> `Undecided
  in
  Minproc.min_processors_feasible ~solve:solve_m ts ~max_m

let min_processors_exn ?solver ?budget_per_m ?max_m ts =
  match min_processors ?solver ?budget_per_m ?max_m ts with
  | Exact m -> Some m
  | All_infeasible -> None
  | Inconclusive { first_limit; _ } ->
    invalid_arg
      (Printf.sprintf
         "Core.min_processors_exn: undecided at m=%d (raise the budget)" first_limit)

(* ------------------------------------------------------------------ *)
(* Typed top-level errors.

   The solver layers report bad input and resource exhaustion through a
   small set of exceptions; this is the one place that classifies them
   into values a CLI (or any embedding service) can turn into messages
   and exit codes instead of crash dumps. *)

type error =
  | Invalid_input of string
  | Overflow of string
  | All_arms_crashed of (string * string) list

let contains_overflow msg =
  let msg = String.lowercase_ascii msg in
  let needle = "overflow" in
  let nl = String.length needle and hl = String.length msg in
  let rec go i = i + nl <= hl && (String.sub msg i nl = needle || go (i + 1)) in
  go 0

let error_of_exn = function
  (* Hyperperiod overflow surfaces as [Intmath.Overflow] from raw lcm
     callers and as [Invalid_argument "...: hyperperiod overflow"] from
     [Taskset.of_tasks]; classify both as [Overflow]. *)
  | Prelude.Intmath.Overflow what -> Some (Overflow what)
  | Invalid_argument msg when contains_overflow msg -> Some (Overflow msg)
  | Invalid_argument msg -> Some (Invalid_input msg)
  (* A missing or unreadable input file ([Io.load_taskset], schedule CSVs)
     surfaces as a bare [Sys_error]; before this branch the CLI died with
     an uncaught exception instead of the stable invalid-input exit. *)
  | Sys_error msg -> Some (Invalid_input msg)
  | Portfolio.All_arms_crashed crashes -> Some (All_arms_crashed crashes)
  | _ -> None

let error_message = function
  | Invalid_input msg -> "invalid input: " ^ msg
  | Overflow what ->
    Printf.sprintf "integer overflow in %s (hyperperiod too large for this machine's int)" what
  | All_arms_crashed crashes ->
    Printf.sprintf "all %d portfolio arms crashed%s" (List.length crashes)
      (match crashes with
      | (name, exn) :: _ -> Printf.sprintf " (first: %s: %s)" name exn
      | [] -> "")

let error_exit_code = function
  | Invalid_input _ -> 3
  | Overflow _ -> 4
  | All_arms_crashed _ -> 5

let solve_result ?solver ?platform ?budget ?seed ?verify ?analyze ts ~m =
  match solve ?solver ?platform ?budget ?seed ?verify ?analyze ts ~m with
  | v -> Ok v
  | exception e -> (
    match error_of_exn e with Some err -> Error err | None -> raise e)
