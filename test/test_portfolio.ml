(* Tests for the Domains-based parallel portfolio: verdict agreement with
   the sequential backends, prompt cooperative cancellation of losing
   arms, the no-winner outcome, and the Core facade / summary line. *)

open Rt_model
module O = Encodings.Outcome
module P = Portfolio

let check = Alcotest.check
let qtest = Test_util.qtest

let running = Examples.running_example

(* The CI failpoints job reruns this whole suite with one injection site
   armed (MGRTS_FAILPOINTS).  Containment must keep every race sound, but
   a test that pins *which* arm wins, or how fast, can legitimately see a
   different story when its decisive arm is the one being crashed — those
   few assertions relax under injection. *)
let injected () = Resilience.Failpoint.armed ()
let arm_crashed (b : P.backend_stats) = match b.P.status with P.Crashed _ -> true | _ -> false

(* The regression workhorse: r > 1, so the only decisive verdict is an
   exhaustive infeasibility proof — quick with urgency propagation on,
   endless for local search. *)
let hard_instance () =
  let params = Gen.Generator.default ~n:12 ~m:(Gen.Generator.Fixed_m 4) ~tmax:7 in
  (Gen.Generator.batch ~seed:1 ~count:1 params).(0)

(* [gen -n 10 -m 5 --tmax 7 --seed 24]: feasible, with no LLF witness, and
   the analyzer only prunes it, so every entry point reaches its search. *)
let seed24 () =
  let params = Gen.Generator.default ~n:10 ~m:(Gen.Generator.Fixed_m 5) ~tmax:7 in
  (Gen.Generator.batch ~seed:24 ~count:1 params).(0)

let test_feasible_matches_sequential () =
  let r = P.solve running ~m:2 in
  (match r.P.verdict with
  | O.Feasible sched ->
    Alcotest.(check bool) "verified" true (Verify.is_feasible running sched)
  | O.Infeasible | O.Limit | O.Memout _ -> Alcotest.fail "running example is feasible on m=2");
  Alcotest.(check bool) "a decisive arm won" true (r.P.winner <> None);
  Alcotest.(check bool) "exactly one winner flag" true
    (List.length (List.filter (fun (b : P.backend_stats) -> b.winner) r.P.backends) = 1)

let test_infeasible_matches_sequential () =
  let r = P.solve running ~m:1 in
  (match r.P.verdict with
  | O.Infeasible -> ()
  | O.Feasible _ | O.Limit | O.Memout _ -> Alcotest.fail "running example is infeasible on m=1");
  Alcotest.(check bool) "a decisive arm won" true (r.P.winner <> None)

let test_job_counts_agree () =
  (* Same verdict whatever the parallelism, including the sequential
     single-domain race. *)
  List.iter
    (fun jobs ->
      let r = P.solve ~jobs running ~m:2 in
      Alcotest.(check bool)
        (Printf.sprintf "feasible with %d job(s)" jobs)
        true
        (O.is_feasible r.P.verdict))
    [ 1; 2; 4; 8 ]

let test_cancellation_prompt () =
  (* An infeasible instance under a generous backstop budget: the complete
     arm refutes it quickly and must cancel the local-search arm (which
     can never prove infeasibility and would otherwise spin until the
     wall limit). *)
  let ts, m = hard_instance () in
  let backstop = if injected () then 5. else 30. in
  let t0 = Prelude.Timer.start () in
  let r =
    P.solve
      ~specs:[ P.Csp2 Csp2.Heuristic.DC; P.Local_search ]
      ~jobs:2
      ~budget:(Prelude.Timer.budget ~wall_s:backstop ())
      ts ~m
  in
  let elapsed = Prelude.Timer.elapsed t0 in
  match r.P.verdict with
  | O.Infeasible ->
    check Alcotest.(option string) "complete arm wins" (Some "csp2+D-C") r.P.winner;
    Alcotest.(check bool)
      (Printf.sprintf "losers cancelled promptly (%.3fs)" elapsed)
      true
      (elapsed < backstop /. 3.)
  | O.Limit when injected () && List.exists arm_crashed r.P.backends ->
    (* The only complete arm was the one crashed by the injection matrix:
       containment leaves an honest [Limit], not a wrong verdict. *)
    ()
  | O.Feasible _ | O.Limit | O.Memout _ -> Alcotest.fail "r > 1: expected an infeasibility proof"

(* Regression: [Timer.cancel] on the race budget must interrupt the whole
   race: the racing arms' [with_stop] budget keeps the caller's flag
   watched.  Before the fix, a cancel landing after the race installed its
   internal stop flag was never observed and the race ran to its wall
   limit. *)
let test_external_cancel_stops_race () =
  let ts, m = hard_instance () in
  let backstop = 30. in
  let budget = Prelude.Timer.budget ~wall_s:backstop () in
  let t0 = Prelude.Timer.start () in
  (* Cancel from another domain shortly after the race starts; local
     search alone can never decide the infeasible instance, so without the
     cancel the race would only end at the backstop wall. *)
  let canceller =
    Domain.spawn (fun () ->
        Unix.sleepf 0.05;
        Prelude.Timer.cancel budget)
  in
  let r =
    match P.solve ~specs:[ P.Local_search ] ~jobs:1 ~budget ts ~m with
    | r -> Some r
    | exception P.All_arms_crashed _ when injected () ->
      (* The injection matrix crashed the only arm of this race before the
         cancel could land — nothing left to assert about cancellation. *)
      None
  in
  Domain.join canceller;
  let elapsed = Prelude.Timer.elapsed t0 in
  match r with
  | None -> ()
  | Some r ->
    (match r.P.verdict with
    | O.Limit -> ()
    | O.Feasible _ | O.Infeasible | O.Memout _ -> Alcotest.fail "expected Limit after cancel");
    Alcotest.(check bool) "no winner" true (r.P.winner = None);
    Alcotest.(check bool)
      (Printf.sprintf "cancel landed promptly (%.3fs)" elapsed)
      true
      (elapsed < backstop /. 3.)

let test_cancel_before_race_skips_analysis () =
  (* A budget cancelled before the call returns [Limit] without running
     the pre-search pass or any arm: every arm reports, none decisive.
     The cancel is seen before the pass's failpoint, so an armed
     [portfolio.analysis] records no crash either. *)
  let ts, m = hard_instance () in
  let budget = Prelude.Timer.budget ~wall_s:30. () in
  Prelude.Timer.cancel budget;
  let t0 = Prelude.Timer.start () in
  let r = Core.solve_portfolio ~budget ts ~m in
  let elapsed = Prelude.Timer.elapsed t0 in
  (match r.P.verdict with
  | O.Limit -> ()
  | O.Feasible _ | O.Infeasible | O.Memout _ -> Alcotest.fail "expected Limit");
  Alcotest.(check bool) "no winner" true (r.P.winner = None);
  Alcotest.(check bool) "analyzer skipped" true
    (List.for_all (fun (b : P.backend_stats) -> b.P.name <> P.analysis_arm_name) r.P.backends);
  Alcotest.(check bool) (Printf.sprintf "returned promptly (%.3fs)" elapsed) true (elapsed < 5.)

let test_no_winner_is_limit () =
  (* One node per arm decides nothing; the race must degrade to [Limit]
     with no winner rather than invent a verdict.  The optimized arm is
     excluded on purpose: its root-level aggregate capacity bound refutes
     this instance in zero nodes, which would (correctly) produce a
     winner even under a one-node budget. *)
  let ts, m = hard_instance () in
  let r =
    P.solve
      ~specs:[ P.Csp2 Csp2.Heuristic.DC; P.Csp1_sat; P.Local_search ]
      ~budget:(Prelude.Timer.budget ~nodes:1 ())
      ts ~m
  in
  (match r.P.verdict with
  | O.Limit -> ()
  | O.Feasible _ | O.Infeasible | O.Memout _ -> Alcotest.fail "expected Limit");
  Alcotest.(check bool) "no winner" true (r.P.winner = None);
  Alcotest.(check bool) "no arm flagged" true
    (List.for_all (fun (b : P.backend_stats) -> not b.winner) r.P.backends)

let test_summary_line () =
  let r = P.solve running ~m:2 in
  let s = P.summary r in
  let contains needle =
    let nl = String.length needle and hl = String.length s in
    let rec go i = i + nl <= hl && (String.sub s i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "tagged" true (contains "portfolio: feasible");
  Alcotest.(check bool) "winner marked" true (contains "*");
  (* Every arm appears, started or not. *)
  List.iter (fun b -> Alcotest.(check bool) b.P.name true (contains b.P.name)) r.P.backends

let test_static_analysis_arm () =
  (* The pre-search pass: a statically refutable instance ends the race
     before any search arm starts — the pass is the winner and every spec
     shows as never-started.  When the injection matrix crashes the pass,
     the race refutes the instance instead and the crash is on record. *)
  let ts, m = hard_instance () in
  let r = Core.solve_portfolio ts ~m in
  (match r.P.verdict with
  | O.Infeasible -> ()
  | O.Feasible _ | O.Limit | O.Memout _ -> Alcotest.fail "r > 1: expected a refutation");
  (match r.P.backends with
  | stage :: _ when injected () && arm_crashed stage ->
    check Alcotest.string "the crashed stage is listed first" P.analysis_arm_name stage.P.name
  | _ ->
    check Alcotest.(option string) "analyzer wins" (Some P.analysis_arm_name) r.P.winner;
    List.iter
      (fun (b : P.backend_stats) ->
        if b.P.name <> P.analysis_arm_name then
          Alcotest.(check bool) (b.P.name ^ " never started") true (b.P.outcome = None))
      r.P.backends);
  (* A feasible race the pass cannot decide still lists the pass first,
     non-decisive. *)
  let ts, m = seed24 () in
  let r = Core.solve_portfolio ts ~m in
  match r.P.backends with
  | stage :: _ ->
    check Alcotest.string "the pass is listed first" P.analysis_arm_name stage.P.name;
    Alcotest.(check bool) "non-decisive analysis is not a winner" false stage.P.winner
  | [] -> Alcotest.fail "no backends reported"

let test_invalid_args () =
  Alcotest.check_raises "empty specs" (Invalid_argument "Portfolio.solve: empty backend list")
    (fun () -> ignore (P.solve ~specs:[] running ~m:2));
  Alcotest.check_raises "m = 0" (Invalid_argument "Portfolio.solve: m must be >= 1") (fun () ->
      ignore (P.solve running ~m:0))

(* Another instance's domains are the caller's mistake, rejected before
   any arm starts — not a contained crash in every arm, which would end
   in [All_arms_crashed]. *)
let test_foreign_domains_rejected () =
  let other, m = hard_instance () in
  let domains =
    Analysis.Domains.create ~n:(Taskset.size other) ~m ~horizon:(Taskset.hyperperiod other)
  in
  Alcotest.check_raises "domains of another instance"
    (Invalid_argument "Portfolio.solve: domains derived for a different instance") (fun () ->
      ignore (P.solve ~jobs:2 ~domains running ~m:2))

(* ------------------------------------------------------------------ *)
(* Core facade                                                          *)

let test_core_portfolio_solver () =
  (match Core.solve ~solver:(Core.Portfolio 4) running ~m:2 with
  | Core.Feasible _, _ -> ()
  | (Core.Infeasible | Core.Limit | Core.Memout _), _ -> Alcotest.fail "feasible on m=2");
  match Core.solve ~solver:(Core.Portfolio 4) running ~m:1 with
  | Core.Infeasible, _ -> ()
  | (Core.Feasible _ | Core.Limit | Core.Memout _), _ -> Alcotest.fail "infeasible on m=1"

let test_core_solve_portfolio_arbitrary_deadlines () =
  (* D > T forces the clone transform; the facade verifies the winning
     clone schedule and maps it back to original task ids. *)
  let ts = Examples.arbitrary_deadline in
  let r = Core.solve_portfolio ts ~m:2 in
  match r.P.verdict with
  | O.Feasible sched ->
    let clone_hp = Taskset.hyperperiod (Clone.cloned (Clone.transform ts)) in
    check Alcotest.int "horizon is the clone hyperperiod" clone_hp (Schedule.horizon sched)
  | O.Infeasible | O.Limit | O.Memout _ -> Alcotest.fail "arbitrary-deadline example is feasible"

(* The pre-search pass runs once per request, whatever the entry point:
   one [static-pass] span each, and none from the bare race.  The node
   budget only bounds the memo-off search, which cannot decide this
   instance in seconds. *)
let test_static_pass_runs_once () =
  let ts, m = seed24 () in
  let budget () = Prelude.Timer.budget ~nodes:2000 () in
  let static_passes f =
    Telemetry.start ();
    Fun.protect ~finally:Telemetry.stop f;
    List.length
      (List.filter
         (fun (e : Telemetry.event) -> e.e_ph = `Span && e.e_name = "static-pass")
         (Telemetry.drain ()))
  in
  List.iter
    (fun (name, expected, f) -> check Alcotest.int name expected (static_passes f))
    [
      ("Core.solve", 1, fun () -> ignore (Core.solve ~budget:(budget ()) ts ~m));
      ( "Core.solve_csp2_opt",
        1,
        fun () -> ignore (Core.solve_csp2_opt ~budget:(budget ()) ts ~m) );
      ( "Core.solve_portfolio",
        1,
        fun () -> ignore (Core.solve_portfolio ~jobs:2 ~budget:(budget ()) ts ~m) );
      ( "Core.solve ~solver:(Portfolio 2)",
        1,
        fun () -> ignore (Core.solve ~solver:(Core.Portfolio 2) ~budget:(budget ()) ts ~m) );
      ("Portfolio.solve", 0, fun () -> ignore (P.solve ~jobs:2 ~budget:(budget ()) ts ~m));
    ]

let prop_agrees_with_sat =
  qtest ~count:30 "portfolio verdict = CSP1/SAT on random instances"
    (Test_util.instance_gen ~nmax:4 ~tmax:4 ())
    (fun (ts, m) ->
      let budget = Prelude.Timer.budget ~wall_s:5.0 () in
      let reference, _ = Encodings.Csp1_sat.solve ~budget ts ~m in
      let r = P.solve ~jobs:2 ~budget ts ~m in
      match (reference, r.P.verdict) with
      | O.Feasible _, O.Feasible sched -> Verify.is_feasible ts sched
      | O.Infeasible, O.Infeasible -> true
      | _ -> false)

(* A race owns no domain: with the stall watchdog at its default, warm
   races run on pooled domains alone. *)
let test_warm_races_spawn_no_domain () =
  List.iter
    (fun jobs ->
      ignore (P.solve ~jobs running ~m:2);
      check Alcotest.int
        (Printf.sprintf "20 races at jobs=%d" jobs)
        0
        (Test_util.spawns_during (fun () ->
             for _ = 1 to 20 do
               ignore (P.solve ~jobs running ~m:2)
             done)))
    [ 1; 2 ]

let () =
  Alcotest.run "portfolio"
    [
      ( "race",
        [
          Alcotest.test_case "feasible verdict" `Quick test_feasible_matches_sequential;
          Alcotest.test_case "infeasible verdict" `Quick test_infeasible_matches_sequential;
          Alcotest.test_case "job counts agree" `Quick test_job_counts_agree;
          Alcotest.test_case "prompt cancellation" `Quick test_cancellation_prompt;
          Alcotest.test_case "external cancel stops race" `Quick test_external_cancel_stops_race;
          Alcotest.test_case "cancel before race" `Quick test_cancel_before_race_skips_analysis;
          Alcotest.test_case "no winner = Limit" `Quick test_no_winner_is_limit;
          Alcotest.test_case "static analysis arm" `Quick test_static_analysis_arm;
          Alcotest.test_case "summary line" `Quick test_summary_line;
          Alcotest.test_case "invalid arguments" `Quick test_invalid_args;
          Alcotest.test_case "foreign domains rejected up front" `Quick
            test_foreign_domains_rejected;
          Alcotest.test_case "warm races spawn no domain" `Quick
            test_warm_races_spawn_no_domain;
        ] );
      ( "facade",
        [
          Alcotest.test_case "Core.Portfolio solver" `Quick test_core_portfolio_solver;
          Alcotest.test_case "clone transform" `Quick
            test_core_solve_portfolio_arbitrary_deadlines;
          Alcotest.test_case "static pass runs once" `Quick test_static_pass_runs_once;
          prop_agrees_with_sat;
        ] );
    ]
