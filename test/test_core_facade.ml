(* Tests for the Core facade: solver dispatch, schedule verification on
   return, the transparent clone reduction for arbitrary deadlines, and
   the minimal-processor search. *)

open Rt_model

let check = Alcotest.check
let qtest = Test_util.qtest

let running = Examples.running_example

let test_all_solvers_running_example () =
  List.iter
    (fun solver ->
      match Core.solve ~solver running ~m:2 with
      | Core.Feasible _, elapsed ->
        Alcotest.(check bool)
          (Core.solver_name solver ^ " time sane")
          true (elapsed >= 0.)
      | (Core.Infeasible | Core.Limit | Core.Memout _), _ ->
        Alcotest.failf "%s failed on the running example" (Core.solver_name solver))
    Core.all_solvers

let test_complete_solvers_prove_infeasibility () =
  List.iter
    (fun solver ->
      match Core.solve ~solver running ~m:1 with
      | Core.Infeasible, _ -> ()
      | (Core.Feasible _ | Core.Limit | Core.Memout _), _ ->
        Alcotest.failf "%s should refute m=1" (Core.solver_name solver))
    [ Core.Csp1_generic; Core.Csp1_sat; Core.Csp2_generic; Core.default_solver ]

let test_feasible_helper () =
  Alcotest.(check (option bool)) "m=2" (Some true) (Core.feasible running ~m:2);
  Alcotest.(check (option bool)) "m=1" (Some false) (Core.feasible running ~m:1);
  (* Seed 15's instance has no LLF witness, and the analyzer's flow
     decides it unless the wall is spent: then the pass steps aside and
     the 1-node budget reaches the search. *)
  Alcotest.(check (option bool)) "tiny budget -> None" None
    (Core.feasible ~solver:Core.Csp1_generic
       ~budget:(Prelude.Timer.budget ~wall_s:0. ~nodes:1 ())
       (fst (Gen.Generator.generate (Prelude.Prng.create ~seed:15)
               (Gen.Generator.default ~n:10 ~m:(Gen.Generator.Fixed_m 5) ~tmax:7)))
       ~m:5)

let test_solver_names () =
  Alcotest.(check string) "default" "csp2+D-C" (Core.solver_name Core.default_solver);
  Alcotest.(check string) "csp1" "csp1" (Core.solver_name Core.Csp1_generic);
  Alcotest.(check string) "sat" "csp1-sat" (Core.solver_name Core.Csp1_sat)

let test_platform_mismatch_rejected () =
  let platform = Platform.identical ~m:3 in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Core.solve ~platform running ~m:2);
       false
     with Invalid_argument _ -> true)

let test_sat_rejects_heterogeneous () =
  let ts, platform = Examples.dedicated in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Core.solve ~solver:Core.Csp1_sat ~platform ts ~m:2);
       false
     with Invalid_argument _ -> true)

let test_arbitrary_deadline_reduction () =
  let ts = Examples.arbitrary_deadline in
  match Core.solve ts ~m:2 with
  | Core.Feasible sched, _ ->
    (* The mapped schedule speaks original task ids over the clone
       hyperperiod. *)
    let clone_hp = Taskset.hyperperiod (Clone.cloned (Clone.transform ts)) in
    check Alcotest.int "horizon is the clone hyperperiod" clone_hp (Schedule.horizon sched);
    let n = Taskset.size ts in
    let ok = ref true in
    for j = 0 to 1 do
      for t = 0 to Schedule.horizon sched - 1 do
        let v = Schedule.get sched ~proc:j ~time:t in
        if v <> Schedule.idle && (v < 0 || v >= n) then ok := false
      done
    done;
    Alcotest.(check bool) "original ids" true !ok
  | (Core.Infeasible | Core.Limit | Core.Memout _), _ ->
    Alcotest.fail "the arbitrary-deadline example is feasible on 2 processors"

let prop_arbitrary_deadline_agreement =
  (* Verdicts must be consistent (never Feasible vs Infeasible); the CDCL
     reference refutes high-utilization clone systems quickly. *)
  qtest ~count:30 "clone reduction: complete solvers are consistent on D>T systems"
    (Test_util.loose_taskset_gen ~nmax:3 ~tmax:3 ())
    (fun ts ->
      let m = 2 in
      let budget () = Prelude.Timer.budget ~wall_s:2.0 () in
      let a = fst (Core.solve ~solver:Core.Csp1_sat ~budget:(budget ()) ts ~m) in
      let b = fst (Core.solve ~solver:Core.default_solver ~budget:(budget ()) ts ~m) in
      Encodings.Outcome.agree a b
      (* and the dedicated path must decide: its refutations are fast. *)
      && (match b with Core.Feasible _ | Core.Infeasible -> true | _ -> false))

let test_opt_heterogeneous_fallback () =
  (* [Csp2_opt] only packs identical platforms; on a heterogeneous one it
     must transparently fall back to the dedicated heterogeneous solver
     and agree with the [Csp2_dedicated] route. *)
  let ts, platform = Examples.dedicated in
  let m = Platform.processors platform in
  let a = fst (Core.solve ~solver:(Core.Csp2_opt Csp2.Heuristic.DC) ~platform ts ~m) in
  let b = fst (Core.solve ~solver:(Core.Csp2_dedicated Csp2.Heuristic.DC) ~platform ts ~m) in
  Alcotest.(check bool) "agree" true (Encodings.Outcome.agree a b);
  Alcotest.(check bool) "decided" true
    (match a with Core.Feasible _ | Core.Infeasible -> true | _ -> false)

let prop_opt_clone_agreement =
  (* D > T systems reach the optimized engine through the clone
     transform; its verdicts must stay consistent with the CDCL
     reference, and mapped-back schedules must verify (enforced by the
     facade's verify guard raising on failure). *)
  qtest ~count:30 "clone reduction: optimized engine is consistent on D>T systems"
    (Test_util.loose_taskset_gen ~nmax:3 ~tmax:3 ())
    (fun ts ->
      let m = 2 in
      let budget () = Prelude.Timer.budget ~wall_s:2.0 () in
      let a = fst (Core.solve ~solver:Core.Csp1_sat ~budget:(budget ()) ts ~m) in
      let b =
        fst (Core.solve ~solver:(Core.Csp2_opt Csp2.Heuristic.DC) ~budget:(budget ()) ts ~m)
      in
      Encodings.Outcome.agree a b
      && (match b with Core.Feasible _ | Core.Infeasible -> true | _ -> false))

let test_solve_csp2_opt_facade () =
  (* The stats-bearing entry point: counters when the engine searched,
     [None] when the static pass decided, and parallel knobs accepted. *)
  (match Core.solve_csp2_opt ~analyze:false ~jobs:2 ~split_depth:1 running ~m:2 with
  | Core.Feasible sched, _, Some stats ->
    Alcotest.(check bool) "verified" true (Verify.is_feasible running sched);
    Alcotest.(check bool) "searched" true (stats.Csp2.Opt.nodes > 0)
  | (Core.Feasible _ | Core.Infeasible | Core.Limit | Core.Memout _), _, _ ->
    Alcotest.fail "running example is feasible on m=2 with search stats");
  match Core.solve_csp2_opt running ~m:1 with
  | Core.Infeasible, _, None -> ()
  | Core.Infeasible, _, Some _ ->
    Alcotest.fail "static pass should decide m=1 without search"
  | (Core.Feasible _ | Core.Limit | Core.Memout _), _, _ ->
    Alcotest.fail "running example is infeasible on m=1"

let prop_mapped_schedules_reverify =
  (* Pins the re-verification bugfix from the outside: with the facade's
     own verify guard off, every mapped-back schedule returned for a D>T
     system must still pass the cyclic checker against the {e original}
     task set — the mapping itself is sound, not merely unchecked. *)
  qtest ~count:30 "clone-mapped schedules re-verify against the original task set"
    (Test_util.loose_taskset_gen ~nmax:3 ~tmax:3 ())
    (fun ts ->
      let m = 2 in
      match Core.solve ~verify:false ~budget:(Prelude.Timer.budget ~wall_s:2.0 ()) ts ~m with
      | Core.Feasible sched, _ -> Verify.check_cyclic ts sched = Ok ()
      | (Core.Infeasible | Core.Limit | Core.Memout _), _ -> true)

let test_min_processors () =
  Alcotest.(check bool) "running example" true
    (Core.min_processors running = Core.Exact 2);
  Alcotest.(check bool) "trap" true
    (Core.min_processors Examples.edf_trap = Core.Exact 2);
  Alcotest.(check bool) "interval trap, above ceil(U)" true
    (Taskset.min_processors Test_util.interval_trap = 1
    && Core.min_processors Test_util.interval_trap = Core.Exact 2);
  (* An infeasible-at-any-m system does not exist with C <= D, so check the
     max_m cutoff instead. *)
  Alcotest.(check bool) "cutoff" true
    (Core.min_processors ~max_m:1 running = Core.All_infeasible);
  Alcotest.(check (option int)) "exn wrapper" (Some 2) (Core.min_processors_exn running)

let test_min_processors_inconclusive () =
  (* A one-node budget times out at every m, so the search must admit it
     cannot locate the minimum instead of inflating it.  [analyze:false]:
     the static pass decides the running example without search nodes,
     which would defeat the budget-semantics point of this test. *)
  let budget_per_m = Some (Prelude.Timer.budget ~nodes:1 ()) in
  match Core.min_processors ~budget_per_m ~analyze:false running with
  | Core.Inconclusive { first_limit; feasible = None } ->
    Alcotest.(check int) "first undecided m is the lower bound"
      (Taskset.min_processors running) first_limit
  | Core.Inconclusive { feasible = Some _; _ } ->
    Alcotest.fail "nothing is decidable in one node"
  | Core.Exact _ | Core.All_infeasible ->
    Alcotest.fail "a one-node budget cannot decide anything"

(* An [Exact k] is the minimum the analyzer proves: its schedule at k
   verifies, and it refutes k − 1 with a certificate that validates. *)
let prop_min_processors_bounds =
  qtest ~count:30 "min_processors lies between ceil(U) and n"
    (Test_util.taskset_gen ~nmax:4 ~tmax:4 ())
    (fun ts ->
      match Core.min_processors ts with
      | Core.Exact k ->
        let scheduled =
          match Core.analyze ts ~m:k with
          | { Analysis.verdict = Analysis.Feasible sched; _ }, analyzed ->
            Verify.check analyzed sched = Ok ()
          | _ -> false
        in
        let below_refuted =
          k = 1
          ||
          match Core.analyze ts ~m:(k - 1) with
          | { Analysis.verdict = Analysis.Infeasible cert; _ }, analyzed ->
            Analysis.Certificate.validate analyzed (Platform.identical ~m:(k - 1)) cert
          | _ -> false
        in
        k >= Taskset.min_processors ts && k <= max 1 (Taskset.size ts) && scheduled && below_refuted
      | Core.All_infeasible -> true
      | Core.Inconclusive _ -> false (* unbudgeted search is always decided *))

let test_analyze_facade () =
  (* Constrained input: the report refers to the input itself. *)
  let report, analyzed = Core.analyze running ~m:1 in
  Alcotest.(check bool) "same taskset" true (analyzed == running);
  (match report.Analysis.verdict with
  | Analysis.Infeasible cert ->
    Alcotest.(check bool) "certificate validates" true
      (Analysis.Certificate.validate analyzed (Platform.identical ~m:1) cert)
  | Analysis.Feasible _ | Analysis.Undecided ->
    Alcotest.fail "running example is statically refutable on m=1");
  (* Arbitrary deadlines: the report refers to the clone system. *)
  let ts = Examples.arbitrary_deadline in
  let _, analyzed = Core.analyze ts ~m:2 in
  Alcotest.(check bool) "clone system returned" true
    (Taskset.is_constrained analyzed && not (Taskset.is_constrained ts))

(* The admission cap: the six-task set of test/fixtures/huge_hyperperiod.txt
   (T ≈ 1.6·10^18, so n·T overflows [int]) is refused by every entry point
   before anything is allocated, while Table IV's largest size (n = 256
   at T = 360 360, 9.2·10^7 cells) is admitted. *)
let test_admission_cap () =
  let huge =
    Taskset.of_tuples (List.map (fun p -> (0, 1, p, p)) [ 1097; 1093; 1091; 1087; 1069; 1063 ])
  in
  let too_large name f =
    match f () with
    | _ -> Alcotest.failf "%s admitted the huge instance" name
    | exception Invalid_argument msg ->
      Alcotest.(check bool) (name ^ ": " ^ msg) true
        (String.starts_with ~prefix:"instance too large" msg)
  in
  too_large "solve" (fun () -> ignore (Core.solve huge ~m:6));
  too_large "portfolio" (fun () -> ignore (Core.solve_portfolio ~jobs:2 huge ~m:6));
  too_large "solve_csp2_opt" (fun () -> ignore (Core.solve_csp2_opt huge ~m:6));
  too_large "analyze" (fun () -> ignore (Core.analyze huge ~m:6));
  let table4 =
    Taskset.of_tuples (List.init 256 (fun i -> (0, 1, 1 + (i mod 15), 1 + (i mod 15))))
  in
  check Alcotest.int "hyperperiod" 360_360 (Taskset.hyperperiod table4);
  let report, _ = Core.analyze table4 ~m:58 in
  Alcotest.(check bool) "Table IV size admitted, window passes skipped" true
    (report.Analysis.verdict = Analysis.Undecided && report.Analysis.skipped <> [])

let test_static_pass_lets_local_search_refute () =
  (* Local search alone can never prove infeasibility; through the static
     pre-pass the facade still returns a refutation without searching. *)
  match Core.solve ~solver:Core.Local_search running ~m:1 with
  | Core.Infeasible, _ -> ()
  | (Core.Feasible _ | Core.Limit | Core.Memout _), _ ->
    Alcotest.fail "static pass should refute m=1 before local search runs"

let prop_verify_guard_all_solvers =
  (* Core.solve with verify=true must never return an unverified schedule;
     exercising it across solvers is an end-to-end soundness sweep. *)
  qtest ~count:30 "facade schedules are always verified"
    (Test_util.instance_gen ~nmax:4 ~tmax:4 ())
    (fun (ts, m) ->
      List.for_all
        (fun solver ->
          match
            Core.solve ~solver ~budget:(Prelude.Timer.budget ~wall_s:5.0 ()) ts ~m
          with
          | Core.Feasible sched, _ -> Verify.is_feasible ts sched
          | (Core.Infeasible | Core.Limit | Core.Memout _), _ -> true)
        [ Core.Csp1_generic; Core.Csp1_sat; Core.Csp2_generic; Core.default_solver ])

let () =
  Alcotest.run "core"
    [
      ( "facade",
        [
          Alcotest.test_case "all solvers solve the example" `Quick
            test_all_solvers_running_example;
          Alcotest.test_case "complete solvers refute" `Quick
            test_complete_solvers_prove_infeasibility;
          Alcotest.test_case "feasible helper" `Quick test_feasible_helper;
          Alcotest.test_case "solver names" `Quick test_solver_names;
          Alcotest.test_case "platform mismatch" `Quick test_platform_mismatch_rejected;
          Alcotest.test_case "sat rejects heterogeneous" `Quick test_sat_rejects_heterogeneous;
          Alcotest.test_case "analyze facade" `Quick test_analyze_facade;
          Alcotest.test_case "instance too large" `Quick test_admission_cap;
          Alcotest.test_case "static pass refutes for local search" `Quick
            test_static_pass_lets_local_search_refute;
          prop_verify_guard_all_solvers;
          Alcotest.test_case "opt heterogeneous fallback" `Quick
            test_opt_heterogeneous_fallback;
          Alcotest.test_case "solve_csp2_opt stats" `Quick test_solve_csp2_opt_facade;
        ] );
      ( "arbitrary deadlines",
        [
          Alcotest.test_case "clone reduction" `Quick test_arbitrary_deadline_reduction;
          prop_arbitrary_deadline_agreement;
          prop_opt_clone_agreement;
          prop_mapped_schedules_reverify;
        ] );
      ( "capacity",
        [
          Alcotest.test_case "min_processors" `Quick test_min_processors;
          Alcotest.test_case "min_processors inconclusive" `Quick
            test_min_processors_inconclusive;
          prop_min_processors_bounds;
        ] );
    ]
