(* Tests for the three CSP encodings: schedules decode into verified
   feasible schedules (Theorem 1 executable), the encodings are
   equisatisfiable (Theorem 2 executable), heterogeneity follows
   Section VI-A, and memory cliffs are reported as Memout. *)

open Rt_model
module O = Encodings.Outcome

let check = Alcotest.check
let qtest = Test_util.qtest

let running = Examples.running_example

let budget () = Prelude.Timer.budget ~wall_s:5.0 ()

let feasible_verified ?platform ts outcome =
  match outcome with
  | O.Feasible sched -> Verify.is_feasible ?platform ts sched
  | O.Infeasible | O.Limit | O.Memout _ -> false

(* ------------------------------------------------------------------ *)
(* Running example through each path                                    *)

let test_csp1_running () =
  let outcome, stats = Encodings.Csp1.solve ~budget:(budget ()) running ~m:2 in
  Alcotest.(check bool) "feasible and verified" true (feasible_verified running outcome);
  Alcotest.(check bool) "has stats" true (stats <> None)

let test_csp1_sat_running () =
  let outcome, _ = Encodings.Csp1_sat.solve ~budget:(budget ()) running ~m:2 in
  Alcotest.(check bool) "feasible and verified" true (feasible_verified running outcome)

let test_csp2_fd_running () =
  let outcome, _ = Encodings.Csp2_fd.solve ~budget:(budget ()) running ~m:2 in
  Alcotest.(check bool) "feasible and verified" true (feasible_verified running outcome)

let test_infeasible_on_one_proc () =
  (* r > 1 on m=1: all complete paths must prove infeasibility. *)
  let check_path name solve =
    match solve () with
    | O.Infeasible, _ -> ()
    | (O.Feasible _ | O.Limit | O.Memout _), _ -> Alcotest.failf "%s failed to refute" name
  in
  check_path "csp1" (fun () -> Encodings.Csp1.solve ~budget:(budget ()) running ~m:1);
  check_path "csp1-sat" (fun () -> Encodings.Csp1_sat.solve ~budget:(budget ()) running ~m:1);
  check_path "csp2-fd" (fun () -> Encodings.Csp2_fd.solve ~budget:(budget ()) running ~m:1)

(* ------------------------------------------------------------------ *)
(* Structure of the models                                              *)

let test_csp1_variable_count () =
  let model = Encodings.Csp1.build running ~m:2 in
  (* n·m·T variables exist (out-of-window ones constant 0). *)
  check Alcotest.int "variables" (3 * 2 * 12) (Fd.Engine.var_count (Encodings.Csp1.engine model));
  (* Constraint (2): τ3 has no window at slot 2. *)
  let v = Encodings.Csp1.var model ~task:2 ~proc:0 ~time:2 in
  Alcotest.(check (option int)) "out-of-window constant" (Some 0) (Fd.Engine.value v)

let test_csp2_fd_variable_count () =
  let model = Encodings.Csp2_fd.build running ~m:2 in
  check Alcotest.int "variables" (2 * 12) (Fd.Engine.var_count (Encodings.Csp2_fd.engine model));
  (* Constraint (7): value 2 (τ3) absent from x_j(2). *)
  let v = Encodings.Csp2_fd.var model ~proc:0 ~time:2 in
  Alcotest.(check bool) "no τ3 at slot 2" false (Fd.Engine.mem v 2);
  Alcotest.(check bool) "idle available" true (Fd.Engine.mem v (-1))

let test_memout () =
  (match Encodings.Csp1.solve ~var_budget:10 running ~m:2 with
  | O.Memout _, None -> ()
  | _ -> Alcotest.fail "tiny budget must memout");
  match Encodings.Csp1_sat.solve ~var_budget:10 running ~m:2 with
  | O.Memout _, None -> ()
  | _ -> Alcotest.fail "tiny budget must memout (SAT)"

(* T ≈ 1.6·10¹⁸: n·m·T wraps past max_int, so both builders' size guards
   divide, and they run before any window table is allocated. *)
let test_huge_hyperperiod () =
  let ts = Io.load_taskset "fixtures/huge_hyperperiod.txt" in
  List.iter
    (fun (name, build) ->
      match build () with
      | () -> Alcotest.failf "%s built a model over T = %d" name (Taskset.hyperperiod ts)
      | exception Fd.Engine.Too_large _ -> ())
    [
      ("csp1", fun () -> ignore (Encodings.Csp1.build ts ~m:5));
      ("csp1-sat", fun () -> ignore (Encodings.Csp1_sat.build ts ~m:5));
    ]

(* The CNF builder polls the budget before its first clause: a spent
   budget returns [Limit] without building the CNF or running the SAT
   solver (no stats). *)
let test_sat_build_polls_budget () =
  let cancelled = Prelude.Timer.budget () in
  Prelude.Timer.cancel cancelled;
  List.iter
    (fun (name, budget) ->
      match Encodings.Csp1_sat.solve ~budget running ~m:2 with
      | O.Limit, None -> ()
      | _ -> Alcotest.failf "%s budget: expected Limit before the CNF is built" name)
    [ ("cancelled", cancelled); ("expired", Prelude.Timer.budget ~wall_s:0. ()) ]

let test_dimacs_export () =
  let model = Encodings.Csp1_sat.build running ~m:2 in
  let cnf = Encodings.Csp1_sat.to_dimacs model in
  Alcotest.(check bool) "has clauses" true (List.length cnf.Sat.Dimacs.clauses > 0);
  Alcotest.(check bool) "cells counted" true
    (Encodings.Csp1_sat.cell_count model <= cnf.Sat.Dimacs.num_vars)

(* ------------------------------------------------------------------ *)
(* Equisatisfiability properties (Theorems 1 and 2)                     *)

let decided = function O.Feasible _ | O.Infeasible -> true | O.Limit | O.Memout _ -> false

let prop_theorem_1_and_2 =
  (* The CDCL path refutes quickly, so it serves as ground truth; the DFS
     paths must be *consistent* with it (a Limit is acceptable — the paper
     itself reports CSP1 overrunning mostly on unsolvable instances). *)
  qtest ~count:60 "all encodings agree and schedules verify"
    (Test_util.instance_gen ~nmax:4 ~tmax:4 ())
    (fun (ts, m) ->
      let truth, _ = Encodings.Csp1_sat.solve ~budget:(budget ()) ts ~m in
      let o1, _ = Encodings.Csp1.solve ~budget:(budget ()) ts ~m in
      let o3, _ = Encodings.Csp2_fd.solve ~budget:(budget ()) ts ~m in
      decided truth
      && List.for_all
           (fun o ->
             O.agree truth o
             && (match o with
                | O.Feasible s -> Verify.is_feasible ts s
                | O.Infeasible -> not (O.is_feasible truth)
                | O.Limit | O.Memout _ -> true))
           [ truth; o1; o3 ])

let prop_symmetry_preserves_satisfiability =
  qtest ~count:60 "symmetry constraint (10) preserves satisfiability"
    (Test_util.instance_gen ~nmax:4 ~tmax:4 ())
    (fun (ts, m) ->
      let with_sym, _ = Encodings.Csp2_fd.solve ~symmetry:true ~budget:(budget ()) ts ~m in
      let without, _ = Encodings.Csp2_fd.solve ~symmetry:false ~budget:(budget ()) ts ~m in
      O.agree with_sym without
      && (match (with_sym, without) with
         | (O.Feasible _ | O.Infeasible), (O.Feasible _ | O.Infeasible) ->
           O.is_feasible with_sym = O.is_feasible without
         | _ -> true))

let prop_r_filter_sound =
  qtest ~count:60 "r > 1 instances are refuted by the solver"
    (Test_util.instance_gen ~nmax:4 ~tmax:4 ())
    (fun (ts, m) ->
      (not (Analysis.utilization_exceeds ts ~m))
      ||
      match Encodings.Csp1_sat.solve ~budget:(budget ()) ts ~m with
      | O.Infeasible, _ -> true
      | (O.Feasible _ | O.Limit | O.Memout _), _ -> false)

(* ------------------------------------------------------------------ *)
(* Heterogeneous platforms (Section VI-A)                               *)

let test_dedicated_example () =
  let ts, platform = Examples.dedicated in
  let m = Platform.processors platform in
  let o1, _ = Encodings.Csp1.solve ~platform ~budget:(budget ()) ts ~m in
  Alcotest.(check bool) "csp1 het feasible+verified" true
    (feasible_verified ~platform ts o1);
  let o2, _ = Encodings.Csp2_fd.solve ~platform ~budget:(budget ()) ts ~m in
  Alcotest.(check bool) "csp2-fd het feasible+verified" true
    (feasible_verified ~platform ts o2)

let test_heterogeneous_domain_restriction () =
  let ts, platform = Examples.dedicated in
  let model = Encodings.Csp2_fd.build ~platform ts ~m:2 in
  (* τ3 (id 2) has rate 0 on P1: never in P1's domains. *)
  let ok = ref true in
  for t = 0 to Encodings.Csp2_fd.horizon model - 1 do
    if Fd.Engine.mem (Encodings.Csp2_fd.var model ~proc:0 ~time:t) 2 then ok := false
  done;
  Alcotest.(check bool) "domain restriction" true !ok

let prop_het_paths_agree =
  (* Both paths run on the FD solver here, so require consistency and
     verified schedules; a shared Limit on a nasty instance is tolerated. *)
  let gen =
    let open QCheck2.Gen in
    Test_util.taskset_gen ~nmax:3 ~tmax:4 () >>= fun ts ->
    Test_util.platform_gen ~n:(Taskset.size ts) >>= fun platform -> return (ts, platform)
  in
  qtest ~count:50 "CSP1 and CSP2-fd agree on heterogeneous instances" gen
    (fun (ts, platform) ->
      let m = Platform.processors platform in
      let o1, _ = Encodings.Csp1.solve ~platform ~budget:(budget ()) ts ~m in
      let o2, _ = Encodings.Csp2_fd.solve ~platform ~budget:(budget ()) ts ~m in
      O.agree o1 o2
      && (match (o1, o2) with
         | (O.Feasible _ | O.Infeasible), (O.Feasible _ | O.Infeasible) ->
           O.is_feasible o1 = O.is_feasible o2
         | _ -> true)
      && (match o1 with O.Feasible s -> Verify.is_feasible ~platform ts s | _ -> true)
      && match o2 with O.Feasible s -> Verify.is_feasible ~platform ts s | _ -> true)

(* ------------------------------------------------------------------ *)
(* Outcome helpers                                                      *)

let test_outcome_agree () =
  let sched = Schedule.create ~m:1 ~horizon:1 in
  Alcotest.(check bool) "feasible vs infeasible" false (O.agree (O.Feasible sched) O.Infeasible);
  Alcotest.(check bool) "limit vs anything" true (O.agree O.Limit O.Infeasible);
  Alcotest.(check bool) "memout vs feasible" true (O.agree (O.Memout "x") (O.Feasible sched));
  Alcotest.(check bool) "decided" true (O.is_decided O.Infeasible);
  Alcotest.(check bool) "limit undecided" false (O.is_decided O.Limit)

let () =
  Alcotest.run "encodings"
    [
      ( "running example",
        [
          Alcotest.test_case "csp1" `Quick test_csp1_running;
          Alcotest.test_case "csp1-sat" `Quick test_csp1_sat_running;
          Alcotest.test_case "csp2-fd" `Quick test_csp2_fd_running;
          Alcotest.test_case "infeasible on m=1" `Quick test_infeasible_on_one_proc;
        ] );
      ( "model structure",
        [
          Alcotest.test_case "csp1 variables and constraint (2)" `Quick test_csp1_variable_count;
          Alcotest.test_case "csp2 variables and constraint (7)" `Quick
            test_csp2_fd_variable_count;
          Alcotest.test_case "memout emulation" `Quick test_memout;
          Alcotest.test_case "huge hyperperiod is too large" `Quick test_huge_hyperperiod;
          Alcotest.test_case "sat build polls the budget" `Quick test_sat_build_polls_budget;
          Alcotest.test_case "dimacs export" `Quick test_dimacs_export;
        ] );
      ( "equivalence",
        [ prop_theorem_1_and_2; prop_symmetry_preserves_satisfiability; prop_r_filter_sound ] );
      ( "heterogeneous",
        [
          Alcotest.test_case "dedicated example" `Quick test_dedicated_example;
          Alcotest.test_case "domain restriction" `Quick test_heterogeneous_domain_restriction;
          prop_het_paths_agree;
        ] );
      ("outcome", [ Alcotest.test_case "agree/decided" `Quick test_outcome_agree ]);
    ]
