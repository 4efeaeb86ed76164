(* Tests for the future-work extensions: min-conflicts local search and
   the feasible-priority-assignment search. *)

open Rt_model
module O = Encodings.Outcome

let check = Alcotest.check
let qtest = Test_util.qtest

let running = Examples.running_example

(* ------------------------------------------------------------------ *)
(* Local search                                                         *)

let test_ls_running_example () =
  match Localsearch.Min_conflicts.solve running ~m:2 with
  | O.Feasible sched, stats ->
    Alcotest.(check bool) "verified" true (Verify.is_feasible running sched);
    check Alcotest.int "cost 0" 0 stats.Localsearch.Min_conflicts.best_cost
  | (O.Infeasible | O.Limit | O.Memout _), _ -> Alcotest.fail "local search should solve it"

let test_ls_never_proves_infeasibility () =
  (* m=1 is infeasible: local search must stop at Limit, never Infeasible. *)
  match
    Localsearch.Min_conflicts.solve ~budget:(Prelude.Timer.budget ~nodes:20_000 ()) running ~m:1
  with
  | O.Limit, stats ->
    Alcotest.(check bool) "cost stayed positive" true
      (stats.Localsearch.Min_conflicts.best_cost > 0)
  | O.Infeasible, _ -> Alcotest.fail "local search cannot prove infeasibility"
  | O.Feasible _, _ -> Alcotest.fail "m=1 has no schedule"
  | O.Memout _, _ -> Alcotest.fail "unexpected memout"

let test_ls_seed_determinism () =
  let run seed =
    match Localsearch.Min_conflicts.solve ~seed running ~m:2 with
    | O.Feasible _, stats -> stats.Localsearch.Min_conflicts.iterations
    | _ -> Alcotest.fail "feasible"
  in
  check Alcotest.int "same iterations for same seed" (run 7) (run 7)

let prop_ls_solves_feasible_instances =
  qtest ~count:40 "local search finds verified schedules on CSP-feasible instances"
    (Test_util.instance_gen ~nmax:4 ~tmax:4 ())
    (fun (ts, m) ->
      match Csp2.Opt.solve ~memo_mb:0 ~budget:(Prelude.Timer.budget ~wall_s:5.0 ()) ts ~m with
      | O.Feasible _, _ -> (
        match
          Localsearch.Min_conflicts.solve ~budget:(Prelude.Timer.budget ~nodes:400_000 ()) ts ~m
        with
        | O.Feasible sched, _ -> Verify.is_feasible ts sched
        | O.Limit, _ -> true (* incomplete method: allowed to give up *)
        | (O.Infeasible | O.Memout _), _ -> false)
      | (O.Infeasible | O.Limit | O.Memout _), _ -> true)

let prop_ls_never_infeasible =
  qtest ~count:40 "local search verdicts are Feasible or Limit only"
    (Test_util.instance_gen ~nmax:4 ~tmax:4 ())
    (fun (ts, m) ->
      match
        Localsearch.Min_conflicts.solve ~budget:(Prelude.Timer.budget ~nodes:5_000 ()) ts ~m
      with
      | O.Feasible sched, _ -> Verify.is_feasible ts sched
      | O.Limit, _ -> true
      | (O.Infeasible | O.Memout _), _ -> false)

(* ------------------------------------------------------------------ *)
(* Priority assignment                                                  *)

let test_priority_dc_seed () =
  let ranks = Priority.Assignment.dc_first running in
  (* D−C: τ3 (0) < τ1 (1) = τ2 (1, tie by id). *)
  check Alcotest.int "τ3 highest" 0 ranks.(2);
  check Alcotest.int "τ1 next" 1 ranks.(0);
  check Alcotest.int "τ2 last" 2 ranks.(1)

let test_priority_found_simulates_ok () =
  (* A comfortable instance: any found assignment must pass simulation. *)
  let ts = Taskset.of_tuples [ (0, 1, 3, 3); (0, 1, 4, 4); (0, 1, 6, 6) ] in
  match Priority.Assignment.search ts ~m:2 with
  | Priority.Assignment.Found ranks, _ ->
    let res = Sched.Sim.run ts ~m:2 ~policy:(Sched.Sim.Fixed_priority ranks) in
    Alcotest.(check bool) "assignment works" true (res.Sched.Sim.ok && res.Sched.Sim.exact)
  | Priority.Assignment.Not_found, _ -> Alcotest.fail "trivially schedulable"
  | Priority.Assignment.Limit, _ -> Alcotest.fail "unexpected limit"

let test_priority_trap_not_found () =
  (* The EDF trap has no working fixed-priority order on 2 processors. *)
  match Priority.Assignment.search Examples.edf_trap ~m:2 with
  | Priority.Assignment.Not_found, stats ->
    Alcotest.(check bool) "searched some orders" true
      (stats.Priority.Assignment.candidates > 0)
  | Priority.Assignment.Found _, _ -> Alcotest.fail "no FP order works for the trap"
  | Priority.Assignment.Limit, _ -> Alcotest.fail "unexpected limit"

let test_priority_budget () =
  match
    Priority.Assignment.search ~budget:(Prelude.Timer.budget ~nodes:1 ())
      (Taskset.of_tuples [ (0, 2, 2, 2); (0, 2, 2, 2); (0, 2, 2, 2) ])
      ~m:1
  with
  | Priority.Assignment.Limit, _ -> ()
  | (Priority.Assignment.Found _ | Priority.Assignment.Not_found), _ ->
    Alcotest.fail "one simulation cannot finish this search"

let prop_priority_found_implies_feasible =
  qtest ~count:40 "Found assignments simulate cleanly and imply CSP feasibility"
    (Test_util.instance_gen ~nmax:4 ~tmax:4 ())
    (fun (ts, m) ->
      match
        Priority.Assignment.search ~budget:(Prelude.Timer.budget ~nodes:2_000 ()) ts ~m
      with
      | Priority.Assignment.Found ranks, _ ->
        let sim = Sched.Sim.run ts ~m ~policy:(Sched.Sim.Fixed_priority ranks) in
        sim.Sched.Sim.ok && sim.Sched.Sim.exact
        && (match Csp2.Opt.solve ~memo_mb:0 ~budget:(Prelude.Timer.budget ~wall_s:5.0 ()) ts ~m with
           | O.Feasible _, _ -> true
           | (O.Infeasible | O.Limit | O.Memout _), _ -> false)
      | (Priority.Assignment.Not_found | Priority.Assignment.Limit), _ -> true)

let prop_priority_dc_tried_first =
  qtest ~count:40 "when the D-C order works it is found with minimal simulations"
    (Test_util.instance_gen ~nmax:4 ~tmax:4 ())
    (fun (ts, m) ->
      let dc = Priority.Assignment.dc_first ts in
      let sim = Sched.Sim.run ts ~m ~policy:(Sched.Sim.Fixed_priority dc) in
      (not (sim.Sched.Sim.ok && sim.Sched.Sim.exact))
      ||
      match Priority.Assignment.search ts ~m with
      | Priority.Assignment.Found ranks, stats ->
        ranks = dc && stats.Priority.Assignment.candidates = Taskset.size ts
      | (Priority.Assignment.Not_found | Priority.Assignment.Limit), _ -> false)

let () =
  Alcotest.run "extensions"
    [
      ( "local search",
        [
          Alcotest.test_case "running example" `Quick test_ls_running_example;
          Alcotest.test_case "no infeasibility proofs" `Quick test_ls_never_proves_infeasibility;
          Alcotest.test_case "seed determinism" `Quick test_ls_seed_determinism;
          prop_ls_solves_feasible_instances;
          prop_ls_never_infeasible;
        ] );
      ( "priority assignment",
        [
          Alcotest.test_case "D-C seed order" `Quick test_priority_dc_seed;
          Alcotest.test_case "found => simulates ok" `Quick test_priority_found_simulates_ok;
          Alcotest.test_case "trap has no FP order" `Quick test_priority_trap_not_found;
          Alcotest.test_case "budget" `Quick test_priority_budget;
          prop_priority_found_implies_feasible;
          prop_priority_dc_tried_first;
        ] );
    ]
