(* Tests for the static schedulability analyzer: verdicts on hand-crafted
   instances, independent certificate validation (including corrupted
   certificates), and differential properties against the complete CSP2
   backend. *)

open Rt_model
module O = Encodings.Outcome
module A = Analysis

let check = Alcotest.check
let qtest = Test_util.qtest

let analyze ?work_budget ts ~m = A.analyze ?work_budget ts ~m

let validate ts ~m cert = A.Certificate.validate ts (Platform.identical ~m) cert

let infeasible_cert name report =
  match report.A.verdict with
  | A.Infeasible cert -> cert
  | A.Feasible _ -> Alcotest.fail (name ^ ": expected Infeasible, got Feasible")
  | A.Undecided -> Alcotest.fail (name ^ ": expected Infeasible, got Undecided")

(* ------------------------------------------------------------------ *)
(* Hand-crafted verdicts                                                *)

(* The running example needs 2 processors (U = 23/12): on one, the r > 1
   filter fires with an exact utilization certificate. *)
let test_utilization_certificate () =
  let ts = Examples.running_example in
  let report = analyze ts ~m:1 in
  let cert = infeasible_cert "running m=1" report in
  (match cert.step with
  | A.Certificate.Utilization { demand = 23; supply = 12 } -> ()
  | _ -> Alcotest.fail "expected a utilization step");
  Alcotest.(check bool) "validates" true (validate ts ~m:1 cert);
  Alcotest.(check (list string)) "nothing skipped" [] report.skipped

(* The all-jobs cut: Σ_t min(m, tasks whose window holds t) against the
   total demand, as the one step of a certificate that validates. *)
let check_cut name ts ~m ~demand ~supply =
  let cert = infeasible_cert name (analyze ts ~m) in
  Alcotest.(check bool) (name ^ ": validates") true (validate ts ~m cert);
  match cert.step with
  | A.Certificate.Supply_shortfall s when s.demand = demand && s.supply = supply -> ()
  | _ -> Alcotest.failf "%s: expected Supply_shortfall { demand = %d; supply = %d }" name demand supply

(* Three laxity-zero tasks share the slots {0,1}: every feasible schedule
   runs all three there, overloading m = 2 — caught without any search,
   while U = 1.5 <= m keeps the r > 1 filter silent.  The two covered
   slots supply 2·2 = 4 of the 6 units. *)
let test_slot_overload () =
  let ts = Taskset.of_tuples [ (0, 2, 2, 4); (0, 2, 2, 4); (0, 2, 2, 4) ] in
  check_cut "zero-laxity overload" ts ~m:2 ~demand:6 ~supply:4

(* Two laxity-zero tasks fill slots 0 and 1 on m = 2, where the third
   task's only window lies: its unit has nowhere to go, 5 units in 4. *)
let test_saturation_cascade () =
  let ts = Taskset.of_tuples [ (0, 2, 2, 4); (0, 2, 2, 4); (0, 1, 2, 4) ] in
  check_cut "saturation cascade" ts ~m:2 ~demand:5 ~supply:4

(* Interval demand: on [0, 4) tasks τ1 and τ2 are forced to place 3 units
   each while m = 1 supplies 4 slots.  Utilization is exactly 1 and the
   hyperperiod supply matches the demand, so the cut leaves it to the
   flow, whose min cut is the Hall set {τ1's job 1, τ2's job 1}: 7 units
   in the 5 slots of their windows.  The interval argument is the special
   case of that set forced into one interval. *)
let test_interval_demand () =
  let ts = Test_util.interval_trap in
  Alcotest.(check bool) "r <= 1" false (A.utilization_exceeds ts ~m:1);
  let report = analyze ts ~m:1 in
  let cert = infeasible_cert "interval trap" report in
  Alcotest.(check bool) "validates" true (validate ts ~m:1 cert);
  Alcotest.(check bool) "Hall step" true
    (match cert.step with
    | A.Certificate.Hall { jobs = [ (0, 0); (1, 0) ]; demand = 7; supply = 5 } -> true
    | _ -> false)

(* U exactly m must NOT be filtered by r > 1 (r = 1 is allowed) — but the
   analyzer is strictly stronger: both tasks' only window is slot 0, so
   the all-jobs cut still refutes m = 1 (2 units, 1 covered slot). *)
let test_exact_boundary () =
  let ts = Taskset.of_tuples [ (0, 1, 1, 2); (0, 1, 1, 2) ] in
  Alcotest.(check bool) "r = 1 passes the filter" false (A.utilization_exceeds ts ~m:1);
  check_cut "r = 1 but slot-overloaded" ts ~m:1 ~demand:2 ~supply:1

(* Sparse windows (the old slot_capacity_shortfall test family): demand 4
   per hyperperiod 4 but only three covered slots, so the all-jobs cut
   refutes m = 1 without any forced slot. *)
let test_supply_shortfall () =
  let ts = Taskset.of_tuples [ (0, 2, 3, 4); (0, 2, 3, 4) ] in
  check_cut "sparse windows" ts ~m:1 ~demand:4 ~supply:3;
  match (analyze ts ~m:2).A.verdict with
  | A.Infeasible _ -> Alcotest.fail "feasible on two processors"
  | _ -> ()

(* A trivially feasible instance gets the flow's schedule, and the
   witness stage ahead of the analyzer schedules it too. *)
let test_trivially_feasible () =
  let ts = Taskset.of_tuples [ (0, 1, 2, 2); (0, 1, 2, 2) ] in
  (match (analyze ts ~m:2).A.verdict with
  | A.Feasible sched -> Alcotest.(check bool) "flow schedule verified" true (Verify.is_feasible ts sched)
  | A.Undecided -> Alcotest.fail "the flow decides it"
  | A.Infeasible _ -> Alcotest.fail "refuted a feasible instance");
  match Sched.Sim.llf_witness ~budget:Prelude.Timer.unlimited ts ~m:2 with
  | Some sched -> Alcotest.(check bool) "verified" true (Verify.is_feasible ts sched)
  | None -> Alcotest.fail "expected an LLF witness"

(* The old slot_capacity_shortfall guard silently returned "no conclusion"
   over the 10^7 cost line; the analyzer must now say so. *)
let test_budget_skip_is_reported () =
  let ts = Examples.running_example in
  let report = analyze ~work_budget:10 ts ~m:2 in
  Alcotest.(check bool) "skip reported" true (report.A.skipped <> []);
  match report.A.verdict with
  | A.Undecided -> ()
  | _ -> Alcotest.fail "budget-starved analysis must stay inconclusive"

let test_wall_budget_skip_is_reported () =
  (* An already-expired wall budget must stop the window passes at the
     first checkpoint — reported, never silently degraded — so a caller
     capping the analyzer (the pre-search pass, at half the remaining
     wall) cannot lose its whole allowance to a slow pass. *)
  let ts = Examples.running_example in
  let wall = Prelude.Timer.budget ~wall_s:0.0 () in
  let report = A.analyze ~wall ts ~m:2 in
  (* The default work budget cannot trigger on the tiny running example,
     so any reported skip here comes from the wall check. *)
  Alcotest.(check bool) "skip reported" true (report.A.skipped <> []);
  (match report.A.verdict with
  | A.Undecided -> ()
  | _ -> Alcotest.fail "wall-starved analysis must stay inconclusive");
  let cancelled = Prelude.Timer.budget () in
  Prelude.Timer.cancel cancelled;
  let report = A.analyze ~wall:cancelled ts ~m:2 in
  Alcotest.(check bool) "cancelled budget also skips" true (report.A.skipped <> [])

(* T ≈ 1.6·10¹⁸ and U ≈ 0.0055, so m·T wraps past max_int at m = 5: the
   utilization test must not read the wrapped product as a tiny supply.
   The instance is far too large for the window passes, and the analyzer
   may reject it outright, but it must never refute it. *)
let wrapping_instance =
  Taskset.of_tuples (List.map (fun p -> (0, 1, p, p)) [ 1097; 1093; 1091; 1087; 1069; 1063 ])

let test_wrapping_supply () =
  let ts = wrapping_instance in
  Alcotest.(check bool) "r <= 1" false (A.utilization_exceeds ts ~m:5);
  (match analyze ts ~m:5 with
  | { A.verdict = A.Infeasible _; _ } -> Alcotest.fail "refuted a U = 0.0055 instance"
  | _ | (exception Invalid_argument _) -> ());
  let num, den = Taskset.utilization_num_den ts in
  let wrapped =
    { A.Certificate.m = 5; step = A.Certificate.Utilization { demand = num; supply = 5 * den } }
  in
  Alcotest.(check bool) "the product wraps" true (5 * den < num);
  Alcotest.(check bool) "wrapped supply rejected" false (validate ts ~m:5 wrapped)

let test_rejects_bad_arguments () =
  Alcotest.check_raises "m = 0"
    (Invalid_argument "Analysis.analyze: m must be >= 1") (fun () ->
      ignore (analyze Examples.running_example ~m:0));
  let loose = Taskset.of_tuples [ (0, 1, 5, 3) ] in
  Alcotest.(check bool) "arbitrary deadlines rejected" true
    (try
       ignore (analyze loose ~m:1);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Certificate validation is adversarial                                *)

let test_corrupted_certificates_rejected () =
  let ts = Test_util.interval_trap in
  let cert = infeasible_cert "interval trap" (analyze ts ~m:1) in
  Alcotest.(check bool) "genuine" true (validate ts ~m:1 cert);
  let tampered_demand =
    match cert.A.Certificate.step with
    | A.Certificate.Hall { jobs; demand; supply } ->
      { cert with A.Certificate.step = A.Certificate.Hall { jobs; demand = demand + 1; supply } }
    | _ -> Alcotest.fail "expected a Hall step"
  in
  Alcotest.(check bool) "tampered demand" false (validate ts ~m:1 tampered_demand);
  let wrong_m = { cert with A.Certificate.m = 2 } in
  Alcotest.(check bool) "wrong m" false (validate ts ~m:2 wrong_m);
  Alcotest.(check bool) "platform mismatch" false
    (A.Certificate.validate ts (Platform.identical ~m:2) cert);
  (* The all-jobs cut's numbers are recounted exactly: one unit more
     demand, or one slot less supply, than the windows give is refused. *)
  let ts = Taskset.of_tuples [ (0, 2, 2, 4); (0, 2, 2, 4); (0, 2, 2, 4) ] in
  let cut demand supply =
    { A.Certificate.m = 2; step = A.Certificate.Supply_shortfall { demand; supply } }
  in
  Alcotest.(check bool) "genuine cut" true (validate ts ~m:2 (cut 6 4));
  Alcotest.(check bool) "cut demand + 1" false (validate ts ~m:2 (cut 7 4));
  Alcotest.(check bool) "cut supply - 1" false (validate ts ~m:2 (cut 6 3));
  (* A fabricated shortfall on a healthy instance must not validate. *)
  let ts = Examples.running_example in
  let demand = Taskset.total_demand ts in
  Alcotest.(check bool) "fabricated shortfall" false
    (validate ts ~m:2 (cut demand (demand - 1)))

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  k = 0 || go 0

let test_certificate_pp () =
  let cert = infeasible_cert "interval trap" (analyze Test_util.interval_trap ~m:1) in
  let s = Format.asprintf "%a" A.Certificate.pp cert in
  Alcotest.(check bool) "prints the Hall set" true (contains s "τ1 {1}, τ2 {1}")

(* The benchmark's fresh corpus, the paper's Section VII regime: at the
   default work budget the static pass must finish on every instance that
   gets past the utilization test, with no pass truncated or skipped, and
   decide it.  The counts are deterministic, pinned here. *)
let test_fresh_corpus_complete () =
  let corpus =
    Gen.Generator.batch ~seed:0 ~count:64
      (Gen.Generator.default ~n:10 ~m:(Gen.Generator.Fixed_m 5) ~tmax:7)
  in
  let reached = ref 0 and decided = ref 0 and feasible = ref 0 in
  Array.iter
    (fun (ts, m) ->
      if not (A.utilization_exceeds ts ~m) then begin
        incr reached;
        let report = analyze ts ~m in
        Alcotest.(check (list string)) "nothing skipped" [] report.A.skipped;
        match report.A.verdict with
        | A.Infeasible cert ->
          Alcotest.(check bool) "certificate validates" true (validate ts ~m cert);
          incr decided
        | A.Feasible sched ->
          Alcotest.(check bool) "schedule verifies" true (Verify.is_feasible ts sched);
          incr feasible
        | A.Undecided -> ()
      end)
    corpus;
  check Alcotest.int "instances past the utilization test" 32 !reached;
  check Alcotest.int "refuted statically" 5 !decided;
  check Alcotest.int "scheduled by the flow" 27 !feasible

(* Why the all-jobs cut stays ahead of the flow: Table IV's stream at
   n = 16 (generator seed 1 + 1000·n), instance 2, with m = 7 and
   T = 32 760.  The cut refutes it in one step; the flow alone, given
   what the window charge leaves of the default work budget, stops
   before it decides. *)
let test_cut_ahead_of_flow () =
  let ts, m =
    (Gen.Generator.batch ~seed:16001 ~count:3
       (Gen.Generator.default ~n:16 ~m:Gen.Generator.Min_processors ~tmax:15)).(2)
  in
  check Alcotest.int "m" 7 m;
  check Alcotest.int "hyperperiod" 32760 (Taskset.hyperperiod ts);
  let report = analyze ts ~m in
  Alcotest.(check (list string)) "nothing skipped" [] report.A.skipped;
  let cert = infeasible_cert "Table IV n = 16, #2" report in
  Alcotest.(check bool) "one-step cut" true
    (match cert.step with
    | A.Certificate.Supply_shortfall { demand = 229157; supply = 227630 } -> true
    | _ -> false);
  Alcotest.(check bool) "validates" true (validate ts ~m cert);
  let horizon = Taskset.hyperperiod ts in
  let cells =
    Array.fold_left
      (fun acc (task : Task.t) -> acc + (horizon / task.period * task.deadline))
      0 (Taskset.tasks ts)
  in
  let left = ref (A.default_work_budget - (Taskset.size ts * horizon) - cells) in
  let spend cost =
    cost <= !left
    && begin
         left := !left - cost;
         true
       end
  in
  match A.Flow.solve ~spend ts ~m with
  | A.Flow.Stopped -> ()
  | A.Flow.Cut _ -> Alcotest.fail "the flow alone decided it within the budget"
  | A.Flow.Schedule _ -> Alcotest.fail "the flow scheduled a refuted instance"

(* ------------------------------------------------------------------ *)
(* Differential properties against the complete CSP2 backend            *)

let solve_exact ts ~m =
  let budget = Prelude.Timer.budget ~wall_s:10.0 () in
  fst (Csp2.Opt.solve ~memo_mb:0 ~budget ts ~m)

(* Every Infeasible verdict carries a valid certificate, every Feasible
   one a schedule that verifies, and neither contradicts the complete
   solver. *)
let prop_analyzer_agrees_with_backend =
  qtest ~count:300 "analyzer never contradicts CSP2"
    (Test_util.instance_gen ())
    ~print:Test_util.print_instance
    (fun (ts, m) ->
      let report = analyze ts ~m in
      match report.A.verdict with
      | A.Infeasible cert ->
        validate ts ~m cert
        && (match solve_exact ts ~m with O.Feasible _ -> false | _ -> true)
      | A.Feasible sched ->
        Verify.is_feasible ts sched
        && (match solve_exact ts ~m with O.Infeasible -> false | _ -> true)
      | A.Undecided -> true)

let () =
  Alcotest.run "analysis"
    [
      ( "verdicts",
        [
          Alcotest.test_case "utilization certificate" `Quick test_utilization_certificate;
          Alcotest.test_case "slot overload" `Quick test_slot_overload;
          Alcotest.test_case "saturation cascade" `Quick test_saturation_cascade;
          Alcotest.test_case "interval demand" `Quick test_interval_demand;
          Alcotest.test_case "r = 1 boundary" `Quick test_exact_boundary;
          Alcotest.test_case "supply shortfall" `Quick test_supply_shortfall;
          Alcotest.test_case "trivially feasible" `Quick test_trivially_feasible;
          Alcotest.test_case "budget skip reported" `Quick test_budget_skip_is_reported;
          Alcotest.test_case "wall budget skip reported" `Quick test_wall_budget_skip_is_reported;
          Alcotest.test_case "bad arguments" `Quick test_rejects_bad_arguments;
          Alcotest.test_case "wrapping supply" `Quick test_wrapping_supply;
          Alcotest.test_case "fresh corpus complete" `Quick test_fresh_corpus_complete;
          Alcotest.test_case "all-jobs cut ahead of the flow" `Quick test_cut_ahead_of_flow;
        ] );
      ( "certificates",
        [
          Alcotest.test_case "corrupted certificates rejected" `Quick
            test_corrupted_certificates_rejected;
          Alcotest.test_case "pretty-printing" `Quick test_certificate_pp;
        ] );
      ( "differential", [ prop_analyzer_agrees_with_backend ] );
    ]
