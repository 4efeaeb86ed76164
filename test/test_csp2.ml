(* Tests for the dedicated CSP2 solvers (identical and heterogeneous):
   agreement with the generic encodings, heuristic behaviour, determinism,
   wrap-around handling, node-for-node parity of the memo-off engine with
   the classic reference, and the heterogeneous idle-necessity
   regression. *)

open Rt_model
module O = Encodings.Outcome

let check = Alcotest.check
let qtest = Test_util.qtest

let running = Examples.running_example
let budget () = Prelude.Timer.budget ~wall_s:5.0 ()
let decided = function O.Feasible _ | O.Infeasible -> true | O.Limit | O.Memout _ -> false

(* The paper's Section V search: the one engine with its memo-on layers
   (memo, nogoods, capacity bound) off. *)
let paper ?heuristic ?budget ?urgency ts ~m =
  Csp2.Opt.solve ~memo_mb:0 ?heuristic ?budget ?urgency ts ~m

(* ------------------------------------------------------------------ *)
(* Heuristic module                                                     *)

let test_heuristic_keys () =
  let t = Task.make ~offset:0 ~wcet:2 ~deadline:3 ~period:5 () in
  check Alcotest.int "RM" 5 (Csp2.Heuristic.key Csp2.Heuristic.RM t);
  check Alcotest.int "DM" 3 (Csp2.Heuristic.key Csp2.Heuristic.DM t);
  check Alcotest.int "TC" 3 (Csp2.Heuristic.key Csp2.Heuristic.TC t);
  check Alcotest.int "DC" 1 (Csp2.Heuristic.key Csp2.Heuristic.DC t)

let test_heuristic_order () =
  (* DC keys for the running example: τ1: 2-1=1, τ2: 4-3=1, τ3: 2-2=0. *)
  Alcotest.(check (array int)) "DC order" [| 2; 0; 1 |]
    (Csp2.Heuristic.order Csp2.Heuristic.DC running);
  let ranks = Csp2.Heuristic.rank Csp2.Heuristic.DC running in
  check Alcotest.int "τ3 first" 0 ranks.(2);
  (* Ranks are a permutation. *)
  let sorted = Array.copy ranks in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" [| 0; 1; 2 |] sorted

let test_heuristic_strings () =
  List.iter
    (fun h ->
      match Csp2.Heuristic.of_string (Csp2.Heuristic.to_string h) with
      | Some h' -> Alcotest.(check bool) "roundtrip" true (h = h')
      | None -> Alcotest.fail "roundtrip failed")
    Csp2.Heuristic.all;
  Alcotest.(check bool) "unknown" true (Csp2.Heuristic.of_string "zzz" = None)

(* ------------------------------------------------------------------ *)
(* Identical-platform solver                                            *)

let test_running_example_all_heuristics () =
  List.iter
    (fun h ->
      match paper ~heuristic:h running ~m:2 with
      | O.Feasible sched, _ ->
        Alcotest.(check bool)
          (Printf.sprintf "verified (%s)" (Csp2.Heuristic.to_string h))
          true (Verify.is_feasible running sched)
      | (O.Infeasible | O.Limit | O.Memout _), _ -> Alcotest.fail "running example is feasible")
    Csp2.Heuristic.all

let test_infeasible_proof () =
  match paper running ~m:1 with
  | O.Infeasible, _ -> ()
  | (O.Feasible _ | O.Limit | O.Memout _), _ -> Alcotest.fail "m=1 is infeasible (r > 1)"

let test_deterministic () =
  let run () =
    match paper running ~m:2 with
    | O.Feasible sched, stats -> (sched, stats.Csp2.Opt.nodes)
    | _ -> Alcotest.fail "feasible"
  in
  let s1, n1 = run () and s2, n2 = run () in
  Alcotest.(check bool) "same schedule" true (Schedule.equal s1 s2);
  check Alcotest.int "same node count" n1 n2

let test_budget_limit () =
  (* A hard instance: r close to 1 with many tasks. *)
  let params = Gen.Generator.default ~n:10 ~m:(Gen.Generator.Fixed_m 5) ~tmax:7 in
  let instances = Gen.Generator.batch ~seed:5 ~count:30 params in
  let limited = ref false in
  Array.iter
    (fun (ts, m) ->
      match paper ~budget:(Prelude.Timer.budget ~nodes:50 ()) ts ~m with
      | O.Limit, _ -> limited := true
      | (O.Feasible _ | O.Infeasible | O.Memout _), _ -> ())
    instances;
  Alcotest.(check bool) "some run hits the node budget" true !limited

let test_wall_budget_respected () =
  (* Regression: with urgency propagation off, [advance] enumerates up to
     C(n_free, k) candidate subsets between two outer-loop polls, so a
     masked nodes-mod-256 check there let a 50 ms wall budget overshoot by
     orders of magnitude (minutes on this very instance).  The budget is
     now polled on every node, inside the subset loop. *)
  let params = Gen.Generator.default ~n:12 ~m:(Gen.Generator.Fixed_m 4) ~tmax:7 in
  let ts, m = (Gen.Generator.batch ~seed:2 ~count:1 params).(0) in
  let wall = 0.05 in
  let t0 = Prelude.Timer.start () in
  let outcome, _ =
    paper ~urgency:false ~budget:(Prelude.Timer.budget ~wall_s:wall ()) ts ~m
  in
  let elapsed = Prelude.Timer.elapsed t0 in
  (match outcome with
  | O.Limit -> ()
  | O.Feasible _ | O.Infeasible | O.Memout _ ->
    Alcotest.fail "expected the wall budget to cut the search short");
  Alcotest.(check bool)
    (Printf.sprintf "returned within 2x the wall budget (took %.3fs)" elapsed)
    true
    (elapsed <= 2. *. wall)

let test_edf_trap_feasible () =
  match paper Examples.edf_trap ~m:Examples.edf_trap_m with
  | O.Feasible sched, _ ->
    Alcotest.(check bool) "verified" true (Verify.is_feasible Examples.edf_trap sched)
  | (O.Infeasible | O.Limit | O.Memout _), _ -> Alcotest.fail "the trap is feasible"

let test_wrapped_window_instance () =
  (* Offsets force a wrapped window; solver must handle the head/tail
     split.  τ: O=2, C=2, D=3, T=3 over hyperperiod 3: window {2,0,1}. *)
  let ts = Taskset.of_tuples [ (2, 2, 3, 3); (0, 1, 3, 3) ] in
  match paper ts ~m:1 with
  | O.Feasible sched, _ -> Alcotest.(check bool) "verified" true (Verify.is_feasible ts sched)
  | (O.Infeasible | O.Limit | O.Memout _), _ -> Alcotest.fail "feasible via wrap"

(* Two seconds or so of the paper's search, and a wall besides. *)
let agreement_budget () = Prelude.Timer.budget ~wall_s:5.0 ~nodes:2_000_000 ()

let prop_agrees_with_csp1 =
  (* Reference verdict from the CDCL path (fast on both SAT and UNSAT).
     Every verdict the paper's search (memo off) reaches, under any
     heuristic, must match it, and its schedules must verify.  A run
     that ends at [Limit] reaches none and is set apart, not failed: the
     memo-off search can thrash on a feasible instance under any order,
     D−C's included (see "thrash instances" below), so each run gets a
     node budget besides the wall.  The engine with its memo on, under
     D−C, must decide, so that no instance passes on limits alone. *)
  qtest ~count:80 "dedicated CSP2 = CSP1/SAT on random instances, all heuristics"
    (Test_util.instance_gen ~nmax:4 ~tmax:5 ())
    (fun (ts, m) ->
      let reference, _ = Encodings.Csp1_sat.solve ~budget:(budget ()) ts ~m in
      let agrees = function
        | O.Feasible sched, _ -> Verify.is_feasible ts sched && O.is_feasible reference
        | O.Infeasible, _ -> not (O.is_feasible reference)
        | (O.Limit | O.Memout _), _ -> false
      in
      decided reference
      && agrees (Csp2.Opt.solve ~heuristic:Csp2.Heuristic.DC ~budget:(agreement_budget ()) ts ~m)
      && List.for_all
           (fun h ->
             match paper ~heuristic:h ~budget:(agreement_budget ()) ts ~m with
             | (O.Limit | O.Memout _), _ -> true
             | outcome -> agrees outcome)
           Csp2.Heuristic.all)

(* Two feasible instances (T = 60, U = 0.983, one processor) on which the
   memo-off search thrashes, under node budgets so that the outcome is
   the same on any host.  With offsets 0, 1, 2, D−C schedules the first
   in 60 nodes and the memo-on engine under the identity order in 175,
   while the memo-off identity order has found nothing after 10⁵ nodes
   (it needs over 10⁸).  With offsets 3, 2, 4 even memo-off D−C needs
   4.2·10⁷ nodes, and the memo-on engine 181. *)
let test_thrash_instances () =
  let shifted = Taskset.of_tuples [ (0, 1, 4, 4); (1, 1, 2, 3); (2, 2, 4, 5) ] in
  let drawn = Taskset.of_tuples [ (3, 1, 4, 4); (2, 1, 2, 3); (4, 2, 4, 5) ] in
  let nodes n = Prelude.Timer.budget ~nodes:n () in
  let feasible name ts = function
    | O.Feasible sched, _ -> Alcotest.(check bool) name true (Verify.is_feasible ts sched)
    | (O.Infeasible | O.Limit | O.Memout _), _ -> Alcotest.failf "%s: no schedule" name
  in
  let thrashes name = function
    | O.Limit, _ -> ()
    | (O.Feasible _ | O.Infeasible | O.Memout _), _ ->
      Alcotest.failf "%s decided within 10^5 nodes" name
  in
  let open Csp2.Heuristic in
  feasible "memo-off D-C" shifted (paper ~heuristic:DC ~budget:(nodes 1_000) shifted ~m:1);
  feasible "memo-on Id" shifted (Csp2.Opt.solve ~heuristic:Id ~budget:(nodes 1_000) shifted ~m:1);
  thrashes "memo-off Id" (paper ~heuristic:Id ~budget:(nodes 100_000) shifted ~m:1);
  feasible "memo-on D-C" drawn (Csp2.Opt.solve ~heuristic:DC ~budget:(nodes 1_000) drawn ~m:1);
  thrashes "memo-off D-C" (paper ~heuristic:DC ~budget:(nodes 100_000) drawn ~m:1)

let prop_stats_sane =
  qtest ~count:60 "solver stats are consistent"
    (Test_util.instance_gen ~nmax:4 ~tmax:4 ())
    (fun (ts, m) ->
      let _, stats = paper ts ~m in
      stats.Csp2.Opt.nodes >= 0
      && stats.Csp2.Opt.fails >= 0
      && stats.Csp2.Opt.max_time_reached <= Taskset.hyperperiod ts)

let prop_no_urgency_agrees =
  qtest ~count:60 "urgency propagation off: still sound and complete"
    (Test_util.instance_gen ~nmax:4 ~tmax:4 ())
    (fun (ts, m) ->
      let strong, _ = paper ~budget:(budget ()) ts ~m in
      let weak, _ = paper ~urgency:false ~budget:(budget ()) ts ~m in
      decided strong && decided weak
      && O.is_feasible strong = O.is_feasible weak
      && (match weak with O.Feasible s -> Verify.is_feasible ts s | _ -> true))

let test_no_urgency_weaker () =
  (* Same instance, same verdict, but the weak search visits at least as
     many nodes as the propagating one. *)
  let ts = Examples.running_example in
  let _, strong = paper ts ~m:2 in
  let _, weak = paper ~urgency:false ts ~m:2 in
  Alcotest.(check bool) "weak explores no fewer nodes" true
    (weak.Csp2.Opt.nodes >= strong.Csp2.Opt.nodes)

(* ------------------------------------------------------------------ *)
(* Optimized engine (bitsets + memo + parallel subtree splitting)       *)

let test_opt_running_example_all_heuristics () =
  List.iter
    (fun h ->
      match Csp2.Opt.solve ~heuristic:h running ~m:2 with
      | O.Feasible sched, _ ->
        Alcotest.(check bool)
          (Printf.sprintf "verified (%s)" (Csp2.Heuristic.to_string h))
          true (Verify.is_feasible running sched)
      | (O.Infeasible | O.Limit | O.Memout _), _ -> Alcotest.fail "running example is feasible")
    Csp2.Heuristic.all

(* The classic reference's verdict.  When U > m the exact utilization test
   gives it: the memo-off search can need millions of nodes to refute such
   an instance (m = 1 with tasks (0,1,4,5), (0,2,4,4), (1,1,3,3) takes
   14.4 M nodes, past the 5 s wall), while the memo-on engines under test
   still have to refute it themselves. *)
let classic_verdict ts ~m =
  if Analysis.utilization_exceeds ts ~m then O.Infeasible
  else fst (Csp2_ref.solve ~budget:(budget ()) ts ~m)

let prop_opt_matches_classic =
  (* The soundness gate of the memo-on configuration: it and the classic
     reference search must return the same verdict on every instance, and
     every schedule it produces must verify.  Node counts may differ (the
     memo and the capacity bound prune), verdicts may not. *)
  qtest ~count:120 ~print:Test_util.print_instance "opt = classic verdicts on random instances"
    (Test_util.instance_gen ~nmax:5 ~tmax:5 ())
    (fun (ts, m) ->
      let classic = classic_verdict ts ~m in
      let opt, _ = Csp2.Opt.solve ~budget:(budget ()) ts ~m in
      decided classic && decided opt
      && O.is_feasible classic = O.is_feasible opt
      && (match opt with O.Feasible s -> Verify.is_feasible ts s | _ -> true))

let prop_opt_parallel_matches_sequential =
  (* Subtree splitting must not change the verdict: --jobs 1 and --jobs 3
     agree (the witness schedule may differ; it must still verify). *)
  qtest ~count:80 "opt parallel (jobs=3) = opt sequential"
    (Test_util.instance_gen ~nmax:5 ~tmax:5 ())
    (fun (ts, m) ->
      let seq, _ = Csp2.Opt.solve_parallel ~jobs:1 ~budget:(budget ()) ts ~m in
      let par, par_st =
        Csp2.Opt.solve_parallel ~jobs:3 ~split_depth:2 ~budget:(budget ()) ts ~m
      in
      decided seq && decided par
      && O.is_feasible seq = O.is_feasible par
      && par_st.Csp2.Opt.steals >= 0
      && (match par with O.Feasible s -> Verify.is_feasible ts s | _ -> true))

let prop_opt_nogood_ablation_matches =
  (* Nogood learning is a pruning accelerator, never a decision change:
     learning on, learning off and the classic reference agree on every
     instance, sequentially and through the work-stealing phase. *)
  qtest ~count:60 ~print:Test_util.print_instance "nogoods on = off = classic (seq and jobs=2)"
    (Test_util.instance_gen ~nmax:5 ~tmax:5 ())
    (fun (ts, m) ->
      let classic = classic_verdict ts ~m in
      let on_, _ = Csp2.Opt.solve ~nogoods:true ~budget:(budget ()) ts ~m in
      let off, _ = Csp2.Opt.solve ~nogoods:false ~budget:(budget ()) ts ~m in
      let par_on, _ =
        Csp2.Opt.solve_parallel ~nogoods:true ~jobs:2 ~split_depth:2 ~budget:(budget ()) ts
          ~m
      in
      let par_off, _ =
        Csp2.Opt.solve_parallel ~nogoods:false ~jobs:2 ~split_depth:2 ~budget:(budget ())
          ts ~m
      in
      decided classic && decided on_ && decided off && decided par_on && decided par_off
      && O.is_feasible classic = O.is_feasible on_
      && O.is_feasible on_ = O.is_feasible off
      && O.is_feasible on_ = O.is_feasible par_on
      && O.is_feasible on_ = O.is_feasible par_off
      && (match on_ with O.Feasible s -> Verify.is_feasible ts s | _ -> true))

let test_opt_nogood_budget_evicts () =
  (* One combined --memo-mb budget covers both tables: at 3 MiB the
     nogood store's slice is a few dozen entries on Table-I-sized
     instances (at 1 MiB it holds fewer than its 32-entry minimum, so
     no store is built), so a backtrack-heavy batch must recycle
     entries (activity-based eviction), never grow without bound — and
     the squeezed store must not change any verdict. *)
  let params = Gen.Generator.default ~n:10 ~m:(Gen.Generator.Fixed_m 5) ~tmax:7 in
  let instances = Gen.Generator.batch ~seed:11 ~count:25 params in
  let evicted = ref 0 and stores = ref 0 in
  Array.iter
    (fun (ts, m) ->
      let tiny, st = Csp2.Opt.solve ~memo_mb:3 ~budget:(budget ()) ts ~m in
      let roomy, _ = Csp2.Opt.solve ~budget:(budget ()) ts ~m in
      evicted := !evicted + st.Csp2.Opt.nogood_evicted;
      stores := !stores + st.Csp2.Opt.nogood_stores;
      Alcotest.(check bool) "tiny/roomy verdicts equal" true
        (decided tiny && decided roomy && O.is_feasible tiny = O.is_feasible roomy))
    instances;
  Alcotest.(check bool)
    (Printf.sprintf "tiny budget evicted (stores=%d evicted=%d)" !stores !evicted)
    true (!evicted > 0)

let test_opt_deterministic () =
  (* Fixed Zobrist mixer + deterministic search: equal runs, equal counters. *)
  let run () =
    match Csp2.Opt.solve running ~m:2 with
    | O.Feasible sched, stats -> (sched, stats)
    | _ -> Alcotest.fail "feasible"
  in
  let s1, st1 = run () and s2, st2 = run () in
  Alcotest.(check bool) "same schedule" true (Schedule.equal s1 s2);
  check Alcotest.int "same node count" st1.Csp2.Opt.nodes st2.Csp2.Opt.nodes;
  check Alcotest.int "same memo hits" st1.Csp2.Opt.memo_hits st2.Csp2.Opt.memo_hits;
  check Alcotest.int "same memo stores" st1.Csp2.Opt.memo_stores st2.Csp2.Opt.memo_stores

let test_opt_memo_prunes () =
  (* On a backtrack-heavy batch (the Table I regime) the memo must
     actually fire, and turning it off ([memo_mb <= 0]) must not change
     any verdict.  Memo off is the paper's search, without the capacity
     bound either: under a 250 000-node budget it decides 19 of these 25
     and stops at [Limit] on the other 6 (five with U > m, which the
     bound refutes at the root).  Equal verdicts where both decide; where
     memo off stops, the memo-on verdict must be the infeasibility that
     the static analyzer independently certifies. *)
  let params = Gen.Generator.default ~n:10 ~m:(Gen.Generator.Fixed_m 5) ~tmax:7 in
  let instances = Gen.Generator.batch ~seed:11 ~count:25 params in
  let hits = ref 0 and both_decided = ref 0 in
  Array.iter
    (fun (ts, m) ->
      let with_memo, st = Csp2.Opt.solve ~budget:(budget ()) ts ~m in
      let without, _ =
        Csp2.Opt.solve ~memo_mb:0 ~budget:(Prelude.Timer.budget ~nodes:250_000 ()) ts ~m
      in
      hits := !hits + st.Csp2.Opt.memo_hits;
      Alcotest.(check bool) "memo on decides" true (decided with_memo);
      if decided without then begin
        incr both_decided;
        Alcotest.(check bool) "memo on/off verdicts equal" true
          (O.is_feasible with_memo = O.is_feasible without)
      end
      else begin
        Alcotest.(check bool) "memo on refutes where memo off stops" true
          (with_memo = O.Infeasible);
        match (Analysis.analyze ts ~m).Analysis.verdict with
        | Analysis.Infeasible cert ->
          Alcotest.(check bool) "analyzer certificate validates" true
            (Analysis.Certificate.validate ts (Platform.identical ~m) cert)
        | Analysis.Feasible _ | Analysis.Undecided -> Alcotest.fail "analyzer should refute"
      end)
    instances;
  check Alcotest.int "memo-off runs decided at 250 000 nodes" 19 !both_decided;
  Alcotest.(check bool) "memo pruned at least once across the batch" true (!hits > 0)

let test_opt_node_reduction () =
  (* The memo-on layers in miniature: across a searched batch they
     explore fewer nodes than the classic reference at equal verdicts. *)
  let params = Gen.Generator.default ~n:8 ~m:(Gen.Generator.Fixed_m 3) ~tmax:6 in
  let instances = Gen.Generator.batch ~seed:11 ~count:25 params in
  let classic_nodes = ref 0 and opt_nodes = ref 0 in
  Array.iter
    (fun (ts, m) ->
      let c, cst = Csp2_ref.solve ~budget:(budget ()) ts ~m in
      let o, ost = Csp2.Opt.solve ~budget:(budget ()) ts ~m in
      if decided c && decided o then begin
        classic_nodes := !classic_nodes + cst.Csp2_ref.nodes;
        opt_nodes := !opt_nodes + ost.Csp2.Opt.nodes
      end)
    instances;
  Alcotest.(check bool)
    (Printf.sprintf "opt nodes (%d) < classic nodes (%d)" !opt_nodes !classic_nodes)
    true
    (!opt_nodes < !classic_nodes)

let test_opt_wall_budget_respected () =
  (* Wall budgets must cut both the sequential loop and the parallel race
     promptly, whatever the verdict. *)
  let params = Gen.Generator.default ~n:12 ~m:(Gen.Generator.Fixed_m 4) ~tmax:7 in
  let instances = Gen.Generator.batch ~seed:2 ~count:5 params in
  let wall = 0.05 in
  Array.iter
    (fun (ts, m) ->
      List.iter
        (fun jobs ->
          let t0 = Prelude.Timer.start () in
          let _ =
            Csp2.Opt.solve_parallel ~jobs ~budget:(Prelude.Timer.budget ~wall_s:wall ()) ts ~m
          in
          let elapsed = Prelude.Timer.elapsed t0 in
          Alcotest.(check bool)
            (Printf.sprintf "returned within budget slack (jobs=%d, took %.3fs)" jobs elapsed)
            true
            (elapsed <= (2. *. wall) +. 0.1))
        [ 1; 3 ])
    instances

let test_opt_node_budget () =
  let params = Gen.Generator.default ~n:10 ~m:(Gen.Generator.Fixed_m 5) ~tmax:7 in
  let instances = Gen.Generator.batch ~seed:5 ~count:30 params in
  let limited = ref false in
  Array.iter
    (fun (ts, m) ->
      match Csp2.Opt.solve ~budget:(Prelude.Timer.budget ~nodes:50 ()) ts ~m with
      | O.Limit, _ -> limited := true
      | (O.Feasible _ | O.Infeasible | O.Memout _), _ -> ())
    instances;
  Alcotest.(check bool) "some run hits the node budget" true !limited

let test_opt_wrapped_windows () =
  let ts = Taskset.of_tuples [ (2, 2, 3, 3); (0, 1, 3, 3) ] in
  (match Csp2.Opt.solve ts ~m:1 with
  | O.Feasible sched, _ -> Alcotest.(check bool) "verified" true (Verify.is_feasible ts sched)
  | (O.Infeasible | O.Limit | O.Memout _), _ -> Alcotest.fail "feasible via wrap");
  match Csp2.Opt.solve_parallel ~jobs:2 ~split_depth:1 ts ~m:1 with
  | O.Feasible sched, _ ->
    Alcotest.(check bool) "parallel verified" true (Verify.is_feasible ts sched)
  | (O.Infeasible | O.Limit | O.Memout _), _ -> Alcotest.fail "feasible via wrap (parallel)"

let test_frame_reuse_regression () =
  (* Guards the frame stack, which grows as the search descends and is
     reused by the next solve: [Array.make] would seed every depth with
     the *same* frame record (one shared applied set corrupts [undo] on
     deep backtracking).  The EDF trap backtracks across slots; verdict
     and witness must survive two runs intact, memo on and off. *)
  List.iter
    (fun memo_mb ->
      let solve () =
        match Csp2.Opt.solve ~memo_mb Examples.edf_trap ~m:Examples.edf_trap_m with
        | O.Feasible s, _ ->
          Alcotest.(check bool) "verified" true (Verify.is_feasible Examples.edf_trap s);
          s
        | _ -> Alcotest.fail "edf trap is feasible"
      in
      let a = solve () and b = solve () in
      Alcotest.(check bool) "deterministic across reuse" true (Schedule.equal a b))
    [ 0; Csp2.Opt.default_memo_mb ]

(* ------------------------------------------------------------------ *)
(* Work-stealing parallel phase, engine pooling                         *)

let prop_opt_worksteal_matches_sequential =
  (* [probe_nodes:0] disables the sequential probe, so small random
     instances actually flow through the deques — otherwise the probe
     would decide them all and this property would only test the probe.
     Every processed item must have been pulled or stolen. *)
  qtest ~count:60 "work-stealing phase (probe off) = sequential"
    (Test_util.instance_gen ~nmax:5 ~tmax:5 ())
    (fun (ts, m) ->
      let seq, _ = Csp2.Opt.solve_parallel ~jobs:1 ~budget:(budget ()) ts ~m in
      let par, st =
        Csp2.Opt.solve_parallel ~jobs:3 ~split_depth:2 ~probe_nodes:0 ~budget:(budget ())
          ts ~m
      in
      decided seq && decided par
      && O.is_feasible seq = O.is_feasible par
      && st.Csp2.Opt.pulls + st.Csp2.Opt.steals >= st.Csp2.Opt.subtrees
      && (match par with O.Feasible s -> Verify.is_feasible ts s | _ -> true))

let test_opt_pool_memo_epoch () =
  (* Engine pooling must be invisible: solving B, then a different
     instance A, then B again reuses one domain-cached engine whose memo
     was only epoch-bumped between solves.  If invalidation leaked any
     entry across task sets, B's second run would see hits the first did
     not (or worse, a wrong verdict from a stale refutation). *)
  let params = Gen.Generator.default ~n:10 ~m:(Gen.Generator.Fixed_m 5) ~tmax:7 in
  let instances = Gen.Generator.batch ~seed:11 ~count:2 params in
  let a_ts, a_m = instances.(0) and b_ts, b_m = instances.(1) in
  let run ts m =
    let o, st = Csp2.Opt.solve ~budget:(budget ()) ts ~m in
    (O.is_feasible o, st.Csp2.Opt.nodes, st.Csp2.Opt.memo_hits, st.Csp2.Opt.memo_stores)
  in
  let f1, n1, h1, s1 = run b_ts b_m in
  let (_ : bool * int * int * int) = run a_ts a_m in
  let f2, n2, h2, s2 = run b_ts b_m in
  Alcotest.(check bool) "same verdict across reuse" f1 f2;
  check Alcotest.int "same node count across reuse" n1 n2;
  check Alcotest.int "same memo hits across reuse" h1 h2;
  check Alcotest.int "same memo stores across reuse" s1 s2

let test_opt_pool_nogood_epoch () =
  (* The nogood store (chain heads in an Epoch_dict, rem vectors in an
     Arena) is rebound, not re-allocated, between pooled solves: solving
     B, then A, then B again must reproduce B's verdict and its full
     counter set exactly.  Any arena offset or chain head surviving the
     epoch bump would show up as drifted hits/stores on the second run. *)
  let params = Gen.Generator.default ~n:10 ~m:(Gen.Generator.Fixed_m 5) ~tmax:7 in
  let instances = Gen.Generator.batch ~seed:13 ~count:2 params in
  let a_ts, a_m = instances.(0) and b_ts, b_m = instances.(1) in
  let run ts m =
    let o, st = Csp2.Opt.solve ~budget:(budget ()) ts ~m in
    ( O.is_feasible o,
      st.Csp2.Opt.nodes,
      (st.Csp2.Opt.nogood_hits, st.Csp2.Opt.nogood_stores, st.Csp2.Opt.nogood_evicted) )
  in
  let f1, n1, ng1 = run b_ts b_m in
  let (_ : bool * int * (int * int * int)) = run a_ts a_m in
  let f2, n2, ng2 = run b_ts b_m in
  Alcotest.(check bool) "same verdict across reuse" f1 f2;
  check Alcotest.int "same node count across reuse" n1 n2;
  check
    Alcotest.(triple int int int)
    "same nogood hits/stores/evictions across reuse" ng1 ng2

let test_pool_reuses_domains () =
  let before = Csp2.Pool.spawned_count () in
  for _ = 1 to 5 do
    Csp2.Pool.run ~jobs:3 (fun _ -> ())
  done;
  let after = Csp2.Pool.spawned_count () in
  Alcotest.(check bool)
    (Printf.sprintf "5 runs at jobs=3 spawned at most 2 domains (spawned %d)"
       (after - before))
    true
    (after - before <= 2)

let test_opt_parallel_cancel_mid_race () =
  (* External cancellation must tear the whole work-stealing race down
     promptly — workers parked between steals included — and degrade the
     verdict to [Limit].  The instance must be hard for the *opt* engine
     specifically (the classic wall-budget workhorse is pruned to zero
     nodes here): this one still searches after 0.5 s sequentially, so
     the race cannot decide before the cancel lands. *)
  let params = Gen.Generator.default ~n:16 ~m:(Gen.Generator.Fixed_m 5) ~tmax:12 in
  let ts, m = (Gen.Generator.batch ~seed:4 ~count:2 params).(1) in
  let b = Prelude.Timer.budget () in
  let canceller =
    Domain.spawn (fun () ->
        Unix.sleepf 0.03;
        Prelude.Timer.cancel b)
  in
  let t0 = Prelude.Timer.start () in
  let outcome, _ =
    Csp2.Opt.solve_parallel ~jobs:2 ~split_depth:2 ~probe_nodes:0 ~budget:b ts ~m
  in
  let elapsed = Prelude.Timer.elapsed t0 in
  Domain.join canceller;
  (match outcome with
  | O.Limit -> ()
  | O.Feasible _ | O.Infeasible | O.Memout _ ->
    Alcotest.fail "expected Limit from a mid-race cancel");
  Alcotest.(check bool)
    (Printf.sprintf "race tore down promptly (took %.3fs)" elapsed)
    true (elapsed <= 1.0)

let test_opt_steal_failpoint () =
  let module F = Resilience.Failpoint in
  let module S = Resilience.Supervise in
  F.reset ();
  Fun.protect ~finally:F.reset @@ fun () ->
  F.arm "csp2opt.steal" (F.Raise (F.Failure_msg "injected steal crash"));
  (* Outside a supervision scope an armed site is inert — production
     parallel solves must be unaffected even with the site armed. *)
  let seq, _ = Csp2.Opt.solve running ~m:2 in
  let par, _ =
    Csp2.Opt.solve_parallel ~jobs:2 ~split_depth:2 ~probe_nodes:0 ~budget:(budget ())
      running ~m:2
  in
  Alcotest.(check bool) "unsupervised verdict unchanged" true
    (decided par && O.is_feasible par = O.is_feasible seq);
  (* Under supervision the site fires on whichever worker first runs out
     of local work (the pool propagates the scope to its domains), and
     the crash must come back contained — not hang the race, not poison
     the verdict with a fabricated decision.  The instance must keep the
     race alive long enough for a steal attempt: this one is still
     searching after 0.5 s sequentially. *)
  let params = Gen.Generator.default ~n:16 ~m:(Gen.Generator.Fixed_m 5) ~tmax:12 in
  let ts, m = (Gen.Generator.batch ~seed:4 ~count:2 params).(1) in
  match
    S.protect ~name:"steal-crash" (fun () ->
        Csp2.Opt.solve_parallel ~jobs:2 ~split_depth:2 ~probe_nodes:0
          ~budget:(Prelude.Timer.budget ~wall_s:2.0 ())
          ts ~m)
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "armed steal site did not fire under supervision"

(* ------------------------------------------------------------------ *)
(* Heterogeneous dedicated solver                                       *)

let test_het_dedicated_example () =
  let ts, platform = Examples.dedicated in
  match Csp2.Het.solve ~platform ts with
  | O.Feasible sched, _ ->
    Alcotest.(check bool) "verified under rates" true (Verify.is_feasible ~platform ts sched)
  | (O.Infeasible | O.Limit | O.Memout _), _ -> Alcotest.fail "dedicated example is feasible"

let test_het_idle_necessity () =
  (* Regression for the no-idle rule unsoundness with rates: C=5 within a
     5-slot window on processors with rates (3, 2) completes only as
     3 + 2 — three slots stay idle and in two of them a processor idles
     while the task is still eligible on it, which the (forced) no-idle
     rule would prune. *)
  let ts = Taskset.of_tuples [ (0, 5, 5, 5) ] in
  let platform = Platform.heterogeneous ~rates:[| [| 3; 2 |] |] in
  match Csp2.Het.solve ~platform ts with
  | O.Feasible sched, _ ->
    Alcotest.(check bool) "verified" true (Verify.is_feasible ~platform ts sched)
  | (O.Infeasible | O.Limit | O.Memout _), _ ->
    Alcotest.fail "feasible only with an eligible-but-idle slot (no-idle must be off)"

let test_het_exact_demand_overshoot () =
  (* C=1 but the only processor has rate 2: every slot overshoots, so the
     exact demand (12) makes the system infeasible. *)
  let ts = Taskset.of_tuples [ (0, 1, 2, 2) ] in
  let platform = Platform.heterogeneous ~rates:[| [| 2 |] |] in
  match Csp2.Het.solve ~platform ts with
  | O.Infeasible, _ -> ()
  | (O.Feasible _ | O.Limit | O.Memout _), _ -> Alcotest.fail "rate-2-only C=1 is infeasible"

let test_het_identical_platform_agrees () =
  (* On an identical platform the heterogeneous solver must agree with the
     fast path. *)
  let platform = Platform.identical ~m:2 in
  let a, _ = Csp2.Het.solve ~platform running in
  let b, _ = paper running ~m:2 in
  Alcotest.(check bool) "same verdict" true (O.is_feasible a = O.is_feasible b)

let prop_het_agrees_with_generic =
  let gen =
    let open QCheck2.Gen in
    Test_util.taskset_gen ~nmax:3 ~tmax:3 () >>= fun ts ->
    Test_util.platform_gen ~n:(Taskset.size ts) >>= fun platform -> return (ts, platform)
  in
  qtest ~count:60 "het dedicated = CSP2-fd on random heterogeneous instances" gen
    (fun (ts, platform) ->
      let m = Platform.processors platform in
      let a, _ = Csp2.Het.solve ~platform ~budget:(budget ()) ts in
      let b, _ = Encodings.Csp2_fd.solve ~platform ~budget:(budget ()) ts ~m in
      decided a && decided b
      && O.is_feasible a = O.is_feasible b
      && match a with O.Feasible s -> Verify.is_feasible ~platform ts s | _ -> true)

(* ------------------------------------------------------------------ *)
(* One engine: memo off is the classic search, node for node            *)

(* Everything a run reports that the reference also reports: verdict
   (with its schedule), nodes, fails and the deepest slot. *)
let of_opt (o, (st : Csp2.Opt.stats)) =
  (o, st.Csp2.Opt.nodes, st.Csp2.Opt.fails, st.Csp2.Opt.max_time_reached)

let of_ref (o, (st : Csp2_ref.stats)) =
  (o, st.Csp2_ref.nodes, st.Csp2_ref.fails, st.Csp2_ref.max_time_reached)

let same_run (o, nodes, fails, depth) (o', nodes', fails', depth') =
  nodes = nodes' && fails = fails' && depth = depth'
  &&
  match (o, o') with
  | O.Feasible a, O.Feasible b -> Schedule.equal a b
  | O.Infeasible, O.Infeasible | O.Limit, O.Limit -> true
  | _ -> false

let describe (o, nodes, fails, depth) =
  Printf.sprintf "%s/%d nodes/%d fails/depth %d" (O.to_string o) nodes fails depth

(* Run both engines on every (instance, heuristic) pair under a node
   budget and report each disagreement. *)
let parity_failures ?(urgency = true) ~nodes instances =
  let failures = ref [] in
  List.iteri
    (fun idx (ts, m) ->
      List.iter
        (fun heuristic ->
          let budget () = Prelude.Timer.budget ~nodes () in
          let ours = of_opt (paper ~heuristic ~urgency ~budget:(budget ()) ts ~m) in
          let theirs = of_ref (Csp2_ref.solve ~heuristic ~urgency ~budget:(budget ()) ts ~m) in
          if not (same_run ours theirs) then
            failures :=
              Printf.sprintf "#%d %s: opt %s, reference %s" idx
                (Csp2.Heuristic.to_string heuristic)
                (describe ours) (describe theirs)
              :: !failures)
        Csp2.Heuristic.all)
    instances;
  List.rev !failures

let check_parity ?urgency ~nodes ~expect instances =
  check Alcotest.int "instances" expect (List.length instances);
  Alcotest.(check (list string)) "disagreements" [] (parity_failures ?urgency ~nodes instances)

let prop_memo_off_is_reference =
  let gen =
    let open QCheck2.Gen in
    Test_util.instance_gen ~nmax:5 ~tmax:6 () >>= fun inst ->
    oneofl Csp2.Heuristic.all >>= fun h ->
    bool >>= fun urgency -> return (inst, h, urgency)
  in
  qtest ~count:300 "memo off = classic reference: verdict, schedule, nodes" gen
    (fun ((ts, m), heuristic, urgency) ->
      let budget () = Prelude.Timer.budget ~nodes:5_000 () in
      same_run
        (of_opt (paper ~heuristic ~urgency ~budget:(budget ()) ts ~m))
        (of_ref (Csp2_ref.solve ~heuristic ~urgency ~budget:(budget ()) ts ~m)))

(* The Table I stream (seed 1, n = 10, m = 5, Tmax = 7) past the
   utilization test. *)
let table1_stream =
  lazy
    (Gen.Generator.batch ~seed:1 ~count:500
       (Gen.Generator.default ~n:10 ~m:(Gen.Generator.Fixed_m 5) ~tmax:7)
    |> Array.to_list
    |> List.filter (fun (ts, m) -> not (Analysis.utilization_exceeds ts ~m)))

let test_parity_table1 () = check_parity ~nodes:20_000 ~expect:322 (Lazy.force table1_stream)

let test_parity_table1_weak () =
  check_parity ~urgency:false ~nodes:5_000 ~expect:322 (Lazy.force table1_stream)

(* The benchmark corpora past the front door: a superset of what a serve
   miss can hand the search, now that the pre-search pass decides every
   corpus instance. *)
let test_parity_corpus w ~expect () =
  let module W = Mgrts_bench.Workload in
  check_parity ~nodes:W.nodes ~expect
    (List.filter_map
       (fun (item : W.item) ->
         let ts = item.W.inst.W.ts and m = item.W.inst.W.m in
         if Analysis.utilization_exceeds ts ~m then None else Some (ts, m))
       (Array.to_list (W.corpus w)))

let test_urgency_off_needs_memo_off () =
  Alcotest.check_raises "urgency:false with the memo on"
    (Invalid_argument "Csp2.Opt.solve: urgency:false requires memo_mb <= 0") (fun () ->
      ignore (Csp2.Opt.solve ~urgency:false running ~m:2))

(* Table IV's n = 32 row, instance 0: m = 14, H = 120 120, 413 475 jobs. *)
let table4_instance =
  lazy
    (Gen.Generator.batch ~seed:32001 ~count:1
       (Gen.Generator.default ~n:32 ~m:Gen.Generator.Min_processors ~tmax:15)).(0)

let zero_node_words ?memo_mb ts ~m =
  Csp2.Opt.reset_caches ();
  Test_util.allocated_words (fun () ->
      Csp2.Opt.solve ?memo_mb ~budget:(Prelude.Timer.budget ~nodes:0 ()) ts ~m)

let test_setup_scales_with_jobs () =
  (* A cold solve's setup, before the first node, must grow with the job
     count at a small constant: Table IV instances carry millions of jobs
     against a 0.1 s budget.  (The classic reference allocates 4.4 words
     per job here.) *)
  let ts, m = Lazy.force table4_instance in
  let jobs = Jobmap.job_count (Jobmap.create ts) in
  check Alcotest.int "pinned instance: m" 14 m;
  check Alcotest.int "pinned instance: jobs" 413_475 jobs;
  let words = zero_node_words ~memo_mb:0 ts ~m in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per job <= 8" (words /. float_of_int jobs))
    true
    (words <= 8. *. float_of_int jobs)

let test_memo_respects_cap () =
  (* The tables' minimum sizes must not break [memo_mb]: on this
     instance one memo key is 413 475 bytes, and the nogood store's old
     32-entry floor alone took 32 x 413 475 words. *)
  let ts, m = Lazy.force table4_instance in
  let off = zero_node_words ~memo_mb:0 ts ~m in
  let on = zero_node_words ts ~m in
  let extra_mib = (on -. off) *. float_of_int (Sys.word_size / 8) /. 1048576. in
  Alcotest.(check bool)
    (Printf.sprintf "memo on allocates %.1f MiB more <= %d" extra_mib
       Csp2.Opt.default_memo_mb)
    true
    (extra_mib <= float_of_int Csp2.Opt.default_memo_mb)

let test_parallel_memo_off () =
  (* [memo_mb:0] means the paper's rules in every worker, probe included:
     no worker may fall back to a minimum share of the table budget. *)
  let ts, m = List.nth (Lazy.force table1_stream) 3 in
  let _, st =
    Csp2.Opt.solve_parallel ~memo_mb:0 ~jobs:2 ~probe_nodes:0
      ~budget:(Prelude.Timer.budget ~nodes:5_000 ())
      ts ~m
  in
  check Alcotest.int "memo lookups" 0 (st.Csp2.Opt.memo_hits + st.Csp2.Opt.memo_misses);
  check Alcotest.int "nogood lookups" 0 (st.Csp2.Opt.nogood_hits + st.Csp2.Opt.nogood_misses);
  check Alcotest.int "stores" 0 (st.Csp2.Opt.memo_stores + st.Csp2.Opt.nogood_stores)

let () =
  Alcotest.run "csp2"
    [
      ( "heuristic",
        [
          Alcotest.test_case "keys" `Quick test_heuristic_keys;
          Alcotest.test_case "order and rank" `Quick test_heuristic_order;
          Alcotest.test_case "string roundtrip" `Quick test_heuristic_strings;
        ] );
      ( "identical",
        [
          Alcotest.test_case "running example, all heuristics" `Quick
            test_running_example_all_heuristics;
          Alcotest.test_case "infeasibility proof" `Quick test_infeasible_proof;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "node budget" `Quick test_budget_limit;
          Alcotest.test_case "wall budget regression" `Quick test_wall_budget_respected;
          Alcotest.test_case "EDF trap" `Quick test_edf_trap_feasible;
          Alcotest.test_case "wrapped windows" `Quick test_wrapped_window_instance;
          prop_agrees_with_csp1;
          prop_stats_sane;
          prop_no_urgency_agrees;
          Alcotest.test_case "urgency off is weaker" `Quick test_no_urgency_weaker;
          Alcotest.test_case "thrash instances under node budgets" `Quick test_thrash_instances;
        ] );
      ( "optimized",
        [
          Alcotest.test_case "running example, all heuristics" `Quick
            test_opt_running_example_all_heuristics;
          prop_opt_matches_classic;
          prop_opt_parallel_matches_sequential;
          prop_opt_nogood_ablation_matches;
          Alcotest.test_case "deterministic counters" `Quick test_opt_deterministic;
          Alcotest.test_case "memo prunes and stays sound" `Quick test_opt_memo_prunes;
          Alcotest.test_case "fewer nodes than classic" `Quick test_opt_node_reduction;
          Alcotest.test_case "wall budget regression" `Quick test_opt_wall_budget_respected;
          Alcotest.test_case "node budget" `Quick test_opt_node_budget;
          Alcotest.test_case "wrapped windows" `Quick test_opt_wrapped_windows;
          Alcotest.test_case "frame reuse regression" `Quick test_frame_reuse_regression;
        ] );
      ( "work-stealing",
        [
          prop_opt_worksteal_matches_sequential;
          Alcotest.test_case "tiny budget evicts nogoods" `Quick test_opt_nogood_budget_evicts;
          Alcotest.test_case "nogood epoch isolates pooled solves" `Quick
            test_opt_pool_nogood_epoch;
          Alcotest.test_case "memo epoch isolates pooled solves" `Quick
            test_opt_pool_memo_epoch;
          Alcotest.test_case "pool reuses domains" `Quick test_pool_reuses_domains;
          Alcotest.test_case "cancel mid-race" `Quick test_opt_parallel_cancel_mid_race;
          Alcotest.test_case "steal failpoint contained" `Quick test_opt_steal_failpoint;
        ] );
      ( "one engine",
        [
          prop_memo_off_is_reference;
          Alcotest.test_case "Table I stream" `Quick test_parity_table1;
          Alcotest.test_case "Table I stream, urgency off" `Quick test_parity_table1_weak;
          Alcotest.test_case "fresh corpus, pruned domains" `Quick
            (test_parity_corpus Mgrts_bench.Workload.Fresh ~expect:32);
          Alcotest.test_case "tight corpus, pruned domains" `Quick
            (test_parity_corpus Mgrts_bench.Workload.Tight ~expect:64);
          Alcotest.test_case "repeat corpus, pruned domains" `Quick
            (test_parity_corpus Mgrts_bench.Workload.Repeat ~expect:32);
          Alcotest.test_case "urgency off needs memo off" `Quick test_urgency_off_needs_memo_off;
          Alcotest.test_case "setup scales with jobs" `Quick test_setup_scales_with_jobs;
          Alcotest.test_case "memo respects its cap" `Quick test_memo_respects_cap;
          Alcotest.test_case "parallel memo off" `Quick test_parallel_memo_off;
        ] );
      ( "heterogeneous",
        [
          Alcotest.test_case "dedicated example" `Quick test_het_dedicated_example;
          Alcotest.test_case "idle necessity regression" `Quick test_het_idle_necessity;
          Alcotest.test_case "overshoot infeasible" `Quick test_het_exact_demand_overshoot;
          Alcotest.test_case "identical platform agreement" `Quick
            test_het_identical_platform_agrees;
          prop_het_agrees_with_generic;
        ] );
    ]
