(* Tests for the baseline schedulers: the slot-level simulator (policies,
   misses, adaptive exactness) and partitioned first-fit EDF. *)

open Rt_model
module O = Encodings.Outcome

let check = Alcotest.check
let qtest = Test_util.qtest

(* ------------------------------------------------------------------ *)
(* Simulator                                                            *)

let test_single_task_edf () =
  let ts = Taskset.of_tuples [ (0, 1, 2, 2) ] in
  let res = Sched.Sim.run ts ~m:1 in
  Alcotest.(check bool) "ok" true res.Sched.Sim.ok;
  Alcotest.(check bool) "exact" true res.Sched.Sim.exact;
  check Alcotest.int "no misses" 0 (List.length res.Sched.Sim.misses)

let test_overload_misses () =
  (* Two always-urgent tasks on one processor. *)
  let ts = Taskset.of_tuples [ (0, 2, 2, 2); (0, 2, 2, 2) ] in
  let res = Sched.Sim.run ts ~m:1 in
  Alcotest.(check bool) "not ok" false res.Sched.Sim.ok;
  Alcotest.(check bool) "definitive" true res.Sched.Sim.exact;
  Alcotest.(check bool) "has misses" true (res.Sched.Sim.misses <> [])

let test_slow_divergence_detected () =
  (* U slightly above 1: the backlog grows by one unit per hyperperiod, so
     the fixed-window test of the first implementation missed it; the
     adaptive simulation must keep going until the miss. *)
  let ts = Taskset.of_tuples [ (0, 3, 6, 6); (0, 2, 4, 4); (0, 1, 3, 12) ] in
  (* U = 1/2 + 1/2 + 1/12 = 13/12 > 1 *)
  let res = Sched.Sim.run ts ~m:1 in
  Alcotest.(check bool) "miss eventually found" false res.Sched.Sim.ok;
  Alcotest.(check bool) "definitive" true res.Sched.Sim.exact

let test_edf_trap () =
  let res = Sched.Sim.run Examples.edf_trap ~m:Examples.edf_trap_m in
  Alcotest.(check bool) "EDF misses" false res.Sched.Sim.ok;
  match res.Sched.Sim.misses with
  | { Sched.Sim.task; _ } :: _ -> check Alcotest.int "task 3 misses" 2 task
  | [] -> Alcotest.fail "expected a recorded miss"

let test_offsets_respected () =
  (* A task with offset 3 must not run before t = 3. *)
  let ts = Taskset.of_tuples [ (3, 1, 2, 4) ] in
  let res = Sched.Sim.run ts ~m:1 in
  Alcotest.(check bool) "ok" true res.Sched.Sim.ok;
  for t = 0 to 2 do
    check Alcotest.int (Printf.sprintf "idle at %d" t) Schedule.idle
      (Schedule.get res.Sched.Sim.grid ~proc:0 ~time:t)
  done;
  check Alcotest.int "runs at 3" 0 (Schedule.get res.Sched.Sim.grid ~proc:0 ~time:3)

let test_priorities () =
  let ts = Taskset.of_tuples [ (0, 1, 4, 4); (0, 1, 2, 3) ] in
  let rm = Sched.Sim.rm_priorities ts in
  Alcotest.(check bool) "τ2 has shorter period" true (rm.(1) < rm.(0));
  let dm = Sched.Sim.dm_priorities ts in
  Alcotest.(check bool) "τ2 has shorter deadline" true (dm.(1) < dm.(0))

let test_fixed_priority_starvation () =
  (* The low-priority task starves under FP but EDF schedules it. *)
  let ts = Taskset.of_tuples [ (0, 2, 2, 2); (0, 2, 4, 4) ] in
  let fp =
    Sched.Sim.run ts ~m:1 ~policy:(Sched.Sim.Fixed_priority [| 0; 1 |])
  in
  Alcotest.(check bool) "low priority misses" false fp.Sched.Sim.ok;
  (* On two processors everything fits. *)
  let fp2 =
    Sched.Sim.run ts ~m:2 ~policy:(Sched.Sim.Fixed_priority [| 0; 1 |])
  in
  Alcotest.(check bool) "fits on 2" true (fp2.Sched.Sim.ok && fp2.Sched.Sim.exact)

let test_fixed_horizon_mode () =
  let ts = Taskset.of_tuples [ (0, 1, 2, 2) ] in
  let res = Sched.Sim.run ~horizon:10 ts ~m:1 in
  check Alcotest.int "grid horizon" 10 (Schedule.horizon res.Sched.Sim.grid);
  Alcotest.(check bool) "no-miss window is not a proof" false res.Sched.Sim.exact

let prop_sim_grid_consistent =
  qtest ~count:80 "simulation grids never violate C2/C3 and busy counts add up"
    (Test_util.instance_gen ~nmax:4 ~tmax:4 ())
    (fun (ts, m) ->
      let res = Sched.Sim.run ts ~m in
      let grid = res.Sched.Sim.grid in
      let horizon = Schedule.horizon grid in
      let busy = ref 0 in
      let ok = ref true in
      for t = 0 to horizon - 1 do
        let seen = Hashtbl.create 8 in
        for j = 0 to m - 1 do
          let v = Schedule.get grid ~proc:j ~time:t in
          if v <> Schedule.idle then begin
            incr busy;
            if Hashtbl.mem seen v then ok := false;
            Hashtbl.replace seen v ()
          end
        done
      done;
      !ok && !busy = res.Sched.Sim.busy)

let prop_edf_ok_implies_csp_feasible =
  qtest ~count:60 "an exact EDF success implies CSP feasibility"
    (Test_util.instance_gen ~nmax:4 ~tmax:4 ())
    (fun (ts, m) ->
      let res = Sched.Sim.run ts ~m in
      (not (res.Sched.Sim.ok && res.Sched.Sim.exact))
      ||
      match Csp2.Opt.solve ~memo_mb:0 ~budget:(Prelude.Timer.budget ~wall_s:5.0 ()) ts ~m with
      | O.Feasible _, _ -> true
      | (O.Infeasible | O.Limit | O.Memout _), _ -> false)

(* ------------------------------------------------------------------ *)
(* Step kernel and LLF witness against the reference simulator          *)

module Ref = Sim_ref

let witness = Sched.Sim.llf_witness ~budget:Prelude.Timer.unlimited

(* An instance, a policy (0 EDF, 1 LLF, 2 fixed priorities from a random
   rank permutation) and an optional fixed horizon. *)
let kernel_case_gen =
  let open QCheck2.Gen in
  Test_util.instance_gen ~nmax:6 ~tmax:8 () >>= fun (ts, m) ->
  int_bound 2 >>= fun policy ->
  shuffle_a (Array.init (Taskset.size ts) Fun.id) >>= fun ranks ->
  opt (int_range 1 40) >>= fun horizon -> return (ts, m, policy, ranks, horizon)

let print_kernel_case (ts, m, policy, ranks, horizon) =
  Printf.sprintf "%s policy=%d ranks=[%s] horizon=%s"
    (Test_util.print_instance (ts, m))
    policy
    (String.concat ";" (Array.to_list (Array.map string_of_int ranks)))
    (match horizon with Some h -> string_of_int h | None -> "adaptive")

let same_misses ours theirs =
  List.length ours = List.length theirs
  && List.for_all2
       (fun (a : Sched.Sim.miss) (b : Ref.miss) -> a.task = b.task && a.job = b.job && a.at = b.at)
       ours theirs

let kernel_agrees (ts, m, policy, ranks, horizon) =
  let ours, theirs =
    match policy with
    | 0 -> (Sched.Sim.run ?horizon ~policy:Sched.Sim.EDF ts ~m, Ref.run ?horizon ~policy:Ref.EDF ts ~m)
    | 1 -> (Sched.Sim.run ?horizon ~policy:Sched.Sim.LLF ts ~m, Ref.run ?horizon ~policy:Ref.LLF ts ~m)
    | _ ->
      ( Sched.Sim.run ?horizon ~policy:(Sched.Sim.Fixed_priority ranks) ts ~m,
        Ref.run ?horizon ~policy:(Ref.Fixed_priority ranks) ts ~m )
  in
  ours.Sched.Sim.ok = theirs.Ref.ok
  && ours.Sched.Sim.exact = theirs.Ref.exact
  && same_misses ours.Sched.Sim.misses theirs.Ref.misses
  && Schedule.equal ours.Sched.Sim.grid theirs.Ref.grid
  && ours.Sched.Sim.busy = theirs.Ref.busy

let prop_kernel_matches_reference =
  qtest ~count:400 "kernel matches the reference simulator" kernel_case_gen
    ~print:print_kernel_case kernel_agrees

(* Slowly overloaded systems whose backlog keeps changing for two or three
   chunks before the miss; random small instances rarely need more than
   one chunk, so these pin the chunk loop. *)
let test_kernel_past_one_chunk () =
  List.iter
    (fun (m, tuples) ->
      let ts = Taskset.of_tuples tuples in
      List.iter
        (fun policy ->
          let case = (ts, m, policy, Array.init (Taskset.size ts) Fun.id, None) in
          Alcotest.(check bool) (print_kernel_case case) true (kernel_agrees case))
        [ 0; 1; 2 ])
    [
      (2, [ (3, 1, 6, 6); (1, 3, 4, 4); (0, 1, 2, 2); (2, 2, 3, 3) ]);
      (1, [ (4, 5, 6, 6); (2, 2, 3, 6) ]);
      (1, [ (1, 2, 4, 5); (4, 2, 5, 5); (4, 2, 5, 5) ]);
    ]

(* The reference run's last hyperperiod, each slot t moved to t mod H. *)
let fold_last_hyperperiod (res : Ref.result) ts ~m =
  let hp = Taskset.hyperperiod ts and len = Schedule.horizon res.Ref.grid in
  let folded = Schedule.create ~m ~horizon:hp in
  for t = len - hp to len - 1 do
    for p = 0 to m - 1 do
      Schedule.set folded ~proc:p ~time:(t mod hp) (Schedule.get res.Ref.grid ~proc:p ~time:t)
    done
  done;
  folded

let prop_witness_matches_reference =
  qtest ~count:400 "LLF witness = reference LLF run, folded"
    (Test_util.instance_gen ~nmax:6 ~tmax:8 ())
    ~print:Test_util.print_instance
    (fun (ts, m) ->
      let reference = Ref.run ~policy:Ref.LLF ts ~m in
      match witness ts ~m with
      | Some sched ->
        reference.Ref.ok && reference.Ref.exact
        && Verify.is_feasible ts sched
        && Schedule.equal sched (fold_last_hyperperiod reference ts ~m)
      | None -> not (reference.Ref.ok && reference.Ref.exact))

(* T ≈ 1.6·10¹⁸: the first adaptive window is far past the cell cap, so
   the simulator refuses it before simulating anything, and the witness
   skips it without allocating a grid. *)
let huge_hyperperiod =
  Taskset.of_tuples (List.map (fun p -> (0, 1, p, p)) [ 1097; 1093; 1091; 1087; 1069; 1063 ])

let test_window_bounded_up_front () =
  let ts = huge_hyperperiod in
  Alcotest.check_raises "run refuses" (Invalid_argument "Sim.run: horizon too large") (fun () ->
      ignore (Sched.Sim.run ts ~m:5));
  Alcotest.(check bool) "no witness" true (witness ts ~m:5 = None);
  let words = Test_util.allocated_words (fun () -> witness ts ~m:5) in
  if words > 1000. then Alcotest.failf "skipping the witness allocated %.0f words" words;
  (* Within the cap the same window still runs. *)
  let res = Sched.Sim.run (Taskset.of_tuples [ (3, 1, 2, 2) ]) ~m:1 in
  check Alcotest.int "O_max + H, then one chunk" 7 (Schedule.horizon res.Sched.Sim.grid)

let test_witness_budget () =
  let ts = Examples.running_example in
  Alcotest.(check bool) "witness" true (witness ts ~m:2 <> None);
  let cancelled = Prelude.Timer.budget () in
  Prelude.Timer.cancel cancelled;
  Alcotest.(check bool) "cancelled budget" true
    (Sched.Sim.llf_witness ~budget:cancelled ts ~m:2 = None);
  Alcotest.(check bool) "miss on one processor" true (witness ts ~m:1 = None)

(* On the pinned 5×420 instance, one warm witness, verification
   included, allocates at most 3 words per simulated slot: the grid and
   the check's arrays are the domain's scratch, so what it allocates is
   the 2 105-word schedule it returns (2.5 words per slot) and O(n + m)
   words of state.  A per-slot list sort cost ~92. *)
let test_witness_allocation () =
  let ts = Test_util.pinned_5x420 and m = 5 in
  Alcotest.(check bool) "witness" true (witness ts ~m <> None);
  let slots = Schedule.horizon (Sched.Sim.run ~policy:Sched.Sim.LLF ts ~m).Sched.Sim.grid in
  (* The least of three calls: a major slice that lands inside one can
     skew its counters, never the allocation itself. *)
  let words =
    List.fold_left Float.min Float.infinity
      (List.init 3 (fun _ -> Test_util.allocated_words (fun () -> witness ts ~m)))
  in
  let per_slot = words /. float_of_int slots in
  if per_slot > 3. then
    Alcotest.failf "llf_witness allocated %.1f words per simulated slot (limit 3)" per_slot

(* ------------------------------------------------------------------ *)
(* Partitioned                                                          *)

let test_partition_trivial () =
  let ts = Taskset.of_tuples [ (0, 1, 2, 2); (0, 1, 2, 2) ] in
  let res = Sched.Partitioned.partition ts ~m:2 in
  Alcotest.(check bool) "ok" true res.Sched.Partitioned.ok;
  Array.iter (fun p -> Alcotest.(check bool) "assigned" true (p >= 0)) res.Sched.Partitioned.assignment

let test_partition_fails_on_global_only () =
  (* Three tasks of utilization 2/3 each: globally feasible on 2, but any
     partition puts two of them (U = 4/3) on one processor. *)
  let res = Sched.Partitioned.partition Examples.edf_trap ~m:2 in
  Alcotest.(check bool) "partitioning fails" false res.Sched.Partitioned.ok

let test_partition_overload_bin_rejected () =
  (* Regression: a bin with U slightly above 1 must be rejected even though
     no miss shows up within two hyperperiods. *)
  let tasks = [ (0, 3, 6, 6); (0, 2, 4, 4); (0, 1, 3, 12) ] in
  let ts = Taskset.of_tuples tasks in
  let res = Sched.Partitioned.partition ts ~m:1 in
  Alcotest.(check bool) "rejected" false res.Sched.Partitioned.ok

let prop_partition_sound =
  qtest ~count:50 "a successful partition implies CSP feasibility"
    (Test_util.instance_gen ~nmax:4 ~tmax:4 ())
    (fun (ts, m) ->
      let res = Sched.Partitioned.partition ts ~m in
      (not res.Sched.Partitioned.ok)
      ||
      match Csp2.Opt.solve ~memo_mb:0 ~budget:(Prelude.Timer.budget ~wall_s:5.0 ()) ts ~m with
      | O.Feasible _, _ -> true
      | (O.Infeasible | O.Limit | O.Memout _), _ -> false)

let prop_partition_assignment_wellformed =
  qtest ~count:80 "assignments are within range and all-or-nothing on success"
    (Test_util.instance_gen ~nmax:5 ~tmax:4 ())
    (fun (ts, m) ->
      let res = Sched.Partitioned.partition ts ~m in
      Array.for_all (fun p -> p >= -1 && p < m) res.Sched.Partitioned.assignment
      && (not res.Sched.Partitioned.ok
         || Array.for_all (fun p -> p >= 0) res.Sched.Partitioned.assignment))

let test_partition_schedule_grid () =
  let ts = Taskset.of_tuples [ (0, 1, 2, 2); (0, 1, 2, 2) ] in
  match Sched.Partitioned.schedule ts ~m:2 with
  | Some grid ->
    (* Each task stays on its assigned processor. *)
    let { Sched.Partitioned.assignment; _ } = Sched.Partitioned.partition ts ~m:2 in
    let ok = ref true in
    for t = 0 to Schedule.horizon grid - 1 do
      for j = 0 to 1 do
        let v = Schedule.get grid ~proc:j ~time:t in
        if v <> Schedule.idle && assignment.(v) <> j then ok := false
      done
    done;
    Alcotest.(check bool) "no migration" true !ok
  | None -> Alcotest.fail "partition should succeed"

(* ------------------------------------------------------------------ *)
(* Demand bound function                                                *)

let sync ts =
  Taskset.of_tasks
    (List.map
       (fun (t : Task.t) ->
         Task.make ~offset:0 ~wcet:t.wcet ~deadline:t.deadline ~period:t.period ())
       (Array.to_list (Taskset.tasks ts)))

let test_dbf_basics () =
  let ts = Taskset.of_tuples [ (0, 1, 2, 4); (0, 2, 4, 4) ] in
  check Alcotest.int "dbf(1)" 0 (Sched.Dbf.demand ts 1);
  check Alcotest.int "dbf(2)" 1 (Sched.Dbf.demand ts 2);
  check Alcotest.int "dbf(4)" 3 (Sched.Dbf.demand ts 4);
  check Alcotest.int "dbf(8)" 6 (Sched.Dbf.demand ts 8);
  Alcotest.(check (list int)) "check points" [ 2; 4 ] (Sched.Dbf.check_points ts);
  Alcotest.(check bool) "schedulable" true (Sched.Dbf.edf_schedulable ts)

let test_dbf_rejects () =
  let ts = Taskset.of_tuples [ (0, 2, 2, 3); (0, 2, 2, 3) ] in
  Alcotest.(check bool) "two urgent tasks on one core" false (Sched.Dbf.edf_schedulable ts);
  Alcotest.(check bool) "offsets rejected" true
    (try ignore (Sched.Dbf.edf_schedulable (Taskset.of_tuples [ (1, 1, 2, 2) ])); false
     with Invalid_argument _ -> true)

let prop_dbf_agrees_with_simulation =
  qtest ~count:120 "dbf test = adaptive EDF simulation on synchronous systems"
    (Test_util.taskset_gen ~nmax:4 ~tmax:5 ())
    (fun ts ->
      let ts = sync ts in
      let analytic = Sched.Dbf.edf_schedulable ts in
      let sim = Sched.Sim.run ts ~m:1 in
      (not sim.Sched.Sim.exact) || analytic = sim.Sched.Sim.ok)

(* ------------------------------------------------------------------ *)
(* Segments                                                             *)

let test_segments () =
  let s = Schedule.create ~m:2 ~horizon:5 in
  List.iter (fun (p, t, v) -> Schedule.set s ~proc:p ~time:t v)
    [ (0, 0, 1); (0, 1, 1); (0, 3, 0); (1, 2, 1) ];
  let segs = Schedule.segments s in
  check Alcotest.int "three segments" 3 (List.length segs);
  match segs with
  | [ a; b; c ] ->
    Alcotest.(check bool) "first" true
      (a.Schedule.task = 1 && a.Schedule.proc = 0 && a.Schedule.start = 0 && a.Schedule.len = 2);
    Alcotest.(check bool) "second" true
      (b.Schedule.task = 0 && b.Schedule.proc = 0 && b.Schedule.start = 3 && b.Schedule.len = 1);
    Alcotest.(check bool) "third" true
      (c.Schedule.task = 1 && c.Schedule.proc = 1 && c.Schedule.start = 2 && c.Schedule.len = 1)
  | _ -> Alcotest.fail "unexpected shape"

let prop_segments_cover =
  qtest ~count:80 "segments partition exactly the busy cells"
    (Test_util.instance_gen ~nmax:4 ~tmax:4 ())
    (fun (ts, m) ->
      match Csp2.Opt.solve ~memo_mb:0 ~budget:(Prelude.Timer.budget ~wall_s:5.0 ()) ts ~m with
      | O.Feasible sched, _ ->
        let total = List.fold_left (fun acc s -> acc + s.Schedule.len) 0 (Schedule.segments sched) in
        total = Schedule.busy_slots sched
      | _ -> true)

(* ------------------------------------------------------------------ *)
(* Polish                                                               *)

let test_polish_preserves_and_improves () =
  let ts = Examples.running_example in
  match Csp2.Opt.solve ~memo_mb:0 ts ~m:2 with
  | O.Feasible sched, _ ->
    let polished = Sched.Polish.minimize_migrations sched in
    Alcotest.(check bool) "still feasible" true (Verify.is_feasible ts polished);
    let before = (Metrics.analyze ts sched).Metrics.migrations in
    let after = (Metrics.analyze ts polished).Metrics.migrations in
    Alcotest.(check bool)
      (Printf.sprintf "migrations %d -> %d" before after)
      true (after <= before)
  | _ -> Alcotest.fail "running example is feasible"

let prop_polish_sound =
  qtest ~count:60 "polishing preserves feasibility and task multisets"
    (Test_util.instance_gen ~nmax:4 ~tmax:4 ())
    (fun (ts, m) ->
      match Csp2.Opt.solve ~memo_mb:0 ~budget:(Prelude.Timer.budget ~wall_s:5.0 ()) ts ~m with
      | O.Feasible sched, _ ->
        let polished = Sched.Polish.minimize_migrations sched in
        Verify.is_feasible ts polished
        && (let ok = ref true in
            for t = 0 to Schedule.horizon sched - 1 do
              if Schedule.tasks_at sched ~time:t <> Schedule.tasks_at polished ~time:t then
                ok := false
            done;
            !ok)
      | _ -> true)

let () =
  Alcotest.run "sched"
    [
      ( "sim",
        [
          Alcotest.test_case "single task" `Quick test_single_task_edf;
          Alcotest.test_case "overload" `Quick test_overload_misses;
          Alcotest.test_case "slow divergence" `Quick test_slow_divergence_detected;
          Alcotest.test_case "EDF trap" `Quick test_edf_trap;
          Alcotest.test_case "offsets" `Quick test_offsets_respected;
          Alcotest.test_case "RM/DM priorities" `Quick test_priorities;
          Alcotest.test_case "FP starvation" `Quick test_fixed_priority_starvation;
          Alcotest.test_case "fixed horizon" `Quick test_fixed_horizon_mode;
          prop_sim_grid_consistent;
          prop_edf_ok_implies_csp_feasible;
          Alcotest.test_case "window bounded up front" `Quick test_window_bounded_up_front;
          prop_kernel_matches_reference;
          Alcotest.test_case "kernel matches the reference past one chunk" `Quick
            test_kernel_past_one_chunk;
        ] );
      ( "witness",
        [
          Alcotest.test_case "budget and misses" `Quick test_witness_budget;
          Alcotest.test_case "at most 3 words per slot" `Quick test_witness_allocation;
          prop_witness_matches_reference;
        ] );
      ( "partitioned",
        [
          Alcotest.test_case "trivial" `Quick test_partition_trivial;
          Alcotest.test_case "global-only instance" `Quick test_partition_fails_on_global_only;
          Alcotest.test_case "overloaded bin regression" `Quick
            test_partition_overload_bin_rejected;
          Alcotest.test_case "no-migration grid" `Quick test_partition_schedule_grid;
          prop_partition_sound;
          prop_partition_assignment_wellformed;
        ] );
      ( "polish",
        [
          Alcotest.test_case "preserves and improves" `Quick test_polish_preserves_and_improves;
          prop_polish_sound;
        ] );
      ( "dbf",
        [
          Alcotest.test_case "demand values" `Quick test_dbf_basics;
          Alcotest.test_case "rejections" `Quick test_dbf_rejects;
          prop_dbf_agrees_with_simulation;
        ] );
      ( "segments",
        [
          Alcotest.test_case "segment extraction" `Quick test_segments;
          prop_segments_cover;
        ] );
    ]
