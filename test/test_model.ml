(* Tests for the task model: tasks, task sets, cyclic windows (including
   hyperperiod wrap-around), the arithmetic job map, schedules, the C1-C4
   verifier, the clone transform and the necessary-condition analysis. *)

open Rt_model

let check = Alcotest.check
let qtest = Test_util.qtest

(* ------------------------------------------------------------------ *)
(* Task                                                                 *)

let test_task_make () =
  let t = Task.make ~offset:1 ~wcet:2 ~deadline:3 ~period:4 () in
  check Alcotest.int "laxity" 1 (Task.laxity t);
  Alcotest.(check (float 1e-9)) "utilization" 0.5 (Task.utilization t);
  Alcotest.(check bool) "constrained" true (Task.is_constrained t);
  check Alcotest.int "release 2" 9 (Task.release t 2);
  check Alcotest.int "deadline 2" 12 (Task.abs_deadline t 2)

let test_task_validation () =
  let invalid_msg = function
    | "neg offset" -> "Task.make: negative offset"
    | "zero wcet" -> "Task.make: wcet must be >= 1"
    | "d < c" -> "Task.make: deadline < wcet"
    | _ -> "Task.make: period must be >= 1"
  in
  let expect_invalid name f = Alcotest.check_raises name (Invalid_argument (invalid_msg name)) f in
  expect_invalid "neg offset" (fun () ->
      ignore (Task.make ~offset:(-1) ~wcet:1 ~deadline:1 ~period:1 ()));
  expect_invalid "zero wcet" (fun () ->
      ignore (Task.make ~offset:0 ~wcet:0 ~deadline:1 ~period:1 ()));
  expect_invalid "d < c" (fun () ->
      ignore (Task.make ~offset:0 ~wcet:3 ~deadline:2 ~period:5 ()));
  expect_invalid "zero period" (fun () ->
      ignore (Task.make ~offset:0 ~wcet:1 ~deadline:1 ~period:0 ()))

let test_task_arbitrary_deadline_allowed () =
  let t = Task.make ~offset:0 ~wcet:2 ~deadline:7 ~period:3 () in
  Alcotest.(check bool) "not constrained" false (Task.is_constrained t);
  Alcotest.(check (float 1e-9)) "density uses min(D,T)" (2. /. 3.) (Task.density t)

(* ------------------------------------------------------------------ *)
(* Taskset                                                              *)

let running = Examples.running_example

let test_taskset_hyperperiod () =
  check Alcotest.int "hyperperiod" 12 (Taskset.hyperperiod running);
  check Alcotest.int "size" 3 (Taskset.size running);
  let num, den = Taskset.utilization_num_den running in
  check Alcotest.int "demand" 23 num;
  check Alcotest.int "den" 12 den;
  Alcotest.(check (float 1e-9)) "U" (23. /. 12.) (Taskset.utilization running);
  check Alcotest.int "min processors" 2 (Taskset.min_processors running);
  check Alcotest.int "jobs of τ1" 6 (Taskset.jobs_per_hyperperiod running 0);
  check Alcotest.int "total demand" 23 (Taskset.total_demand running)

let test_taskset_reindex () =
  let ts = Taskset.of_tuples [ (0, 1, 1, 2); (0, 1, 2, 3) ] in
  check Alcotest.int "task 0 id" 0 (Taskset.task ts 0).Task.id;
  check Alcotest.int "task 1 id" 1 (Taskset.task ts 1).Task.id;
  Alcotest.check_raises "empty" (Invalid_argument "Taskset.of_tasks: empty task set") (fun () ->
      ignore (Taskset.of_tasks []))

(* ------------------------------------------------------------------ *)
(* Windows                                                              *)

let test_windows_running_example () =
  let w = Windows.build running in
  check Alcotest.int "horizon" 12 (Windows.horizon w);
  check Alcotest.int "job count" (6 + 3 + 4) (Windows.job_count w);
  (* τ2 (id 1): offset 1, D 4, T 4 -> windows {1..4},{5..8},{9,10,11,0}. *)
  let jobs = Windows.jobs_of_task w 1 in
  check Alcotest.int "three jobs" 3 (Array.length jobs);
  Alcotest.(check (list int)) "wrapped window" [ 9; 10; 11; 0 ]
    (Array.to_list jobs.(2).Windows.slots);
  (* job_at resolves the wrap. *)
  (match Windows.job_at w ~task:1 ~time:0 with
  | Some j -> check Alcotest.int "slot 0 is job 2 of τ2" 2 j.Windows.index
  | None -> Alcotest.fail "expected a job at slot 0");
  (* τ3 (id 2): D 2, T 3 -> slot 2 uncovered. *)
  Alcotest.(check bool) "gap at slot 2" true (Windows.job_at w ~task:2 ~time:2 = None)

let test_windows_available () =
  let w = Windows.build running in
  Alcotest.(check (list int)) "all at t=0" [ 0; 1; 2 ] (Windows.available_tasks w ~time:0);
  Alcotest.(check (list int)) "τ3 gap at t=2" [ 0; 1 ] (Windows.available_tasks w ~time:2)

let test_windows_rejects_arbitrary () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Windows.build Examples.arbitrary_deadline);
       false
     with Invalid_argument _ -> true)

let test_windows_offset_folding () =
  (* A task with offset >= period folds to offset mod period. *)
  let a = Taskset.of_tuples [ (5, 1, 2, 3) ] in
  let b = Taskset.of_tuples [ (2, 1, 2, 3) ] in
  let wa = Windows.build a and wb = Windows.build b in
  let slots ts_w = Array.map (fun (j : Windows.job) -> Array.to_list j.Windows.slots) (Windows.jobs ts_w) in
  Alcotest.(check (array (list int))) "same cyclic pattern" (slots wb) (slots wa)

let prop_windows_disjoint_and_cover =
  qtest ~count:200 "per-task windows partition D·(T/Ti) slots"
    (Test_util.taskset_gen ())
    (fun ts ->
      let w = Windows.build ts in
      let horizon = Windows.horizon w in
      Array.for_all
        (fun i ->
          let covered = Array.make horizon 0 in
          Array.iter
            (fun (j : Windows.job) ->
              Array.iter (fun s -> covered.(s) <- covered.(s) + 1) j.Windows.slots)
            (Windows.jobs_of_task w i);
          let total = Array.fold_left ( + ) 0 covered in
          let task = Taskset.task ts i in
          Array.for_all (fun c -> c <= 1) covered
          && total = horizon / task.Task.period * task.Task.deadline)
        (Array.init (Taskset.size ts) Fun.id))

let prop_jobmap_agrees_with_windows =
  qtest ~count:200 "Jobmap and Windows agree on job_at"
    (Test_util.taskset_gen ())
    (fun ts ->
      let w = Windows.build ts in
      let jm = Jobmap.create ts in
      let horizon = Windows.horizon w in
      let ok = ref (Jobmap.job_count jm = Windows.job_count w && Jobmap.horizon jm = horizon) in
      for i = 0 to Taskset.size ts - 1 do
        for t = 0 to horizon - 1 do
          let via_w =
            match Windows.job_at w ~task:i ~time:t with
            | Some j -> j.Windows.index
            | None -> -1
          in
          if via_w <> Jobmap.local_job_at jm ~task:i ~time:t then ok := false
        done
      done;
      !ok)

let prop_slot_load =
  qtest ~count:100 "slot_load counts covering windows"
    (Test_util.taskset_gen ())
    (fun ts ->
      let w = Windows.build ts in
      let load = Windows.slot_load w in
      let horizon = Windows.horizon w in
      let ok = ref true in
      for t = 0 to horizon - 1 do
        if load.(t) <> List.length (Windows.available_tasks w ~time:t) then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Schedule                                                             *)

let test_schedule_basics () =
  let s = Schedule.create ~m:2 ~horizon:4 in
  check Alcotest.int "idle" Schedule.idle (Schedule.get s ~proc:0 ~time:0);
  Schedule.set s ~proc:0 ~time:1 2;
  Schedule.set s ~proc:1 ~time:1 0;
  check Alcotest.int "set/get" 2 (Schedule.get s ~proc:0 ~time:1);
  check Alcotest.int "cyclic get" 2 (Schedule.get s ~proc:0 ~time:5);
  Alcotest.(check (list int)) "tasks_at" [ 0; 2 ] (Schedule.tasks_at s ~time:1);
  Alcotest.(check (option int)) "proc_of" (Some 1) (Schedule.proc_of_task_at s ~task:0 ~time:1);
  check Alcotest.int "units" 1 (Schedule.units_of_task s ~task:2);
  check Alcotest.int "busy" 2 (Schedule.busy_slots s);
  let s' = Schedule.copy s in
  Alcotest.(check bool) "copy equal" true (Schedule.equal s s');
  Schedule.set s' ~proc:0 ~time:0 1;
  Alcotest.(check bool) "copy independent" false (Schedule.equal s s')

let test_schedule_validation () =
  Alcotest.(check bool) "bad proc raises" true
    (try
       ignore (Schedule.get (Schedule.create ~m:1 ~horizon:1) ~proc:2 ~time:0);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "ragged rejected" true
    (try
       ignore (Schedule.of_cells [| [| 0 |]; [| 0; 1 |] |]);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Verify                                                               *)

let feasible_schedule_for_running () =
  (* Hand-built feasible schedule of the running example (from the paper's
     structure): verified below. *)
  let s = Schedule.create ~m:2 ~horizon:12 in
  let assign proc cells = List.iteri (fun t v -> if v >= 0 then Schedule.set s ~proc ~time:t v) cells in
  (*          t=0  1  2  3  4  5  6  7  8  9 10 11 *)
  assign 0 [   0;  1; 0; 1; 0; -1; 0; 1; 0; 1; 1; 0 ];
  assign 1 [   2;  2; 1; 2; 2;  1; 2; 2; 1; 2; 2; 1 ];
  s

let test_verify_accepts () =
  match Verify.check running (feasible_schedule_for_running ()) with
  | Ok () -> ()
  | Error (v :: _) ->
    Alcotest.failf "unexpected violation: %s" (Format.asprintf "%a" Verify.pp_violation v)
  | Error [] -> Alcotest.fail "empty violation list"

let test_verify_rejects_out_of_window () =
  let s = feasible_schedule_for_running () in
  (* τ3 (id 2) has no window at slot 2. *)
  Schedule.set s ~proc:0 ~time:2 2;
  match Verify.check running s with
  | Ok () -> Alcotest.fail "accepted an out-of-window unit"
  | Error vs ->
    Alcotest.(check bool) "mentions C1" true
      (List.exists (function Verify.Out_of_window _ -> true | _ -> false) vs)

let test_verify_rejects_parallelism () =
  let s = feasible_schedule_for_running () in
  (* Run τ1 on both processors at t=0 (and break amounts as side effect). *)
  Schedule.set s ~proc:1 ~time:0 0;
  match Verify.check running s with
  | Ok () -> Alcotest.fail "accepted intra-task parallelism"
  | Error vs ->
    Alcotest.(check bool) "mentions C3" true
      (List.exists (function Verify.Parallelism _ -> true | _ -> false) vs)

let test_verify_rejects_wrong_amount () =
  let s = feasible_schedule_for_running () in
  Schedule.set s ~proc:0 ~time:0 Schedule.idle;
  match Verify.check running s with
  | Ok () -> Alcotest.fail "accepted an underserved job"
  | Error vs ->
    Alcotest.(check bool) "mentions C4" true
      (List.exists (function Verify.Wrong_amount _ -> true | _ -> false) vs)

let test_verify_rejects_bad_id () =
  let s = feasible_schedule_for_running () in
  Schedule.set s ~proc:0 ~time:5 7;
  match Verify.check running s with
  | Ok () -> Alcotest.fail "accepted an unknown task id"
  | Error vs ->
    Alcotest.(check bool) "mentions id" true
      (List.exists (function Verify.Bad_task _ -> true | _ -> false) vs)

let test_verify_zero_rate () =
  let ts, platform = Examples.dedicated in
  let s = Schedule.create ~m:2 ~horizon:(Taskset.hyperperiod ts) in
  (* τ3 (id 2) cannot run on P1 (rate 0). *)
  Schedule.set s ~proc:0 ~time:0 2;
  match Verify.check ~platform ts s with
  | Ok () -> Alcotest.fail "accepted a zero-rate cell"
  | Error vs ->
    Alcotest.(check bool) "mentions rate" true
      (List.exists (function Verify.Zero_rate _ -> true | _ -> false) vs)

let test_verify_weighted_amount () =
  (* One task, C=2, on a speed-2 processor: a single slot completes it. *)
  let ts = Taskset.of_tuples [ (0, 2, 2, 2) ] in
  let platform = Platform.uniform ~speeds:[| 2 |] in
  let s = Schedule.create ~m:1 ~horizon:2 in
  Schedule.set s ~proc:0 ~time:0 0;
  Alcotest.(check bool) "weighted ok" true (Verify.is_feasible ~platform ts s);
  (* Two slots would overshoot: 4 units for C=2. *)
  Schedule.set s ~proc:0 ~time:1 0;
  Alcotest.(check bool) "overshoot rejected" false (Verify.is_feasible ~platform ts s)

(* [Examples.arbitrary_deadline]: τ1 = (O=0, C=2, D=5, T=3), τ2 = (O=0,
   C=1, D=2, T=2); hyperperiod 6.  τ1's two jobs overlap on slots
   {0,1,3,4}, so one cell per processor at a shared slot is legal — each
   job takes one. *)
let cyclic_parallel_schedule () =
  let s = Schedule.create ~m:2 ~horizon:6 in
  let assign proc cells =
    List.iteri (fun t v -> if v >= 0 then Schedule.set s ~proc ~time:t v) cells
  in
  (*          t=0  1  2  3  4  5 *)
  assign 0 [   0;  1; 1; 0; 1; -1 ];
  assign 1 [   0; -1; -1; 0; -1; -1 ];
  s

let test_check_cyclic_accepts_job_parallelism () =
  (* Two jobs of τ1 run in parallel at t=0 and t=3: the plain checker
     calls that C3, the cyclic checker must assign one cell per job and
     accept. *)
  let ts = Examples.arbitrary_deadline in
  match Verify.check_cyclic ts (cyclic_parallel_schedule ()) with
  | Ok () -> ()
  | Error (v :: _) ->
    Alcotest.failf "unexpected violation: %s" (Format.asprintf "%a" Verify.pp_violation v)
  | Error [] -> Alcotest.fail "empty violation list"

let test_check_cyclic_rejects_per_job_excess () =
  (* τ1 runs on both processors at slot 2, which only job 0's window
     covers — and a job takes at most one unit per instant (per-job C3),
     so one of the two cells is unplaceable and job 1 ends up underserved
     even though the per-cycle total is right. *)
  let ts = Examples.arbitrary_deadline in
  let s = Schedule.create ~m:2 ~horizon:6 in
  List.iter
    (fun (proc, time, v) -> Schedule.set s ~proc ~time v)
    [
      (0, 0, 0); (0, 2, 0); (1, 2, 0); (1, 3, 0);
      (* τ2's three jobs, one unit in each window. *)
      (1, 1, 1); (0, 3, 1); (0, 4, 1);
    ];
  (match Verify.check_cyclic ts s with
  | Ok () -> Alcotest.fail "accepted a same-job same-slot excess"
  | Error vs ->
    Alcotest.(check bool) "mentions C4" true
      (List.exists (function Verify.Wrong_amount _ -> true | _ -> false) vs));
  Alcotest.(check bool) "plain checker horizon guard" true
    (try
       ignore (Verify.check_cyclic ts (Schedule.create ~m:2 ~horizon:7));
       false
     with Invalid_argument _ -> true)

let test_check_cyclic_rejects_wrong_total () =
  let ts = Examples.arbitrary_deadline in
  let s = cyclic_parallel_schedule () in
  Schedule.set s ~proc:1 ~time:0 Schedule.idle;
  match Verify.check_cyclic ts s with
  | Ok () -> Alcotest.fail "accepted a short per-cycle total"
  | Error vs ->
    Alcotest.(check bool) "mentions the total" true
      (List.exists (function Verify.Wrong_total _ -> true | _ -> false) vs)

(* [check_cyclic] against [Verify_ref.check_cyclic], its direct form.
   Deadlines run from C to 2T + 2, so the windows of one task overlap
   and wrap around the horizon, and offsets reach T + 1. *)
let cyclic_task_gen =
  let open QCheck2.Gen in
  int_range 1 6 >>= fun period ->
  int_range 1 period >>= fun wcet ->
  int_range wcet ((2 * period) + 2) >>= fun deadline ->
  int_range 0 (period + 1) >>= fun offset ->
  return (Task.make ~offset ~wcet ~deadline ~period ())

(* [sched] repeated [times] times: still cyclic, over a longer horizon. *)
let tile sched times =
  let m = Schedule.m sched and horizon = Schedule.horizon sched in
  let out = Schedule.create ~m ~horizon:(horizon * times) in
  for proc = 0 to m - 1 do
    for time = 0 to (horizon * times) - 1 do
      Schedule.set out ~proc ~time (Schedule.get sched ~proc ~time:(time mod horizon))
    done
  done;
  out

(* A feasible schedule of [ts] from the clone reduction, when the clone
   system is small enough to solve quickly. *)
let clone_witness ts ~m =
  let r = Clone.transform ts in
  let cloned = Clone.cloned r in
  if Taskset.hyperperiod cloned > 240 then None
  else
    match Csp2.Opt.solve ~memo_mb:0 ~budget:(Prelude.Timer.budget ~nodes:2000 ()) cloned ~m with
    | Encodings.Outcome.Feasible s, _ -> Some (Clone.map_schedule r s)
    | _ -> None

(* Every job gets C units, each at a random slot of its window, or
   anywhere with probability 1/4; later writes may land on earlier ones. *)
let scatter_jobs rng ts ~m ~horizon =
  let s = Schedule.create ~m ~horizon in
  for task = 0 to Taskset.size ts - 1 do
    let tk = Taskset.task ts task in
    for k = 0 to (horizon / tk.Task.period) - 1 do
      for _ = 1 to tk.Task.wcet do
        let time =
          if Random.State.int rng 4 = 0 then Random.State.int rng horizon
          else (tk.Task.offset + (k * tk.Task.period) + Random.State.int rng tk.Task.deadline) mod horizon
        in
        Schedule.set s ~proc:(Random.State.int rng m) ~time task
      done
    done
  done;
  s

(* A random write: a cell set to a random id, idle or one past the last
   task, or a busy cell moved to another cell. *)
let random_write rng s ~n =
  let m = Schedule.m s and horizon = Schedule.horizon s in
  let proc = Random.State.int rng m and time = Random.State.int rng horizon in
  if Random.State.bool rng then
    Schedule.set s ~proc ~time (Random.State.int rng (n + 2) - 1)
  else
    let v = Schedule.get s ~proc ~time in
    if v <> Schedule.idle then begin
      Schedule.set s ~proc ~time Schedule.idle;
      Schedule.set s ~proc:(Random.State.int rng m) ~time:(Random.State.int rng horizon) v
    end

type cyclic_case = {
  c_ts : Taskset.t;
  c_platform : Platform.t;
  c_sched : Schedule.t;
  c_max_violations : int;
}

let cyclic_case_gen =
  let open QCheck2.Gen in
  int_range 1 4 >>= fun n ->
  list_size (return n) cyclic_task_gen >>= fun tasks ->
  int_range 1 (Int.min 4 (n + 1)) >>= fun m ->
  int_range 1 2 >>= fun times ->
  oneofl [ 1; 3; 32 ] >>= fun c_max_violations ->
  int >>= fun seed ->
  let ts = Taskset.of_tasks tasks in
  let rng = Random.State.make [| seed |] in
  let c_platform =
    if Random.State.int rng 3 = 0 then
      Platform.uniform ~speeds:(Array.init m (fun _ -> 1 + Random.State.int rng 2))
    else Platform.identical ~m
  in
  let horizon = times * Taskset.hyperperiod ts in
  let c_sched =
    match Random.State.int rng 8 with
    | 0 | 1 | 2 | 3 -> (
      match clone_witness ts ~m with
      | Some w ->
        let s = tile w times in
        for _ = 1 to Random.State.int rng 4 do
          random_write rng s ~n
        done;
        s
      | None -> scatter_jobs rng ts ~m ~horizon)
    | 4 | 5 | 6 -> scatter_jobs rng ts ~m ~horizon
    | _ ->
      (* Mostly noise; now and then a horizon that is no multiple of the
         hyperperiod. *)
      let horizon = if Random.State.int rng 8 = 0 then horizon + 1 else horizon in
      Schedule.of_cells
        (Array.init m (fun _ ->
             Array.init horizon (fun _ ->
                 if Random.State.bool rng then Schedule.idle else Random.State.int rng n)))
  in
  return { c_ts = ts; c_platform; c_sched; c_max_violations }

let print_cyclic_case c =
  Format.asprintf "%s@.%a@.max_violations=%d@.%a" (Taskset.to_string c.c_ts) Platform.pp
    c.c_platform c.c_max_violations Schedule.pp c.c_sched

let prop_check_cyclic_matches_reference =
  qtest ~count:3000 ~print:print_cyclic_case
    "cyclic: check_cyclic matches its reference" cyclic_case_gen (fun c ->
      let run check =
        match
          check ?platform:(Some c.c_platform) ?max_violations:(Some c.c_max_violations) c.c_ts
            c.c_sched
        with
        | r -> Some r
        | exception Invalid_argument _ -> None
      in
      run Verify.check_cyclic = run Verify_ref.check_cyclic)

(* The pinned n = 10, m = 5, H = 420 instance with a witness from the
   deterministic classic search: one [check_cyclic] call, a cache hit's
   cost in [mgrts serve], must allocate at most 64 words per schedule
   cell.  The limit sits between the ~17 words per cell the check needs
   and the 300-480 that per-task tables spanning the whole horizon,
   (H/T_i)·H words each, cost. *)
let test_check_cyclic_allocation () =
  let ts = Test_util.pinned_5x420 and m = 5 in
  let sched =
    match Csp2.Opt.solve ~memo_mb:0 ~heuristic:Csp2.Heuristic.DC ts ~m with
    | Encodings.Outcome.Feasible s, _ -> s
    | _ -> Alcotest.fail "the pinned instance has no witness"
  in
  check Alcotest.int "H" 420 (Schedule.horizon sched);
  Alcotest.(check bool) "witness verifies" true (Verify.check_cyclic ts sched = Ok ());
  (* The least of three calls: a major slice that lands inside one can
     skew its counters, never the allocation itself. *)
  let words =
    List.fold_left Float.min Float.infinity
      (List.init 3 (fun _ -> Test_util.allocated_words (fun () -> Verify.check_cyclic ts sched)))
  in
  let per_cell = words /. float_of_int (m * Schedule.horizon sched) in
  if per_cell > 64. then
    Alcotest.failf "check_cyclic allocated %.1f words per cell (limit 64)" per_cell

(* ------------------------------------------------------------------ *)
(* Clone                                                                *)

let test_clone_parameters () =
  (* Section VI-B: τ=(O,C,D,T)=(0,2,5,3) -> k=2 clones with O'=0,3; T'=6. *)
  let ts = Taskset.of_tuples [ (0, 2, 5, 3) ] in
  let r = Clone.transform ts in
  let cloned = Clone.cloned r in
  check Alcotest.int "k" 2 (Clone.clone_count r 0);
  check Alcotest.int "n clones" 2 (Taskset.size cloned);
  let c0 = Taskset.task cloned 0 and c1 = Taskset.task cloned 1 in
  check Alcotest.int "O0" 0 c0.Task.offset;
  check Alcotest.int "O1" 3 c1.Task.offset;
  check Alcotest.int "C" 2 c0.Task.wcet;
  check Alcotest.int "D" 5 c0.Task.deadline;
  check Alcotest.int "T'" 6 c0.Task.period;
  Alcotest.(check bool) "clones constrained" true (Taskset.is_constrained cloned);
  Alcotest.(check (list int)) "clones_of" [ 0; 1 ] (Clone.clones_of r 0);
  check Alcotest.int "origin" 0 (Clone.origin r 1)

let prop_clone_identity_on_constrained =
  qtest ~count:100 "constrained tasks get one identical clone"
    (Test_util.taskset_gen ())
    (fun ts ->
      let r = Clone.transform ts in
      let cloned = Clone.cloned r in
      Taskset.size cloned = Taskset.size ts
      && Array.for_all
           (fun i ->
             let a = Taskset.task ts i and b = Taskset.task cloned i in
             a.Task.offset = b.Task.offset && a.Task.wcet = b.Task.wcet
             && a.Task.deadline = b.Task.deadline && a.Task.period = b.Task.period)
           (Array.init (Taskset.size ts) Fun.id))

let prop_clone_counts =
  qtest ~count:100 "k_i = ceil(D/T) and parameters follow Section VI-B"
    (Test_util.loose_taskset_gen ())
    (fun ts ->
      let r = Clone.transform ts in
      let cloned = Clone.cloned r in
      Array.for_all
        (fun i ->
          let task = Taskset.task ts i in
          let k = Prelude.Intmath.cdiv task.Task.deadline task.Task.period in
          Clone.clone_count r i = max 1 k
          && List.for_all
               (fun c ->
                 let clone = Taskset.task cloned c in
                 clone.Task.wcet = task.Task.wcet
                 && clone.Task.deadline = task.Task.deadline
                 && clone.Task.period = max 1 k * task.Task.period)
               (Clone.clones_of r i))
        (Array.init (Taskset.size ts) Fun.id))

(* ------------------------------------------------------------------ *)
(* Minproc (the pre-filters moved to the Analysis library; see
   test_analysis.ml)                                                    *)

let test_min_processors_search () =
  let solve ~m = if m >= 3 then `Feasible else `Infeasible in
  Alcotest.(check bool) "finds 3" true
    (Minproc.min_processors_feasible ~solve running ~max_m:5 = Minproc.Exact 3);
  let never ~m = ignore m; `Infeasible in
  Alcotest.(check bool) "none" true
    (Minproc.min_processors_feasible ~solve:never running ~max_m:4 = Minproc.All_infeasible);
  (* A timeout below the first feasible m demotes the verdict: the reported
     feasible m is only an upper bound, never presented as exact. *)
  let limited ~m = if m = 2 then `Undecided else if m >= 4 then `Feasible else `Infeasible in
  Alcotest.(check bool) "inconclusive" true
    (Minproc.min_processors_feasible ~solve:limited running ~max_m:5
    = Minproc.Inconclusive { first_limit = 2; feasible = Some 4 });
  let all_limited ~m = ignore m; `Undecided in
  Alcotest.(check bool) "inconclusive without upper bound" true
    (Minproc.min_processors_feasible ~solve:all_limited running ~max_m:4
    = Minproc.Inconclusive { first_limit = 2; feasible = None })

let test_min_processors_start () =
  (* A caller-supplied sound lower bound skips the refuted prefix... *)
  let probed = ref [] in
  let solve ~m =
    probed := m :: !probed;
    if m >= 4 then `Feasible else `Infeasible
  in
  Alcotest.(check bool) "finds 4 from 3" true
    (Minproc.min_processors_feasible ~start:3 ~solve running ~max_m:5 = Minproc.Exact 4);
  Alcotest.(check (list int)) "m=2 never probed" [ 4; 3 ] !probed;
  (* ... never lowers the ⌈U⌉ floor, and a bound above max_m means every
     candidate is already refuted. *)
  Alcotest.(check bool) "start below ceil U is clamped" true
    (Minproc.min_processors_feasible ~start:1 ~solve running ~max_m:5
    = Minproc.Exact 4);
  Alcotest.(check bool) "start beyond max_m" true
    (Minproc.min_processors_feasible ~start:6 ~solve running ~max_m:5
    = Minproc.All_infeasible)

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)

let test_metrics_counts () =
  let s = feasible_schedule_for_running () in
  let m = Metrics.analyze running s in
  check Alcotest.int "busy" 23 m.Metrics.busy_slots;
  check Alcotest.int "idle" 1 m.Metrics.idle_slots;
  check Alcotest.int "max parallelism" 2 m.Metrics.max_parallelism;
  Alcotest.(check (float 1e-9)) "avg parallelism" (23. /. 12.) m.Metrics.avg_parallelism;
  Alcotest.(check bool) "non-negative" true (m.Metrics.preemptions >= 0 && m.Metrics.migrations >= 0)

let test_metrics_single_task_no_preemption () =
  let ts = Taskset.of_tuples [ (0, 2, 3, 3) ] in
  let s = Schedule.create ~m:1 ~horizon:3 in
  Schedule.set s ~proc:0 ~time:0 0;
  Schedule.set s ~proc:0 ~time:1 0;
  let m = Metrics.analyze ts s in
  check Alcotest.int "no preemptions" 0 m.Metrics.preemptions;
  check Alcotest.int "no migrations" 0 m.Metrics.migrations

let test_metrics_detects_preemption () =
  (* Execute at window positions 0 and 2 with a gap: one preemption. *)
  let ts = Taskset.of_tuples [ (0, 2, 3, 3) ] in
  let s = Schedule.create ~m:1 ~horizon:3 in
  Schedule.set s ~proc:0 ~time:0 0;
  Schedule.set s ~proc:0 ~time:2 0;
  let m = Metrics.analyze ts s in
  check Alcotest.int "one preemption" 1 m.Metrics.preemptions

let test_metrics_detects_migration () =
  (* Same job on two processors in consecutive slots: one migration. *)
  let ts = Taskset.of_tuples [ (0, 2, 2, 2); (0, 2, 2, 2) ] in
  let s = Schedule.create ~m:2 ~horizon:2 in
  Schedule.set s ~proc:0 ~time:0 0;
  Schedule.set s ~proc:1 ~time:1 0;
  Schedule.set s ~proc:1 ~time:0 1;
  Schedule.set s ~proc:0 ~time:1 1;
  let m = Metrics.analyze ts s in
  Alcotest.(check bool) "migrations counted" true (m.Metrics.migrations >= 2)

let prop_metrics_bounds =
  qtest ~count:50 "metrics of solver schedules are internally consistent"
    (Test_util.instance_gen ~nmax:4 ~tmax:4 ())
    (fun (ts, m) ->
      match Csp2.Opt.solve ~memo_mb:0 ~budget:(Prelude.Timer.budget ~wall_s:5.0 ()) ts ~m with
      | Encodings.Outcome.Feasible sched, _ ->
        let metrics = Metrics.analyze ts sched in
        metrics.Metrics.busy_slots = Taskset.total_demand ts
        && metrics.Metrics.busy_slots + metrics.Metrics.idle_slots = m * Taskset.hyperperiod ts
        && metrics.Metrics.max_parallelism <= m
        && metrics.Metrics.preemptions >= 0
        && metrics.Metrics.migrations >= 0
      | _ -> true)

let test_gantt_rendering () =
  let s = feasible_schedule_for_running () in
  let text = Format.asprintf "%a" Schedule.pp_gantt s in
  (* Every task appears, and slot references stay within the horizon. *)
  Alcotest.(check bool) "mentions all tasks" true
    (List.for_all
       (fun needle ->
         let nl = String.length needle and hl = String.length text in
         let rec go i = i + nl <= hl && (String.sub text i nl = needle || go (i + 1)) in
         go 0)
       [ "τ1"; "τ2"; "τ3"; "[P1"; "[P2" ])

(* ------------------------------------------------------------------ *)
(* Io                                                                   *)

let test_io_roundtrip () =
  let text = Io.taskset_to_string running in
  let parsed = Io.taskset_of_string text in
  Alcotest.(check string) "roundtrip" (Taskset.to_string running) (Taskset.to_string parsed)

let test_io_comments_and_blanks () =
  let ts = Io.taskset_of_string "# header\n\n0 1 2 2  # inline comment\n\t1 3 4 4\n" in
  check Alcotest.int "two tasks" 2 (Taskset.size ts)

let test_io_errors () =
  let fails input =
    Alcotest.(check bool) ("rejects " ^ input) true
      (try ignore (Io.taskset_of_string input); false with Failure _ -> true)
  in
  fails "";
  fails "1 2 3";
  fails "a b c d";
  fails "0 3 2 5" (* D < C *)

let test_io_schedule_csv () =
  let s = feasible_schedule_for_running () in
  let csv = Io.schedule_to_csv s in
  let parsed = Io.schedule_of_csv csv in
  Alcotest.(check bool) "csv roundtrip" true (Schedule.equal s parsed)

let prop_io_taskset_roundtrip =
  qtest ~count:100 "taskset text roundtrip"
    (Test_util.taskset_gen ())
    (fun ts ->
      Taskset.to_string (Io.taskset_of_string (Io.taskset_to_string ts)) = Taskset.to_string ts)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "rt_model"
    [
      ( "task",
        [
          Alcotest.test_case "make and accessors" `Quick test_task_make;
          Alcotest.test_case "validation" `Quick test_task_validation;
          Alcotest.test_case "arbitrary deadlines allowed" `Quick
            test_task_arbitrary_deadline_allowed;
        ] );
      ( "taskset",
        [
          Alcotest.test_case "hyperperiod and utilization" `Quick test_taskset_hyperperiod;
          Alcotest.test_case "re-identification" `Quick test_taskset_reindex;
        ] );
      ( "windows",
        [
          Alcotest.test_case "running example" `Quick test_windows_running_example;
          Alcotest.test_case "available tasks" `Quick test_windows_available;
          Alcotest.test_case "rejects arbitrary deadlines" `Quick test_windows_rejects_arbitrary;
          Alcotest.test_case "offset folding" `Quick test_windows_offset_folding;
          prop_windows_disjoint_and_cover;
          prop_jobmap_agrees_with_windows;
          prop_slot_load;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "basics" `Quick test_schedule_basics;
          Alcotest.test_case "validation" `Quick test_schedule_validation;
        ] );
      ( "verify",
        [
          Alcotest.test_case "accepts a feasible schedule" `Quick test_verify_accepts;
          Alcotest.test_case "rejects C1 violations" `Quick test_verify_rejects_out_of_window;
          Alcotest.test_case "rejects C3 violations" `Quick test_verify_rejects_parallelism;
          Alcotest.test_case "rejects C4 violations" `Quick test_verify_rejects_wrong_amount;
          Alcotest.test_case "rejects unknown ids" `Quick test_verify_rejects_bad_id;
          Alcotest.test_case "rejects zero-rate cells" `Quick test_verify_zero_rate;
          Alcotest.test_case "weighted amounts" `Quick test_verify_weighted_amount;
          Alcotest.test_case "cyclic: accepts job-level parallelism" `Quick
            test_check_cyclic_accepts_job_parallelism;
          Alcotest.test_case "cyclic: rejects per-job excess" `Quick
            test_check_cyclic_rejects_per_job_excess;
          Alcotest.test_case "cyclic: rejects wrong totals" `Quick
            test_check_cyclic_rejects_wrong_total;
          prop_check_cyclic_matches_reference;
          Alcotest.test_case "cyclic: at most 64 words per cell" `Quick
            test_check_cyclic_allocation;
        ] );
      ( "clone",
        [
          Alcotest.test_case "Section VI-B parameters" `Quick test_clone_parameters;
          prop_clone_identity_on_constrained;
          prop_clone_counts;
        ] );
      ( "minproc",
        [
          Alcotest.test_case "incremental m search" `Quick test_min_processors_search;
          Alcotest.test_case "lower-bound start" `Quick test_min_processors_start;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "running example counts" `Quick test_metrics_counts;
          Alcotest.test_case "no spurious events" `Quick test_metrics_single_task_no_preemption;
          Alcotest.test_case "preemption detection" `Quick test_metrics_detects_preemption;
          Alcotest.test_case "migration detection" `Quick test_metrics_detects_migration;
          Alcotest.test_case "gantt rendering" `Quick test_gantt_rendering;
          prop_metrics_bounds;
        ] );
      ( "io",
        [
          Alcotest.test_case "taskset roundtrip" `Quick test_io_roundtrip;
          Alcotest.test_case "comments and blanks" `Quick test_io_comments_and_blanks;
          Alcotest.test_case "errors" `Quick test_io_errors;
          Alcotest.test_case "schedule csv" `Quick test_io_schedule_csv;
          prop_io_taskset_roundtrip;
        ] );
    ]
