(* Reference implementations of [Verify.check] and [Verify.check_cyclic],
   test oracles for the library functions, which must return the same
   results, violations and their order included.

   [check] is the earlier plain checker, kept verbatim: it finds each
   cell's job through [Jobmap] and reads the schedule through
   [Schedule.get], one call per cell.

   [check_cyclic] is the direct form of the cyclic checker: each executed
   cell tries every job of its task, and the per-task (job, instant)
   tables span the whole horizon, so one call allocates
   2·Σ_i (H/T_i)·H words. *)

open Rt_model
open Verify

let check ?platform ?(max_violations = 32) ts sched =
  let n = Taskset.size ts in
  let m = Schedule.m sched in
  let horizon = Schedule.horizon sched in
  if horizon <> Taskset.hyperperiod ts then
    invalid_arg "Verify.check: schedule horizon differs from the hyperperiod";
  let platform = match platform with Some p -> p | None -> Platform.identical ~m in
  if Platform.processors platform <> m then
    invalid_arg "Verify.check: platform processor count differs from the schedule";
  let jm = Jobmap.create ts in
  let received = Array.make (Jobmap.job_count jm) 0 in
  let violations = ref [] in
  let count = ref 0 in
  let report v =
    if !count < max_violations then violations := v :: !violations;
    incr count
  in
  let proc_of = Array.make n (-1) in
  for time = 0 to horizon - 1 do
    Array.fill proc_of 0 n (-1);
    for proc = 0 to m - 1 do
      let v = Schedule.get sched ~proc ~time in
      if v <> Schedule.idle then
        if v < 0 || v >= n then report (Bad_task { proc; time; value = v })
        else begin
          (if proc_of.(v) <> -1 then
             report (Parallelism { time; task = v; procs = (proc_of.(v), proc) })
           else proc_of.(v) <- proc);
          if not (Platform.can_run platform ~task:v ~proc) then
            report (Zero_rate { proc; time; task = v });
          let g = Jobmap.global_job_at jm ~task:v ~time in
          if g = -1 then report (Out_of_window { proc; time; task = v })
          else received.(g) <- received.(g) + Platform.rate platform ~task:v ~proc
        end
    done
  done;
  (* C4: exact amounts per job. *)
  for task = 0 to n - 1 do
    let expected = (Taskset.task ts task).wcet in
    let base = Jobmap.first_of_task jm task in
    for k = 0 to Jobmap.jobs_of_task jm task - 1 do
      let got = received.(base + k) in
      if got <> expected then report (Wrong_amount { task; job = k; expected; got })
    done
  done;
  if !count = 0 then Ok () else Error (List.rev !violations)

let check_cyclic ?platform ?(max_violations = 32) ts sched =
  let n = Taskset.size ts in
  let m = Schedule.m sched in
  let horizon = Schedule.horizon sched in
  if horizon mod Taskset.hyperperiod ts <> 0 then
    invalid_arg "Verify.check_cyclic: schedule horizon is not a multiple of the hyperperiod";
  for i = 0 to n - 1 do
    if (Taskset.task ts i).deadline > horizon then
      invalid_arg "Verify.check_cyclic: a deadline exceeds the schedule horizon"
  done;
  let platform = match platform with Some p -> p | None -> Platform.identical ~m in
  if Platform.processors platform <> m then
    invalid_arg "Verify.check_cyclic: platform processor count differs from the schedule";
  let violations = ref [] in
  let count = ref 0 in
  let report v =
    if !count < max_violations then violations := v :: !violations;
    incr count
  in
  (* Structural pass: valid ids/rates, plus the executed cells of each task
     as (slot, rate, proc) triples in time order.  No per-task parallelism
     check here: two live jobs of one arbitrary-deadline task may run in
     parallel, so C3 is enforced per job by the assignment below. *)
  let exec = Array.make n [] in
  for time = 0 to horizon - 1 do
    for proc = 0 to m - 1 do
      let v = Schedule.get sched ~proc ~time in
      if v <> Schedule.idle then
        if v < 0 || v >= n then report (Bad_task { proc; time; value = v })
        else begin
          if not (Platform.can_run platform ~task:v ~proc) then
            report (Zero_rate { proc; time; task = v });
          exec.(v) <- (time, Platform.rate platform ~task:v ~proc, proc) :: exec.(v)
        end
    done
  done;
  for task = 0 to n - 1 do
    let tk = Taskset.task ts task in
    let jobs = horizon / tk.Task.period in
    let offset = tk.Task.offset mod tk.Task.period in
    let in_window ~slot k =
      let d = (slot - (offset + (k * tk.Task.period))) mod horizon in
      let d = if d < 0 then d + horizon else d in
      d < tk.Task.deadline
    in
    let cells = Array.of_list (List.rev exec.(task)) in
    let nc = Array.length cells in
    let total = Array.fold_left (fun acc (_, w, _) -> acc + w) 0 cells in
    let unit = Array.for_all (fun (_, w, _) -> w = 1) cells in
    if total <> tk.Task.wcet * jobs then
      report (Wrong_total { task; expected = tk.Task.wcet * jobs; got = total })
    else if not unit then
      (* Aggregate fallback (see above): window membership only. *)
      Array.iter
        (fun (slot, _, proc) ->
          if not (Array.exists (fun k -> in_window ~slot k) (Array.init jobs Fun.id)) then
            report (Out_of_window { proc; time = slot; task }))
        cells
    else begin
      (* The assignment is a max-flow instance: cell → (job, slot) → job,
         with unit capacity on every (job, slot) pair — a job executes at
         most one unit per instant, which is C3 at job granularity — and
         capacity [C_i] on each job.  DFS on the residual graph; a simple
         augmenting path exists whenever any augmenting path does, so
         per-node visited stamps are sound. *)
      let owner = Array.make nc (-1) in
      let fill = Array.make jobs 0 in
      let owned = Array.make jobs [] in
      let slot_user = Array.make (jobs * horizon) (-1) in
      let vc = Array.make nc 0 in
      let vjs = Array.make (jobs * horizon) 0 in
      let vj = Array.make jobs 0 in
      let stamp = ref 0 in
      let slot_of c =
        let s, _, _ = cells.(c) in
        s
      in
      let assign c k =
        (if owner.(c) >= 0 then begin
           let old = owner.(c) in
           fill.(old) <- fill.(old) - 1;
           owned.(old) <- List.filter (fun c' -> c' <> c) owned.(old);
           slot_user.((old * horizon) + slot_of c) <- -1
         end);
        owner.(c) <- k;
        fill.(k) <- fill.(k) + 1;
        owned.(k) <- c :: owned.(k);
        slot_user.((k * horizon) + slot_of c) <- c
      in
      let rec augment c =
        vc.(c) <- !stamp;
        let slot = slot_of c in
        let placed = ref false in
        let k = ref 0 in
        while (not !placed) && !k < jobs do
          let j = !k in
          let node = (j * horizon) + slot in
          if vjs.(node) < !stamp && in_window ~slot j then begin
            vjs.(node) <- !stamp;
            let occupant = slot_user.(node) in
            if occupant >= 0 then begin
              (* The job already runs at [slot]: that unit must move to a
                 different job before [c] can take its place. *)
              if vc.(occupant) < !stamp && augment occupant then begin
                assign c j;
                placed := true
              end
            end
            else if fill.(j) < tk.Task.wcet then begin
              assign c j;
              placed := true
            end
            else if vj.(j) < !stamp then begin
              vj.(j) <- !stamp;
              (* Job full: evict any owned cell through its own slot node. *)
              let evict c' =
                let node' = (j * horizon) + slot_of c' in
                if vjs.(node') < !stamp && vc.(c') < !stamp then begin
                  vjs.(node') <- !stamp;
                  augment c'
                end
                else false
              in
              if List.exists evict owned.(j) then begin
                assign c j;
                placed := true
              end
            end
          end;
          incr k
        done;
        !placed
      in
      let all_placed = ref true in
      for c = 0 to nc - 1 do
        incr stamp;
        if not (augment c) then begin
          all_placed := false;
          let slot, _, proc = cells.(c) in
          if not (Array.exists (fun k -> in_window ~slot k) (Array.init jobs Fun.id)) then
            report (Out_of_window { proc; time = slot; task })
        end
      done;
      if !all_placed then
        (* Totals match and every cell is owned, so every job is full. *)
        ()
      else
        Array.iteri
          (fun k got ->
            if got < tk.Task.wcet then
              report (Wrong_amount { task; job = k; expected = tk.Task.wcet; got }))
          fill
    end
  done;
  if !count = 0 then Ok () else Error (List.rev !violations)
