module Scratch = Prelude.Scratch

type violation =
  | Bad_task of { proc : int; time : int; value : int }
  | Out_of_window of { proc : int; time : int; task : int }
  | Parallelism of { time : int; task : int; procs : int * int }
  | Zero_rate of { proc : int; time : int; task : int }
  | Wrong_amount of { task : int; job : int; expected : int; got : int }
  | Wrong_total of { task : int; expected : int; got : int }

let pp_violation ppf = function
  | Bad_task { proc; time; value } ->
    Format.fprintf ppf "invalid task id %d on P%d at t=%d" value (proc + 1) time
  | Out_of_window { proc; time; task } ->
    Format.fprintf ppf "τ%d runs on P%d at t=%d outside any availability window" (task + 1)
      (proc + 1) time
  | Parallelism { time; task; procs = p, p' } ->
    Format.fprintf ppf "τ%d runs on both P%d and P%d at t=%d (C3)" (task + 1) (p + 1) (p' + 1)
      time
  | Zero_rate { proc; time; task } ->
    Format.fprintf ppf "τ%d scheduled on P%d at t=%d but s=0" (task + 1) (proc + 1) time
  | Wrong_amount { task; job; expected; got } ->
    Format.fprintf ppf "job %d of τ%d received %d units instead of %d (C4)" job (task + 1) got
      expected
  | Wrong_total { task; expected; got } ->
    Format.fprintf ppf "τ%d received %d units per cycle instead of %d (C4)" (task + 1) got
      expected

(* Collects at most [max_violations] violations, in report order, and
   counts them all. *)
let collector max_violations =
  let violations = ref [] and count = ref 0 in
  let report v =
    if !count < max_violations then violations := v :: !violations;
    incr count
  in
  let result () = if !count = 0 then Ok () else Error (List.rev !violations) in
  (report, result)

(* The flat pass, over the tasks marked in [counted], which must have
   [D_i <= T_i]: one read per cell, slot by slot and then processor by
   processor, the order violations are reported in, then C4 per job.
   Job [k] of task [i] is released at [off.(i) + k·per.(i)] (mod the
   horizon, a multiple of every period), and at most one window holds a
   slot: with [r] the slot's distance past the first release, that is
   job [r / T_i], if [r mod T_i < D_i].  A cell adds its rate to that
   job's entry [first.(i) + k] of [received].  C3 is per task:
   [seen.(v)] is [time·m + proc] for the first processor that ran [v]
   in the latest slot that ran it.  Cells of other tasks are only
   checked for a valid id.  Nothing is allocated per cell, and on a warm
   domain nothing at all: the work arrays come from {!Prelude.Scratch}. *)
let slot () : int Scratch.slot = Scratch.slot ()
let off_slot = slot () and per_slot = slot () and dl_slot = slot ()
let first_slot = slot () and received_slot = slot () and seen_slot = slot ()

let flat_pass ~report ~counted platform ts sched =
  let rows = Schedule.rows sched in
  let m = Array.length rows and horizon = Schedule.horizon sched in
  let n = Taskset.size ts in
  let jobs = ref 0 in
  for i = 0 to n - 1 do
    jobs := !jobs + (horizon / (Taskset.task ts i).Task.period)
  done;
  let jobs = !jobs in
  let keep = Scratch.fits ((5 * n) + 1 + jobs) in
  let take slot len v = Scratch.take slot ~keep len v in
  let off = take off_slot n 0 and per = take per_slot n 1 and dl = take dl_slot n 0 in
  let first = take first_slot (n + 1) 0 in
  for i = 0 to n - 1 do
    let tk = Taskset.task ts i in
    off.(i) <- tk.Task.offset mod tk.Task.period;
    per.(i) <- tk.Task.period;
    dl.(i) <- tk.Task.deadline;
    first.(i + 1) <- first.(i) + (horizon / tk.Task.period)
  done;
  let received = take received_slot jobs 0 in
  let seen = take seen_slot n (-1) in
  let unit_rates = Platform.is_identical platform in
  for time = 0 to horizon - 1 do
    let base = time * m in
    for proc = 0 to m - 1 do
      let v = rows.(proc).(time) in
      if v <> Schedule.idle then
        if v < 0 || v >= n then report (Bad_task { proc; time; value = v })
        else if counted.(v) then begin
          let earlier = seen.(v) - base in
          if earlier >= 0 then report (Parallelism { time; task = v; procs = (earlier, proc) })
          else seen.(v) <- base + proc;
          let rate = if unit_rates then 1 else Platform.rate platform ~task:v ~proc in
          if rate <= 0 then report (Zero_rate { proc; time; task = v });
          let r = time - off.(v) in
          let r = if r < 0 then r + horizon else r in
          let k = r / per.(v) in
          if r - (k * per.(v)) < dl.(v) then begin
            let g = first.(v) + k in
            received.(g) <- received.(g) + rate
          end
          else report (Out_of_window { proc; time; task = v })
        end
    done
  done;
  (* C4: exact amounts per job. *)
  for task = 0 to n - 1 do
    if counted.(task) then begin
      let expected = (Taskset.task ts task).wcet in
      for g = first.(task) to first.(task + 1) - 1 do
        let got = received.(g) in
        if got <> expected then
          report (Wrong_amount { task; job = g - first.(task); expected; got })
      done
    end
  done

let check ?platform ?(max_violations = 32) ts sched =
  let n = Taskset.size ts in
  let m = Schedule.m sched in
  let horizon = Schedule.horizon sched in
  if horizon <> Taskset.hyperperiod ts then
    invalid_arg "Verify.check: schedule horizon differs from the hyperperiod";
  let platform = match platform with Some p -> p | None -> Platform.identical ~m in
  if Platform.processors platform <> m then
    invalid_arg "Verify.check: platform processor count differs from the schedule";
  if not (Taskset.is_constrained ts) then
    invalid_arg "Verify.check: arbitrary-deadline task set (apply Clone.transform first)";
  let report, result = collector max_violations in
  flat_pass ~report ~counted:(Array.make n true) platform ts sched;
  result ()

(* Cyclic verification for schedules whose horizon is a (positive) multiple
   of the hyperperiod, with arbitrary deadlines allowed: windows of one task
   may overlap, so which job a cell serves is no longer determined by the
   slot.  C1/C3/C4 therefore become an exact assignment problem — partition
   the task's executed cells among its jobs so that every job receives
   exactly [C_i] units inside its own window, at most one per instant —
   solved per task with augmenting paths (the instances are tiny: one node
   per executed cell).  Note C3 is per {e job} here, not per task: two
   live jobs of one arbitrary-deadline task are distinct clones in the
   reduction and may run in parallel.  When some executed cell carries a
   rate other than 1 (heterogeneous platforms) the cells are no longer unit
   items and the exact partition is not a matching; the check then degrades
   to the aggregate conditions (every cell inside some window, total units
   exact), which are necessary but no longer pin the per-job
   distribution.

   [assign] runs that assignment for every task not marked in [skip]: a
   structural pass (valid ids and rates, plus the executed cells of each
   such task as (slot, rate, proc) triples in time order), then the
   per-task partition.  No per-task parallelism check in the structural
   pass: two live jobs of one arbitrary-deadline task may run in
   parallel, so C3 is enforced per job by the assignment. *)
let assign ~report ~skip platform ts sched =
  let n = Taskset.size ts in
  let rows = Schedule.rows sched in
  let m = Array.length rows and horizon = Schedule.horizon sched in
  let exec = Array.make n [] in
  for time = 0 to horizon - 1 do
    for proc = 0 to m - 1 do
      let v = rows.(proc).(time) in
      if v <> Schedule.idle then
        if v < 0 || v >= n then report (Bad_task { proc; time; value = v })
        else if not skip.(v) then begin
          if not (Platform.can_run platform ~task:v ~proc) then
            report (Zero_rate { proc; time; task = v });
          exec.(v) <- (time, Platform.rate platform ~task:v ~proc, proc) :: exec.(v)
        end
    done
  done;
  for task = 0 to n - 1 do
    if not skip.(task) then begin
      let tk = Taskset.task ts task in
      let period = tk.Task.period and deadline = tk.Task.deadline in
      let jobs = horizon / period in
      let offset = tk.Task.offset mod period in
      (* Job [k] is released at [offset + k·period]; [slot] lies [dist slot k]
         slots into its cyclic window, and inside it iff that is below
         [deadline]. *)
      let dist slot k = Prelude.Intmath.imod (slot - offset - (k * period)) horizon in
      (* With [r = dist slot 0], job [r / period] is the last one released
         at or before [slot], [r mod period] slots before it, and each job
         before it (wrapping modulo [jobs]) one period further back.  The
         windows holding [slot] are those of the first [span r] of these:
         one when [deadline <= period], at most ⌈deadline/period⌉. *)
      let span r =
        let into = r mod period in
        if into < deadline then (deadline - into + period - 1) / period else 0
      in
      let covered slot = span (dist slot 0) > 0 in
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
            if not (covered slot) then report (Out_of_window { proc; time = slot; task }))
          cells
      else begin
        (* The assignment is a max-flow instance: cell → (job, slot) → job,
           with unit capacity on every (job, slot) pair — a job executes at
           most one unit per instant, which is C3 at job granularity — and
           capacity [C_i] on each job.  DFS on the residual graph; a simple
           augmenting path exists whenever any augmenting path does, so
           per-node visited stamps are sound.  A (job, slot) node is indexed
           by how far into the job's window the slot lies, so each per-node
           table holds [jobs · deadline] entries. *)
        let owner = Array.make nc (-1) in
        let fill = Array.make jobs 0 in
        let owned = Array.make jobs [] in
        let slot_user = Array.make (jobs * deadline) (-1) in
        let vc = Array.make nc 0 in
        let vjs = Array.make (jobs * deadline) 0 in
        let vj = Array.make jobs 0 in
        let stamp = ref 0 in
        let slot_of c =
          let s, _, _ = cells.(c) in
          s
        in
        let node_of c k = (k * deadline) + dist (slot_of c) k in
        let assign c k =
          (if owner.(c) >= 0 then begin
             let old = owner.(c) in
             fill.(old) <- fill.(old) - 1;
             owned.(old) <- List.filter (fun c' -> c' <> c) owned.(old);
             slot_user.(node_of c old) <- -1
           end);
          owner.(c) <- k;
          fill.(k) <- fill.(k) + 1;
          owned.(k) <- c :: owned.(k);
          slot_user.(node_of c k) <- c
        in
        let rec augment c =
          vc.(c) <- !stamp;
          let slot = slot_of c in
          let r = dist slot 0 in
          let latest = r / period in
          let candidates = span r in
          (* The candidates are jobs [latest − candidates + 1 .. latest]
             modulo [jobs]; [i] walks them in ascending job order, so when
             they wrap, jobs [0 .. latest] come before the wrapped tail. *)
          let first = latest - candidates + 1 in
          let placed = ref false in
          let i = ref 0 in
          while (not !placed) && !i < candidates do
            let j =
              if first >= 0 then first + !i
              else if !i <= latest then !i
              else !i + first + jobs - latest - 1
            in
            let node = node_of c j in
            if vjs.(node) < !stamp then begin
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
                  let node' = node_of c' j in
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
            incr i
          done;
          !placed
        in
        let all_placed = ref true in
        for c = 0 to nc - 1 do
          incr stamp;
          if not (augment c) then begin
            all_placed := false;
            let slot, _, proc = cells.(c) in
            if not (covered slot) then report (Out_of_window { proc; time = slot; task })
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
    end
  done

(* With constrained deadlines and unit rates, a slot lies in at most one
   window of its task, so each cell has one candidate job and the
   assignment succeeds exactly when every cell lies in a window, no task
   runs twice in a slot and every job gets [C_i] cells: what [flat_pass]
   checks, so it accepts those tasks alone.  A schedule it refuses is
   handed, whole, to [assign], which alone reports, so the violations and
   their order are the assignment's. *)
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
  let report, result = collector max_violations in
  let identical = Platform.is_identical platform in
  let flat = Array.init n (fun i -> identical && Task.is_constrained (Taskset.task ts i)) in
  let refused = ref false in
  flat_pass ~report:(fun _ -> refused := true) ~counted:flat platform ts sched;
  if !refused then Array.fill flat 0 n false;
  if not (Array.for_all Fun.id flat) then assign ~report ~skip:flat platform ts sched;
  result ()

let is_feasible ?platform ts sched =
  match check ?platform ts sched with Ok () -> true | Error _ -> false
