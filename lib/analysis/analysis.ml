open Prelude
open Rt_model

module Domains = Domains
module Certificate = Certificate

type verdict =
  | Infeasible of Certificate.t
  | Trivially_feasible of Schedule.t
  | Pruned of Domains.t

type report = {
  verdict : verdict;
  m_lower : int;
  skipped : string list;
  time_s : float;
}

let default_work_budget = 10_000_000

(* Exact U > m over the hyperperiod.  If [m * den] would overflow it
   exceeds [num] anyway, so the guard keeps the product from wrapping. *)
let utilization_exceeds ts ~m =
  let num, den = Taskset.utilization_num_den ts in
  m <= max_int / den && num > m * den

(* ------------------------------------------------------------------ *)
(* Work budget: every window-based pass draws from a shared pool and, on
   exhaustion, records WHY it stopped instead of silently degrading.    *)

type budget = { mutable left : int; mutable notes : string list; wall : Timer.budget }

let wall_note = "analysis stopped early: wall budget exhausted"

let spend b cost ~note =
  if Timer.cancelled b.wall || Timer.exceeded b.wall ~nodes:0 then begin
    if not (List.mem wall_note b.notes) then b.notes <- wall_note :: b.notes;
    false
  end
  else if cost <= b.left then begin
    b.left <- b.left - cost;
    true
  end
  else begin
    b.notes <- note :: b.notes;
    false
  end

(* Cost of building and sweeping the window tables: one n·T slot table
   plus Σ (T/T_i)·D_i window cells, saturating at [max_int] so that a
   huge hyperperiod cannot wrap to a cost the budget accepts. *)
let window_work ts =
  let t = Taskset.hyperperiod ts in
  let add a b = if a > max_int - b then max_int else a + b in
  let mul a b = if a > 0 && b > max_int / a then max_int else a * b in
  Array.fold_left
    (fun acc (task : Task.t) -> add acc (mul (t / task.period) task.deadline))
    (mul (Taskset.size ts) t) (Taskset.tasks ts)

(* ------------------------------------------------------------------ *)
(* Fixpoint state at a fixed m.  [allowed] mirrors the replay state of
   Certificate.validate: the analyzer records exactly the derivation steps
   it applies, so a validator replay reconstructs the same matrices.     *)

type fx = {
  ts : Taskset.t;
  m : int;
  n : int;
  horizon : int;
  windows : Windows.t;
  allowed : bool array array; (* [task].(slot), true only in-window *)
  allowed_count : int array; (* per global job *)
  forced : Bitset.t array; (* per slot *)
  forced_job : bool array; (* per global job *)
  saturated : bool array; (* per slot *)
  mutable blocked_cells : int;
  mutable steps_rev : Certificate.step list;
}

exception Contradiction of Certificate.step

let make_fx ts ~m windows =
  let n = Taskset.size ts in
  let horizon = Windows.horizon windows in
  let jobs = Windows.jobs windows in
  let allowed = Array.make_matrix n horizon false in
  Array.iter
    (fun (job : Windows.job) -> Array.iter (fun s -> allowed.(job.task).(s) <- true) job.slots)
    jobs;
  {
    ts;
    m;
    n;
    horizon;
    windows;
    allowed;
    allowed_count = Array.map (fun (job : Windows.job) -> Array.length job.slots) jobs;
    forced = Array.init horizon (fun _ -> Bitset.create n);
    forced_job = Array.make (Array.length jobs) false;
    saturated = Array.make horizon false;
    blocked_cells = 0;
    steps_rev = [];
  }

let emit fx step = fx.steps_rev <- step :: fx.steps_rev

let certificate fx terminal = { Certificate.m = fx.m; steps = List.rev (terminal :: fx.steps_rev) }

(* Laxity-zero forcing + slot saturation, iterated to a fixed point.
   Raises [Contradiction] with the terminal step on refutation. *)
let run_fixpoint fx =
  let jobs = Windows.jobs fx.windows in
  let jobq = Queue.create () in
  let slotq = Queue.create () in
  Array.iteri (fun g _ -> Queue.push g jobq) jobs;
  let process_job g =
    if not fx.forced_job.(g) then begin
      let job = jobs.(g) in
      let wcet = (Taskset.task fx.ts job.task).wcet in
      let c = fx.allowed_count.(g) in
      if c < wcet then
        raise (Contradiction (Certificate.Starved { task = job.task; k = job.index; allowed = c; wcet }))
      else if c = wcet then begin
        fx.forced_job.(g) <- true;
        emit fx (Certificate.Forced { task = job.task; k = job.index });
        Array.iter
          (fun s ->
            if fx.allowed.(job.task).(s) && not (Bitset.mem fx.forced.(s) job.task) then begin
              Bitset.add fx.forced.(s) job.task;
              Queue.push s slotq
            end)
          job.slots
      end
    end
  in
  let process_slot s =
    let c = Bitset.cardinal fx.forced.(s) in
    if c > fx.m then raise (Contradiction (Certificate.Slot_overload { time = s }))
    else if c = fx.m && not fx.saturated.(s) then begin
      fx.saturated.(s) <- true;
      emit fx (Certificate.Saturated { time = s });
      for i = 0 to fx.n - 1 do
        if fx.allowed.(i).(s) && not (Bitset.mem fx.forced.(s) i) then begin
          fx.allowed.(i).(s) <- false;
          fx.blocked_cells <- fx.blocked_cells + 1;
          let g = Windows.job_id_at fx.windows ~task:i ~time:s in
          fx.allowed_count.(g) <- fx.allowed_count.(g) - 1;
          Queue.push g jobq
        end
      done
    end
  in
  while not (Queue.is_empty jobq && Queue.is_empty slotq) do
    while not (Queue.is_empty jobq) do
      process_job (Queue.pop jobq)
    done;
    if not (Queue.is_empty slotq) then process_slot (Queue.pop slotq)
  done

(* ------------------------------------------------------------------ *)
(* m-independent lower bounds (computed on the pristine windows only:
   saturation-derived facts are conditional on the analyzed m, so they
   must not leak into the bound). *)

(* Max over slots of the number of laxity-zero tasks covering the slot:
   all of them are forced to run there on any number of processors. *)
let zero_laxity_bound ts windows =
  let horizon = Windows.horizon windows in
  let zl = Array.make horizon 0 in
  Array.iter
    (fun (job : Windows.job) ->
      let task = Taskset.task ts job.task in
      if task.wcet = task.deadline then Array.iter (fun s -> zl.(s) <- zl.(s) + 1) job.slots)
    (Windows.jobs windows);
  Array.fold_left Int.max 0 zl

(* Smallest m' whose hyperperiod supply Σ_t min(m', load t) covers the
   total demand; [n + 1] when even unlimited parallelism falls short. *)
let supply_bound ts windows =
  let load = Windows.slot_load windows in
  let n = Taskset.size ts in
  let demand = Taskset.total_demand ts in
  let counts = Array.make (n + 1) 0 in
  Array.iter (fun l -> counts.(l) <- counts.(l) + 1) load;
  let rec search m' =
    if m' > n then n + 1
    else begin
      let supply = ref 0 in
      Array.iteri (fun l c -> supply := !supply + (c * Int.min m' l)) counts;
      if !supply >= demand then m' else search (m' + 1)
    end
  in
  search 1

(* ------------------------------------------------------------------ *)
(* Interval demand-bound tests.  Candidate intervals are the cyclic
   [start, start+len) that open at a release instant and close at an
   absolute deadline, both folded mod T: the processor-demand argument
   needs no others, since a job's forced contribution
   max(0, C − slots outside) only changes at its window boundaries.    *)

let boundary_points ts windows =
  let horizon = Windows.horizon windows in
  let starts = Array.make horizon false and ends = Array.make horizon false in
  Array.iter
    (fun (job : Windows.job) ->
      let task = Taskset.task ts job.task in
      starts.(Intmath.imod job.release horizon) <- true;
      ends.(Intmath.imod (job.release + task.deadline) horizon) <- true)
    (Windows.jobs windows);
  (starts, ends)

(* One sweep per start point over the slots after it, keeping
   demand = Σ_jobs max(0, inside − slack) up to date, where [inside]
   counts a job's cells in [start, start+len) and slack = cells − C.  The
   cells are every window cell on the pristine windows, or, with
   [allowed], those the fixpoint left (blocking a cell only raises
   demand).  Returns the max lower bound ⌈demand/len⌉ over the deadline
   points and, with [detect_m], the first interval in (start, end) order
   whose demand exceeds m·len.  Each start costs T + cells + jobs, which
   is what it is charged. *)
let interval_scan ts windows ?allowed budget ?detect_m () =
  let horizon = Windows.horizon windows in
  let jobs = Windows.jobs windows in
  let njobs = Array.length jobs in
  let counts task s = match allowed with None -> true | Some a -> a.(task).(s) in
  (* The jobs with a counted cell at each slot, and each job's slack. *)
  let at_slot = Array.make horizon [] and slack = Array.make njobs 0 in
  Array.iteri
    (fun g (job : Windows.job) ->
      slack.(g) <- -(Taskset.task ts job.task).wcet;
      Array.iter
        (fun s ->
          if counts job.task s then begin
            at_slot.(s) <- g :: at_slot.(s);
            slack.(g) <- slack.(g) + 1
          end)
        job.slots)
    jobs;
  let cells = Array.fold_left (fun acc l -> acc + List.length l) 0 at_slot in
  let at_slot = Array.map Array.of_list at_slot in
  let note =
    (if Option.is_some allowed then "post-fixpoint " else "")
    ^ "interval pass truncated: work budget exhausted mid-sweep"
  in
  let starts, ends = boundary_points ts windows in
  let inside = Array.make njobs 0 in
  let bound = ref 1 and hit = ref None in
  (try
     for start = 0 to horizon - 1 do
       if starts.(start) then begin
         if not (spend budget (horizon + cells + njobs) ~note) then raise Exit;
         Array.fill inside 0 njobs 0;
         let demand = ref 0 and first_end = ref None in
         (* [e] walks the slots: slot e joins, then the interval
            [start, start+len) ends at the next one.  len = T would be the
            full hyperperiod: that is exactly the utilization test, already
            run. *)
         let e = ref start in
         for len = 1 to horizon - 1 do
           let here = at_slot.(!e) in
           for k = 0 to Array.length here - 1 do
             let g = here.(k) in
             inside.(g) <- inside.(g) + 1;
             if inside.(g) > slack.(g) then incr demand
           done;
           e := if !e = horizon - 1 then 0 else !e + 1;
           if ends.(!e) then begin
             bound := Int.max !bound (Intmath.cdiv !demand len);
             match detect_m with
             | Some m when Option.is_none !hit && !demand > m * len -> (
               (* Ends are ranked by slot, so one past the wrap (e < start)
                  outranks every earlier one. *)
               match !first_end with
               | Some (e', _, _) when e' < !e -> ()
               | _ -> first_end := Some (!e, len, !demand))
             | _ -> ()
           end
         done;
         match !first_end with
         | Some (_, len, demand) -> hit := Some (start, len, demand)
         | None -> ()
       end
     done
   with Exit -> ());
  (!bound, !hit)

(* ------------------------------------------------------------------ *)
(* Post-fixpoint per-slot availability and supply.                      *)

let availability fx =
  let avail = Array.make fx.horizon 0 in
  for s = 0 to fx.horizon - 1 do
    for i = 0 to fx.n - 1 do
      if fx.allowed.(i).(s) then avail.(s) <- avail.(s) + 1
    done
  done;
  avail

let post_supply fx avail = Array.fold_left (fun acc a -> acc + Int.min fx.m a) 0 avail

(* ------------------------------------------------------------------ *)
(* Trivially-feasible pass: first-fit-decreasing-density partitioning with
   a per-processor EDF packing over an unrolled double hyperperiod (so
   wrapped windows are served in release order).  The witness is accepted
   only if every job is fully served — and re-checked by Verify before the
   verdict is trusted. *)

(* At each unrolled slot x a processor runs, of its tasks' jobs with
   r ≤ x < r + D and work left, the one with the earliest absolute
   deadline, the lowest task id on a tie.  A constrained-deadline task has
   at most one such job: the one whose cyclic window holds x mod T, if
   its unrolled window holds x too.  Returns the schedule and each job's
   unserved units. *)
let edf_pack ts windows ~m ~assign =
  let horizon = Windows.horizon windows in
  let jobs = Windows.jobs windows in
  let rem = Array.map (fun (j : Windows.job) -> (Taskset.task ts j.task).wcet) jobs in
  let sched = Schedule.create ~m ~horizon in
  for proc = 0 to m - 1 do
    let mine = List.filter (fun i -> assign.(i) = proc) (List.init (Taskset.size ts) Fun.id) in
    for x = 0 to (2 * horizon) - 1 do
      let t = Intmath.imod x horizon in
      if Schedule.get sched ~proc ~time:t = Schedule.idle then begin
        let best = ref (-1) and best_deadline = ref max_int in
        List.iter
          (fun i ->
            let g = Windows.job_id_at windows ~task:i ~time:t in
            if g >= 0 && rem.(g) > 0 then begin
              let release = jobs.(g).release in
              let deadline = release + (Taskset.task ts i).deadline in
              if release <= x && x < deadline && deadline < !best_deadline then begin
                best := g;
                best_deadline := deadline
              end
            end)
          mine;
        if !best >= 0 then begin
          Schedule.set sched ~proc ~time:t jobs.(!best).task;
          rem.(!best) <- rem.(!best) - 1
        end
      end
    done
  done;
  (sched, rem)

let try_partition fx budget =
  let ts = fx.ts and m = fx.m and horizon = fx.horizon in
  (* Each of 2T unrolled slots per processor looks at its tasks once. *)
  let cost = 2 * horizon * (fx.n + m) in
  if not (spend budget cost ~note:"partitioned-fit pass skipped: work budget exhausted") then
    None
  else begin
    let order = Array.init fx.n (fun i -> i) in
    Array.sort
      (fun a b ->
        let da = Task.density (Taskset.task ts a) and db = Task.density (Taskset.task ts b) in
        if da <> db then Float.compare db da else Int.compare a b)
      order;
    let bin_demand = Array.make m 0 in
    let assign = Array.make fx.n (-1) in
    let fits = ref true in
    Array.iter
      (fun i ->
        let task = Taskset.task ts i in
        let d = Taskset.jobs_per_hyperperiod ts i * task.wcet in
        let rec place j =
          if j >= m then fits := false
          else if bin_demand.(j) + d <= horizon then begin
            bin_demand.(j) <- bin_demand.(j) + d;
            assign.(i) <- j
          end
          else place (j + 1)
        in
        place 0)
      order;
    if not !fits then None
    else begin
      let sched, rem = edf_pack ts fx.windows ~m ~assign in
      if Array.for_all (fun r -> r = 0) rem && Verify.is_feasible ts sched then Some sched
      else None
    end
  end

(* ------------------------------------------------------------------ *)

let build_domains fx ~m_lower avail =
  let d = Domains.create ~n:fx.n ~m:fx.m ~horizon:fx.horizon in
  for s = 0 to fx.horizon - 1 do
    Bitset.iter (fun task -> Domains.force d ~task ~time:s) fx.forced.(s);
    if avail.(s) = 0 then Domains.mark_dead d ~time:s
  done;
  if fx.blocked_cells > 0 then begin
    let jobs = Windows.jobs fx.windows in
    Array.iter
      (fun (job : Windows.job) ->
        Array.iter
          (fun s -> if not (fx.allowed.(job.task).(s)) then Domains.block d ~task:job.task ~time:s)
          job.slots)
      jobs
  end;
  Domains.set_m_lower d m_lower;
  d

let check_args name ts ~m =
  if m < 1 then invalid_arg (name ^ ": m must be >= 1");
  if not (Taskset.is_constrained ts) then
    invalid_arg (name ^ ": arbitrary-deadline task set (reduce with Clone first)")

let analyze ?(work_budget = default_work_budget) ?(wall = Timer.unlimited) ts ~m =
  check_args "Analysis.analyze" ts ~m;
  let t0 = Timer.now () in
  let finish ~m_lower ~skipped verdict =
    { verdict; m_lower; skipped; time_s = Timer.now () -. t0 }
  in
  let num, den = Taskset.utilization_num_den ts in
  let u_bound = Intmath.cdiv num den in
  if utilization_exceeds ts ~m then
    finish ~m_lower:u_bound ~skipped:[]
      (Infeasible { Certificate.m; steps = [ Certificate.Utilization { demand = num; supply = m * den } ] })
  else begin
    let budget = { left = work_budget; notes = []; wall } in
    let n = Taskset.size ts in
    let horizon = Taskset.hyperperiod ts in
    if
      not
        (spend budget (window_work ts)
           ~note:
             (Printf.sprintf
                "window passes skipped: instance cost %d exceeds work budget %d (n=%d, T=%d)"
                (window_work ts) work_budget n horizon))
    then
      (* Too large to inspect slot-by-slot: report the skip (the old
         slot_capacity_shortfall guard was silent here) and fall back to
         the utilization bound alone. *)
      finish ~m_lower:u_bound ~skipped:budget.notes
        (Pruned
           (let d = Domains.create ~n ~m ~horizon in
            Domains.set_m_lower d u_bound;
            d))
    else begin
      let windows = Windows.build ts in
      let fx = make_fx ts ~m windows in
      let m_low = ref u_bound in
      m_low := Int.max !m_low (zero_laxity_bound ts windows);
      m_low := Int.max !m_low (supply_bound ts windows);
      match run_fixpoint fx with
      | exception Contradiction terminal ->
        finish ~m_lower:!m_low ~skipped:budget.notes (Infeasible (certificate fx terminal))
      | () -> (
        let avail = availability fx in
        let cap = post_supply fx avail in
        let demand = Taskset.total_demand ts in
        if cap < demand then
          finish ~m_lower:!m_low ~skipped:budget.notes
            (Infeasible (certificate fx (Certificate.Supply_shortfall { demand; supply = cap })))
        else begin
          (* Pristine sweep: lower bounds always; direct detection doubles
             as the certificate source while no cell is blocked.  Once one
             is, detection counts only the cells the fixpoint left. *)
          let detect_m = if fx.blocked_cells = 0 then Some m else None in
          let bound, pristine_hit = interval_scan ts windows budget ?detect_m () in
          m_low := Int.max !m_low bound;
          let hit =
            if fx.blocked_cells = 0 then pristine_hit
            else snd (interval_scan ts windows ~allowed:fx.allowed budget ~detect_m:m ())
          in
          match hit with
          | Some (start, len, demand) ->
            finish ~m_lower:!m_low ~skipped:budget.notes
              (Infeasible
                 (certificate fx
                    (Certificate.Interval_demand { start; len; demand; supply = m * len })))
          | None -> (
            match try_partition fx budget with
            | Some sched ->
              finish ~m_lower:!m_low ~skipped:budget.notes (Trivially_feasible sched)
            | None ->
              finish ~m_lower:!m_low ~skipped:budget.notes
                (Pruned (build_domains fx ~m_lower:!m_low avail)))
        end)
    end
  end

let m_lower_bound ?(work_budget = default_work_budget) ts =
  if not (Taskset.is_constrained ts) then
    invalid_arg "Analysis.m_lower_bound: arbitrary-deadline task set (reduce with Clone first)";
  let num, den = Taskset.utilization_num_den ts in
  let u_bound = Intmath.cdiv num den in
  let budget = { left = work_budget; notes = []; wall = Timer.unlimited } in
  if not (spend budget (window_work ts) ~note:"") then u_bound
  else begin
    let windows = Windows.build ts in
    let bound, _ = interval_scan ts windows budget () in
    Int.max
      (Int.max u_bound (zero_laxity_bound ts windows))
      (Int.max (supply_bound ts windows) bound)
  end

module For_tests = struct
  let interval_scan ?allowed ts ~m =
    let unlimited = { left = max_int; notes = []; wall = Timer.unlimited } in
    interval_scan ts (Windows.build ts) ?allowed unlimited ~detect_m:m ()

  let fixpoint_allowed ts ~m =
    let fx = make_fx ts ~m (Windows.build ts) in
    match run_fixpoint fx with exception Contradiction _ -> None | () -> Some fx.allowed

  let edf_pack ts ~m ~assign = edf_pack ts (Windows.build ts) ~m ~assign
end
