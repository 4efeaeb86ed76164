open Prelude
open Rt_model

module Certificate = Certificate
module Flow = Flow

type verdict = Infeasible of Certificate.t | Feasible of Schedule.t | Undecided

type report = { verdict : verdict; skipped : string list; time_s : float }

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
(* The interval demand bound, an m-independent lower bound for
   {!m_lower_bound}.  Candidate intervals are the cyclic [start,
   start+len) that open at a release instant and close at an absolute
   deadline, both folded mod T: the processor-demand argument needs no
   others, since a job's forced contribution max(0, C − slots outside)
   only changes at its window boundaries.                              *)

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
   counts a job's cells in [start, start+len) and slack = D − C.  Returns
   the max ⌈demand/len⌉ over the deadline points.  Each start costs
   T + cells + jobs, which is what it is charged; a truncated sweep
   returns the bound so far. *)
let interval_bound ts windows budget =
  let horizon = Windows.horizon windows in
  let jobs = Windows.jobs windows in
  let njobs = Array.length jobs in
  (* The jobs with a window cell at each slot, and each job's slack. *)
  let at_slot = Array.make horizon [] and slack = Array.make njobs 0 in
  Array.iteri
    (fun g (job : Windows.job) ->
      let task = Taskset.task ts job.task in
      slack.(g) <- task.deadline - task.wcet;
      Array.iter (fun s -> at_slot.(s) <- g :: at_slot.(s)) job.slots)
    jobs;
  let cells = Array.fold_left (fun acc l -> acc + List.length l) 0 at_slot in
  let at_slot = Array.map Array.of_list at_slot in
  let starts, ends = boundary_points ts windows in
  let inside = Array.make njobs 0 in
  let bound = ref 1 in
  (try
     for start = 0 to horizon - 1 do
       if starts.(start) then begin
         if not (spend budget (horizon + cells + njobs) ~note:"") then raise Exit;
         Array.fill inside 0 njobs 0;
         let demand = ref 0 in
         (* [e] walks the slots: slot e joins, then the interval
            [start, start+len) ends at the next one.  len = T would be the
            full hyperperiod: that is exactly the utilization bound. *)
         let e = ref start in
         for len = 1 to horizon - 1 do
           let here = at_slot.(!e) in
           for k = 0 to Array.length here - 1 do
             let g = here.(k) in
             inside.(g) <- inside.(g) + 1;
             if inside.(g) > slack.(g) then incr demand
           done;
           e := if !e = horizon - 1 then 0 else !e + 1;
           if ends.(!e) then bound := Int.max !bound (Intmath.cdiv !demand len)
         done
       end
     done
   with Exit -> ());
  !bound

(* ------------------------------------------------------------------ *)
(* Post-fixpoint supply: Σ_t min(m, tasks still allowed at t).          *)

let post_supply fx =
  let supply = ref 0 in
  for s = 0 to fx.horizon - 1 do
    let avail = ref 0 in
    for i = 0 to fx.n - 1 do
      if fx.allowed.(i).(s) then incr avail
    done;
    supply := !supply + Int.min fx.m !avail
  done;
  !supply

let check_args name ts ~m =
  if m < 1 then invalid_arg (name ^ ": m must be >= 1");
  if not (Taskset.is_constrained ts) then
    invalid_arg (name ^ ": arbitrary-deadline task set (reduce with Clone first)")

let flow_note = "flow stopped early: work budget exhausted"

let analyze ?(work_budget = default_work_budget) ?(wall = Timer.unlimited) ts ~m =
  check_args "Analysis.analyze" ts ~m;
  let t0 = Timer.now () in
  let finish ~skipped verdict = { verdict; skipped; time_s = Timer.now () -. t0 } in
  if utilization_exceeds ts ~m then
    let num, den = Taskset.utilization_num_den ts in
    finish ~skipped:[]
      (Infeasible { Certificate.m; steps = [ Certificate.Utilization { demand = num; supply = m * den } ] })
  else begin
    let budget = { left = work_budget; notes = []; wall } in
    if
      not
        (spend budget (window_work ts)
           ~note:
             (Printf.sprintf
                "window passes skipped: instance cost %d exceeds work budget %d (n=%d, T=%d)"
                (window_work ts) work_budget (Taskset.size ts) (Taskset.hyperperiod ts)))
    then
      (* Too large to inspect slot by slot: report the skip and leave the
         instance to the search. *)
      finish ~skipped:budget.notes Undecided
    else begin
      let fx = make_fx ts ~m (Windows.build ts) in
      match run_fixpoint fx with
      | exception Contradiction terminal ->
        finish ~skipped:budget.notes (Infeasible (certificate fx terminal))
      | () ->
        let supply = post_supply fx and demand = Taskset.total_demand ts in
        if supply < demand then
          finish ~skipped:budget.notes
            (Infeasible (certificate fx (Certificate.Supply_shortfall { demand; supply })))
        else begin
          (* The exact test, on the pristine windows: the fixpoint's
             derivations are not needed by its certificate. *)
          let verdict =
            match Flow.solve ~spend:(fun cost -> spend budget cost ~note:flow_note) ts ~m with
            | Flow.Schedule sched -> Feasible sched
            | Flow.Cut cert -> Infeasible cert
            | Flow.Stopped -> Undecided
          in
          finish ~skipped:budget.notes verdict
        end
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
    Int.max
      (Int.max u_bound (zero_laxity_bound ts windows))
      (Int.max (supply_bound ts windows) (interval_bound ts windows budget))
  end

module For_tests = struct
  let interval_bound ts =
    interval_bound ts (Windows.build ts) { left = max_int; notes = []; wall = Timer.unlimited }
end
