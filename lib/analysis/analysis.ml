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

(* The up-front charge for the window passes: n·T slot–task pairs plus
   Σ (T/T_i)·D_i window cells, saturating at [max_int] so that a huge
   hyperperiod cannot wrap to a cost the budget accepts.  The all-jobs
   cut runs inside it; the flow's phases are charged as they run. *)
let window_work ts =
  let t = Taskset.hyperperiod ts in
  let add a b = if a > max_int - b then max_int else a + b in
  let mul a b = if a > 0 && b > max_int / a then max_int else a * b in
  Array.fold_left
    (fun acc (task : Task.t) -> add acc (mul (t / task.period) task.deadline))
    (mul (Taskset.size ts) t) (Taskset.tasks ts)

(* The all-jobs cut of Horn's network: Σ_t min(m, tasks whose window
   holds t), the most the slots can serve of all jobs together.  Windows
   come from (O, C, D, T) as {!Flow} derives them; one array over the
   hyperperiod takes +1 at each release and −1 at each deadline, a
   window that wraps split at the boundary, and its running sum is the
   count at each slot.  The array is scratch ({!Prelude.Scratch}). *)
let delta_slot : int Scratch.slot = Scratch.slot ()

let all_jobs_supply ts ~m =
  let horizon = Taskset.hyperperiod ts in
  let delta = Scratch.take delta_slot ~keep:(Scratch.fits horizon) horizon 0 in
  Array.iter
    (fun (task : Task.t) ->
      for k = 0 to (horizon / task.period) - 1 do
        let release = (task.offset mod task.period) + (k * task.period) in
        let due = release + task.deadline in
        delta.(release) <- delta.(release) + 1;
        if due < horizon then delta.(due) <- delta.(due) - 1
        else if due > horizon then begin
          delta.(0) <- delta.(0) + 1;
          delta.(due - horizon) <- delta.(due - horizon) - 1
        end
      done)
    (Taskset.tasks ts);
  let covering = ref 0 and supply = ref 0 in
  for t = 0 to horizon - 1 do
    covering := !covering + delta.(t);
    supply := !supply + Int.min m !covering
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
  let refuted step = Infeasible { Certificate.m; step } in
  if utilization_exceeds ts ~m then
    let num, den = Taskset.utilization_num_den ts in
    finish ~skipped:[] (refuted (Certificate.Utilization { demand = num; supply = m * den }))
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
      let demand = Taskset.total_demand ts and supply = all_jobs_supply ts ~m in
      let verdict =
        if supply < demand then refuted (Certificate.Supply_shortfall { demand; supply })
        else
          match Flow.solve ~spend:(fun cost -> spend budget cost ~note:flow_note) ts ~m with
          | Flow.Schedule sched -> Feasible sched
          | Flow.Cut cert -> Infeasible cert
          | Flow.Stopped -> Undecided
      in
      finish ~skipped:budget.notes verdict
    end
  end
