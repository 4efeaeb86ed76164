type t = {
  taskset : Taskset.t;
  horizon : int;
  offsets : int array;  (* folded offsets, O_i mod T_i *)
  first : int array;  (* prefix sums of jobs per task; length n+1 *)
}

let create ts =
  if not (Taskset.is_constrained ts) then
    invalid_arg "Jobmap.create: arbitrary-deadline task set (apply Clone.transform first)";
  let n = Taskset.size ts in
  let horizon = Taskset.hyperperiod ts in
  let offsets = Array.init n (fun i -> (Taskset.task ts i).offset mod (Taskset.task ts i).period) in
  let first = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    first.(i + 1) <- first.(i) + (horizon / (Taskset.task ts i).period)
  done;
  { taskset = ts; horizon; offsets; first }

let taskset t = t.taskset
let horizon t = t.horizon
let job_count t = t.first.(Taskset.size t.taskset)
let jobs_of_task t i = t.first.(i + 1) - t.first.(i)
let first_of_task t i = t.first.(i)

(* The job among [count] whose window holds absolute instant [abs], or -1.
   A top-level function, not a local closure: [local_job_at] runs once per
   task and slot in [Csp2.Opt]'s eligibility build, which must not
   allocate per call. *)
let job_at_instant (tk : Task.t) ~offset ~count abs =
  if abs < offset then -1
  else
    let k = (abs - offset) / tk.period in
    if k < count && abs - (offset + (k * tk.period)) < tk.deadline then k else -1

let local_job_at t ~task ~time =
  let tk = Taskset.task t.taskset task in
  let offset = t.offsets.(task) in
  let count = jobs_of_task t task in
  let slot = Prelude.Intmath.imod time t.horizon in
  (* A cyclic slot corresponds to absolute instants [slot] and [slot + T];
     with constrained deadlines at most one of the two hits a window. *)
  let k = job_at_instant tk ~offset ~count slot in
  if k >= 0 then k else job_at_instant tk ~offset ~count (slot + t.horizon)

let global_job_at t ~task ~time =
  let k = local_job_at t ~task ~time in
  if k = -1 then -1 else t.first.(task) + k

let release t ~task ~k = t.offsets.(task) + (k * (Taskset.task t.taskset task).period)
let window_last t ~task ~k = release t ~task ~k + (Taskset.task t.taskset task).deadline - 1

let remaining_window_slots t ~task ~k ~from =
  let last = window_last t ~task ~k in
  if from > last then 0 else last - from + 1
