open Rt_model

type outcome = Schedule of Schedule.t | Cut of Certificate.t | Stopped

(* The network.  Job g of task i, number k, is released at
   offset.(i) + k·period.(i) < T (the offset folded mod the period: the
   cyclic pattern depends only on O mod T_i) and owns the window cells
   first_cell.(i) + k·deadline.(i) + d for d < D, cell d being slot
   (release + d) mod T.  The flow on a job→slot edge is its cell's byte;
   the flows on the source and sink edges are [served] and [load]. *)
type net = {
  m : int;
  horizon : int;
  n : int;
  offset : int array;
  wcet : int array;
  deadline : int array;
  period : int array;
  first_job : int array;
  first_cell : int array;
  job_task : int array;
  served : int array;
  load : int array;
  cell : Bytes.t;
  job_level : int array;
  slot_level : int array;
  mutable sink_level : int;
  job_arc : int array;  (* next window cell to try *)
  slot_arc : int array;  (* next task to try *)
  queue : int array;  (* jobs as g, slots as jobs + t *)
  path : int array;  (* job, slot, job, slot, … *)
}

let create ts ~m =
  let n = Taskset.size ts and horizon = Taskset.hyperperiod ts in
  let tasks = Taskset.tasks ts in
  let field f = Array.map f tasks in
  let period = field (fun (t : Task.t) -> t.period) in
  let deadline = field (fun (t : Task.t) -> t.deadline) in
  let first_job = Array.make (n + 1) 0 and first_cell = Array.make n 0 in
  for i = 0 to n - 1 do
    let count = horizon / period.(i) in
    first_job.(i + 1) <- first_job.(i) + count;
    if i + 1 < n then first_cell.(i + 1) <- first_cell.(i) + (count * deadline.(i))
  done;
  let jobs = first_job.(n) in
  let cells = first_cell.(n - 1) + (horizon / period.(n - 1) * deadline.(n - 1)) in
  let job_task = Array.make jobs 0 in
  for i = 0 to n - 1 do
    Array.fill job_task first_job.(i) (first_job.(i + 1) - first_job.(i)) i
  done;
  {
    m;
    horizon;
    n;
    offset = field (fun (t : Task.t) -> t.offset mod t.period);
    wcet = field (fun (t : Task.t) -> t.wcet);
    deadline;
    period;
    first_job;
    first_cell;
    job_task;
    served = Array.make jobs 0;
    load = Array.make horizon 0;
    cell = Bytes.make cells '\000';
    job_level = Array.make jobs (-1);
    slot_level = Array.make horizon (-1);
    sink_level = max_int;
    job_arc = Array.make jobs 0;
    slot_arc = Array.make horizon 0;
    queue = Array.make (jobs + horizon) 0;
    path = Array.make (jobs + horizon + 1) 0;
  }

let jobs net = Array.length net.job_task

let release net g =
  let i = net.job_task.(g) in
  net.offset.(i) + ((g - net.first_job.(i)) * net.period.(i))

let base net g =
  let i = net.job_task.(g) in
  net.first_cell.(i) + ((g - net.first_job.(i)) * net.deadline.(i))

(* Slot of window cell d of a job released at [r]: r + d < 2T. *)
let slot net r d =
  let s = r + d in
  if s >= net.horizon then s - net.horizon else s

(* The cell of task i's job whose window holds slot t, or -1; the job is
   then [cover_job]. *)
let cover_cell net i t =
  let u = t - net.offset.(i) in
  let u = if u < 0 then u + net.horizon else u in
  let k = u / net.period.(i) in
  let d = u - (k * net.period.(i)) in
  if d < net.deadline.(i) then net.first_cell.(i) + (k * net.deadline.(i)) + d else -1

let cover_job net i t =
  let u = t - net.offset.(i) in
  let u = if u < 0 then u + net.horizon else u in
  net.first_job.(i) + (u / net.period.(i))

let used net c = Bytes.unsafe_get net.cell c <> '\000'
let set_used net c v = Bytes.unsafe_set net.cell c (if v then '\001' else '\000')

(* The level graph of the residual network.  Jobs sit at odd levels,
   slots at even ones; the sink's level is one past the first slot with
   spare capacity, and nothing at or past it is expanded.  Returns
   whether the sink was reached; [work] counts what was scanned. *)
let levels net work =
  let nj = jobs net in
  Array.fill net.job_level 0 nj (-1);
  Array.fill net.slot_level 0 net.horizon (-1);
  net.sink_level <- max_int;
  let head = ref 0 and tail = ref 0 in
  for g = 0 to nj - 1 do
    if net.served.(g) < net.wcet.(net.job_task.(g)) then begin
      net.job_level.(g) <- 1;
      net.queue.(!tail) <- g;
      incr tail
    end
  done;
  while !head < !tail do
    let v = net.queue.(!head) in
    incr head;
    incr work;
    if v < nj then begin
      let level = net.job_level.(v) in
      if level + 1 < net.sink_level then begin
        let r = release net v and b = base net v in
        for d = 0 to net.deadline.(net.job_task.(v)) - 1 do
          let t = slot net r d in
          if (not (used net (b + d))) && net.slot_level.(t) < 0 then begin
            net.slot_level.(t) <- level + 1;
            net.queue.(!tail) <- nj + t;
            incr tail
          end
        done;
        work := !work + net.deadline.(net.job_task.(v))
      end
    end
    else begin
      let t = v - nj in
      let level = net.slot_level.(t) in
      if net.load.(t) < net.m && level + 1 < net.sink_level then net.sink_level <- level + 1;
      if level + 1 < net.sink_level then begin
        for i = 0 to net.n - 1 do
          let c = cover_cell net i t in
          if c >= 0 && used net c then begin
            let g = cover_job net i t in
            if net.job_level.(g) < 0 then begin
              net.job_level.(g) <- level + 1;
              net.queue.(!tail) <- g;
              incr tail
            end
          end
        done;
        work := !work + net.n
      end
    end
  done;
  net.sink_level < max_int

(* The next usable arc of a job: a free cell whose slot is one level up. *)
let rec next_slot net g work =
  let a = net.job_arc.(g) in
  let i = net.job_task.(g) in
  if a >= net.deadline.(i) then -1
  else begin
    incr work;
    let t = slot net (release net g) a in
    if (not (used net (base net g + a))) && net.slot_level.(t) = net.job_level.(g) + 1 then t
    else begin
      net.job_arc.(g) <- a + 1;
      next_slot net g work
    end
  end

(* The next usable reverse arc of a slot: a job running there, one level
   up and short of the sink's level. *)
let rec next_job net t work =
  let a = net.slot_arc.(t) in
  let level = net.slot_level.(t) in
  if a >= net.n || level + 1 >= net.sink_level then -1
  else begin
    incr work;
    let c = cover_cell net a t in
    if c >= 0 && used net c && net.job_level.(cover_job net a t) = level + 1 then
      cover_job net a t
    else begin
      net.slot_arc.(t) <- a + 1;
      next_job net t work
    end
  end

(* Move one unit along the path ending at slot [path.(depth)]: every
   job→slot arc on it gains the unit, every slot→job arc gives it back,
   and each saturated arc is left behind by its owner's arc pointer. *)
let push net depth =
  let path = net.path in
  for k = 0 to depth do
    let v = path.(k) in
    if k land 1 = 0 then begin
      set_used net (base net v + net.job_arc.(v)) true;
      net.job_arc.(v) <- net.job_arc.(v) + 1
    end
    else if k < depth then begin
      let i = net.slot_arc.(v) in
      set_used net (cover_cell net i v) false;
      net.slot_arc.(v) <- i + 1
    end
  done;
  let g = path.(0) in
  net.served.(g) <- net.served.(g) + 1;
  let t = path.(depth) in
  net.load.(t) <- net.load.(t) + 1

(* One augmenting path in the level graph from the job at [path.(0)],
   by a depth-first search that removes dead ends from the graph as it
   backs out of them.  Tail calls only, so it runs in constant stack. *)
let rec augment net work depth =
  incr work;
  let path = net.path in
  let v = path.(depth) in
  if depth land 1 = 0 then begin
    let t = next_slot net v work in
    if t >= 0 then begin
      path.(depth + 1) <- t;
      augment net work (depth + 1)
    end
    else begin
      net.job_level.(v) <- -1;
      if depth = 0 then false
      else begin
        let t = path.(depth - 1) in
        net.slot_arc.(t) <- net.slot_arc.(t) + 1;
        augment net work (depth - 1)
      end
    end
  end
  else if net.slot_level.(v) + 1 = net.sink_level && net.load.(v) < net.m then begin
    push net depth;
    true
  end
  else begin
    let g = next_job net v work in
    if g >= 0 then begin
      path.(depth + 1) <- g;
      augment net work (depth + 1)
    end
    else begin
      net.slot_level.(v) <- -1;
      let g = path.(depth - 1) in
      net.job_arc.(g) <- net.job_arc.(g) + 1;
      augment net work (depth - 1)
    end
  end

(* A blocking flow of the level graph; returns the units pushed. *)
let blocking net work =
  Array.fill net.job_arc 0 (jobs net) 0;
  Array.fill net.slot_arc 0 net.horizon 0;
  let pushed = ref 0 in
  for g = 0 to jobs net - 1 do
    while
      net.job_level.(g) = 1
      && net.served.(g) < net.wcet.(net.job_task.(g))
      && begin
           net.path.(0) <- g;
           augment net work 0
         end
    do
      incr pushed
    done
  done;
  !pushed

(* The max flow laid out slot by slot: the tasks running at t take
   processors load.(t) − 1 down to 0. *)
let schedule net =
  let sched = Schedule.create ~m:net.m ~horizon:net.horizon in
  for g = 0 to jobs net - 1 do
    let r = release net g and b = base net g in
    for d = 0 to net.deadline.(net.job_task.(g)) - 1 do
      if used net (b + d) then begin
        let t = slot net r d in
        net.load.(t) <- net.load.(t) - 1;
        Schedule.set sched ~proc:net.load.(t) ~time:t net.job_task.(g)
      end
    done
  done;
  sched

(* The jobs the last level graph reached from the source: the source
   side of a min cut.  Their demand exceeds Σ_t min(m, jobs of the set
   whose window holds t), which is what the Hall step states. *)
let cut net =
  let count = net.slot_arc in
  Array.fill count 0 net.horizon 0;
  let demand = ref 0 and members = ref [] in
  for g = jobs net - 1 downto 0 do
    if net.job_level.(g) >= 0 then begin
      let i = net.job_task.(g) in
      demand := !demand + net.wcet.(i);
      members := (i, g - net.first_job.(i)) :: !members;
      let r = release net g in
      for d = 0 to net.deadline.(i) - 1 do
        let t = slot net r d in
        count.(t) <- count.(t) + 1
      done
    end
  done;
  let supply = Array.fold_left (fun acc c -> acc + Int.min net.m c) 0 count in
  {
    Certificate.m = net.m;
    steps = [ Certificate.Hall { jobs = !members; demand = !demand; supply } ];
  }

let solve ~spend ts ~m =
  if m < 1 then invalid_arg "Flow.solve: m must be >= 1";
  if not (Taskset.is_constrained ts) then
    invalid_arg "Flow.solve: arbitrary-deadline task set (reduce with Clone first)";
  let net = create ts ~m in
  let demand = Taskset.total_demand ts in
  let rec phase flow =
    if flow = demand then Schedule (schedule net)
    else begin
      let work = ref 0 in
      let reached = levels net work in
      let pushed = if reached then blocking net work else 0 in
      if not (spend !work) then Stopped
      else if not reached then Cut (cut net)
      else phase (flow + pushed)
    end
  in
  phase 0
