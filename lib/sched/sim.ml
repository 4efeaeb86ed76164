open Rt_model

type policy = EDF | LLF | Fixed_priority of int array

type miss = { task : int; job : int; at : int }

type result = {
  ok : bool;
  exact : bool;
  misses : miss list;
  grid : Schedule.t;
  busy : int;
}

let ranks_by ts key =
  let n = Taskset.size ts in
  let ids = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      let ka = key (Taskset.task ts a) and kb = key (Taskset.task ts b) in
      if ka <> kb then Int.compare ka kb else Int.compare a b)
    ids;
  let ranks = Array.make n 0 in
  Array.iteri (fun pos id -> ranks.(id) <- pos) ids;
  ranks

let rm_priorities ts = ranks_by ts (fun (t : Task.t) -> t.period)
let dm_priorities ts = ranks_by ts (fun (t : Task.t) -> t.deadline)

let max_slots = 10_000_000
let default_max_hyperperiods = 64

(* The scheduler state.  Every array is allocated once per run; the step
   kernel only reads and writes them. *)
type state = {
  tasks : Task.t array;
  m : int;
  policy : policy;
  cur_job : int array;  (* latest job of each task, -1 before its first release *)
  rem : int array;  (* that job's unserved units, 0 once served or dropped *)
  deadline : int array;  (* that job's absolute deadline *)
  next_release : int array;
  order : int array;  (* the slot's pending tasks, most urgent first *)
  key : int array;  (* their priority keys *)
  picked : int array;  (* the slot's cells: [picked.(p)] runs on processor p *)
  mutable misses_rev : miss list;
  mutable nmisses : int;
  mutable busy : int;
}

let make_state ts ~m ~policy =
  let tasks = Taskset.tasks ts in
  let n = Array.length tasks in
  {
    tasks;
    m;
    policy;
    cur_job = Array.make n (-1);
    rem = Array.make n 0;
    deadline = Array.make n 0;
    next_release = Array.map (fun (t : Task.t) -> t.offset) tasks;
    order = Array.make n 0;
    key = Array.make n 0;
    picked = Array.make m Schedule.idle;
    misses_rev = [];
    nmisses = 0;
    busy = 0;
  }

let record_miss st ~task ~at =
  if st.nmisses < 16 then
    st.misses_rev <- { task; job = st.cur_job.(task); at } :: st.misses_rev;
  st.nmisses <- st.nmisses + 1

(* The step kernel: simulate slot [t], for t = 0, 1, 2, ... in turn.  One
   pass over the tasks checks deadlines, releases jobs and insertion-sorts
   the pending ones into [order] by (priority, task id); the first m run,
   and slot t's cells are left in [picked].  Allocates nothing but miss
   records. *)
let step st t =
  let rem = st.rem and deadline = st.deadline and order = st.order and key = st.key in
  let pending = ref 0 in
  for i = 0 to Array.length st.tasks - 1 do
    (* Deadline check BEFORE the release: with D = T the old job's deadline
       coincides with the next release instant, and processing the release
       first would silently overwrite the unfinished job. *)
    if rem.(i) > 0 && t >= deadline.(i) then begin
      record_miss st ~task:i ~at:t;
      rem.(i) <- 0 (* drop the job; keep simulating to find later misses *)
    end;
    if t = st.next_release.(i) then begin
      let task = st.tasks.(i) in
      st.cur_job.(i) <- st.cur_job.(i) + 1;
      rem.(i) <- task.wcet;
      deadline.(i) <- t + task.deadline;
      st.next_release.(i) <- t + task.period
    end;
    if rem.(i) > 0 then begin
      (* Smaller runs first.  Tasks arrive in id order, so stopping at an
         equal key keeps ties by id. *)
      let k =
        match st.policy with
        | EDF -> deadline.(i)
        | LLF -> deadline.(i) - t - rem.(i)
        | Fixed_priority ranks -> ranks.(i)
      in
      let j = ref !pending in
      while !j > 0 && key.(!j - 1) > k do
        key.(!j) <- key.(!j - 1);
        order.(!j) <- order.(!j - 1);
        decr j
      done;
      key.(!j) <- k;
      order.(!j) <- i;
      incr pending
    end
  done;
  let running = Int.min st.m !pending in
  for p = 0 to running - 1 do
    let i = order.(p) in
    st.picked.(p) <- i;
    rem.(i) <- rem.(i) - 1
  done;
  Array.fill st.picked running (st.m - running) Schedule.idle;
  st.busy <- st.busy + running

(* Jobs pending at the end with deadlines inside the simulated window. *)
let flush_tail_misses st horizon =
  Array.iteri
    (fun i rem ->
      if rem > 0 && st.deadline.(i) <= horizon then record_miss st ~task:i ~at:st.deadline.(i))
    st.rem

let same_backlog a b =
  let rec go i = i < 0 || (a.(i) = b.(i) && go (i - 1)) in
  go (Array.length a - 1)

(* Adaptive window: O_max + H slots, then hyperperiod chunks until the
   per-task backlog at a chunk boundary equals the one a chunk earlier.
   Deterministic memoryless policies then repeat forever, so the verdict
   is exact.  A growing backlog (utilization above capacity) never
   repeats, but then a miss must eventually occur and stops us, also
   exactly.  Otherwise the run stops inexact at [max_hyperperiods]
   chunks, at [max_slots] cells, or when [poll ()] says so.  With
   [halt_on_miss] a miss stops the run at once instead of at the end of
   its chunk.  [emit t] stores slot t's cells.  Returns the simulated
   length and whether the verdict is exact. *)
let adaptive st ~omax ~hp ~max_hyperperiods ~halt_on_miss ~poll ~emit =
  let t = ref 0 in
  let simulate_until bound =
    while !t < bound && not (halt_on_miss && st.nmisses > 0) do
      step st !t;
      emit !t;
      incr t
    done
  in
  let prev = Array.copy st.rem in
  let rec chunk k =
    if st.nmisses > 0 then (!t, true)
    else if k >= max_hyperperiods || (!t + hp) * st.m > max_slots || poll () then (!t, false)
    else begin
      Array.blit st.rem 0 prev 0 (Array.length prev);
      simulate_until (!t + hp);
      if st.nmisses = 0 && same_backlog st.rem prev then (!t, true) else chunk (k + 1)
    end
  in
  if poll () then (0, false)
  else begin
    simulate_until (omax + hp);
    chunk 1
  end

(* Whether the first adaptive window, O_max + H slots of m cells, fits
   the cell cap; the products are never formed, so they cannot wrap. *)
let window_fits ~omax ~hp ~m =
  let slots = max_slots / m in
  hp <= slots && omax <= slots - hp

let max_offset ts =
  Array.fold_left (fun acc (t : Task.t) -> Int.max acc t.offset) 0 (Taskset.tasks ts)

let check_args name ts ~m =
  if m < 1 then invalid_arg (name ^ ": m must be >= 1");
  if not (Taskset.is_constrained ts) then
    invalid_arg (name ^ ": arbitrary-deadline task set (apply Clone.transform first)")

let grid_of cells ~m ~horizon =
  Schedule.of_cells (Array.init m (fun j -> Array.init horizon (fun t -> cells.((t * m) + j))))

let run ?horizon ?(policy = EDF) ?(max_hyperperiods = default_max_hyperperiods) ts ~m =
  check_args "Sim.run" ts ~m;
  (match policy with
  | Fixed_priority ranks ->
    if Array.length ranks <> Taskset.size ts then invalid_arg "Sim.run: priority array arity"
  | EDF | LLF -> ());
  let st = make_state ts ~m ~policy in
  (* Flattened [slot*m + proc]. *)
  let cells = ref [||] in
  let store t =
    let base = t * m in
    for p = 0 to m - 1 do
      !cells.(base + p) <- st.picked.(p)
    done
  in
  let horizon, exact =
    match horizon with
    | Some h ->
      if h > max_slots then invalid_arg "Sim.run: horizon too large";
      cells := Array.make (Int.max 0 h * m) Schedule.idle;
      for t = 0 to h - 1 do
        step st t;
        store t
      done;
      (* A fixed window decides misses inside it, nothing beyond. *)
      (h, st.nmisses > 0)
    | None ->
      let hp = Taskset.hyperperiod ts and omax = max_offset ts in
      if not (window_fits ~omax ~hp ~m) then invalid_arg "Sim.run: horizon too large";
      cells := Array.make ((omax + hp) * m) Schedule.idle;
      (* Later chunks grow the grid; the chunk check keeps it within the
         cap. *)
      let emit t =
        let len = Array.length !cells in
        if (t + 1) * m > len then begin
          let bigger = Array.make (Int.min max_slots (2 * len)) Schedule.idle in
          Array.blit !cells 0 bigger 0 len;
          cells := bigger
        end;
        store t
      in
      adaptive st ~omax ~hp ~max_hyperperiods ~halt_on_miss:false ~poll:(fun () -> false) ~emit
  in
  flush_tail_misses st horizon;
  {
    ok = st.nmisses = 0;
    exact;
    misses = List.rev st.misses_rev;
    grid = grid_of !cells ~m ~horizon;
    busy = st.busy;
  }

let grid_slot : int Prelude.Scratch.slot = Prelude.Scratch.slot ()

let llf_witness ~budget ts ~m =
  check_args "Sim.llf_witness" ts ~m;
  let hp = Taskset.hyperperiod ts and omax = max_offset ts in
  if not (window_fits ~omax ~hp ~m) then None
  else begin
    let st = make_state ts ~m ~policy:LLF in
    (* Processor p's cell of slot t lands at p·H + t mod H: when the run
       ends, the grid holds its last hyperperiod, folded.  Slots arrive in
       order, so a counter tracks t mod H.  The grid is scratch
       ({!Prelude.Scratch}); only a witness is copied out of it. *)
    let grid =
      Prelude.Scratch.take grid_slot ~keep:(Prelude.Scratch.fits (m * hp)) (m * hp) Schedule.idle
    in
    let slot = ref 0 in
    let emit _ =
      for p = 0 to m - 1 do
        grid.((p * hp) + !slot) <- st.picked.(p)
      done;
      slot := if !slot = hp - 1 then 0 else !slot + 1
    in
    let horizon, exact =
      adaptive st ~omax ~hp ~max_hyperperiods:default_max_hyperperiods ~halt_on_miss:true
        ~poll:(fun () -> Prelude.Timer.exceeded budget ~nodes:0)
        ~emit
    in
    if (not exact) || st.nmisses > 0 then None
    else begin
      flush_tail_misses st horizon;
      if st.nmisses > 0 then None
      else
        let sched = Schedule.of_cells (Array.init m (fun p -> Array.sub grid (p * hp) hp)) in
        if Verify.is_feasible ts sched then Some sched else None
    end
  end
