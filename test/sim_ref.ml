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

type state = {
  ts : Taskset.t;
  m : int;
  policy : policy;
  cur_job : int array;
  rem : int array;
  mutable misses_rev : miss list;
  mutable nmisses : int;
  mutable busy : int;
  mutable cells : int array;  (* flattened [slot*m + proc], grown on demand *)
}

let ensure_capacity st upto =
  let needed = upto * st.m in
  if needed > Array.length st.cells then begin
    let bigger = Array.make (max needed (2 * Array.length st.cells)) Schedule.idle in
    Array.blit st.cells 0 bigger 0 (Array.length st.cells);
    st.cells <- bigger
  end

(* Simulate one slot. *)
let step st t =
  let n = Taskset.size st.ts in
  ensure_capacity st (t + 1);
  for i = 0 to n - 1 do
    let task = Taskset.task st.ts i in
    (* Deadline check BEFORE the release: with D = T the old job's deadline
       coincides with the next release instant, and processing the release
       first would silently overwrite the unfinished job. *)
    if st.cur_job.(i) >= 0 && st.rem.(i) > 0 then begin
      let dl = Task.abs_deadline task st.cur_job.(i) in
      if t >= dl then begin
        if st.nmisses < 16 then
          st.misses_rev <- { task = i; job = st.cur_job.(i); at = t } :: st.misses_rev;
        st.nmisses <- st.nmisses + 1;
        st.rem.(i) <- 0 (* drop the job; keep simulating to find later misses *)
      end
    end;
    if t >= task.offset && (t - task.offset) mod task.period = 0 then begin
      st.cur_job.(i) <- (t - task.offset) / task.period;
      st.rem.(i) <- task.wcet
    end
  done;
  let pending = ref [] in
  for i = n - 1 downto 0 do
    if st.cur_job.(i) >= 0 && st.rem.(i) > 0 then pending := i :: !pending
  done;
  let weight i =
    let task = Taskset.task st.ts i in
    match st.policy with
    | EDF -> Task.abs_deadline task st.cur_job.(i)
    | LLF -> Task.abs_deadline task st.cur_job.(i) - t - st.rem.(i)
    | Fixed_priority ranks -> ranks.(i)
  in
  let sorted =
    List.sort
      (fun a b ->
        let wa = weight a and wb = weight b in
        if wa <> wb then Int.compare wa wb else Int.compare a b)
      !pending
  in
  List.iteri
    (fun pos i ->
      if pos < st.m then begin
        st.cells.((t * st.m) + pos) <- i;
        st.rem.(i) <- st.rem.(i) - 1;
        st.busy <- st.busy + 1
      end)
    sorted

(* Jobs pending at the end with deadlines inside the simulated window. *)
let flush_tail_misses st horizon =
  let n = Taskset.size st.ts in
  for i = 0 to n - 1 do
    if st.cur_job.(i) >= 0 && st.rem.(i) > 0 then begin
      let dl = Task.abs_deadline (Taskset.task st.ts i) st.cur_job.(i) in
      if dl <= horizon then begin
        if st.nmisses < 16 then
          st.misses_rev <- { task = i; job = st.cur_job.(i); at = dl } :: st.misses_rev;
        st.nmisses <- st.nmisses + 1
      end
    end
  done

let grid_of st horizon =
  let cells =
    Array.init st.m (fun j -> Array.init horizon (fun t -> st.cells.((t * st.m) + j)))
  in
  Schedule.of_cells cells

let finish st ~horizon ~exact =
  flush_tail_misses st horizon;
  {
    ok = st.nmisses = 0;
    exact;
    misses = List.rev st.misses_rev;
    grid = grid_of st horizon;
    busy = st.busy;
  }

let make_state ts ~m ~policy =
  let n = Taskset.size ts in
  {
    ts;
    m;
    policy;
    cur_job = Array.make n (-1);
    rem = Array.make n 0;
    misses_rev = [];
    nmisses = 0;
    busy = 0;
    cells = Array.make (1024 * m) Schedule.idle;
  }

let max_slots = 10_000_000

let run ?horizon ?(policy = EDF) ?(max_hyperperiods = 64) ts ~m =
  if m < 1 then invalid_arg "Sim.run: m must be >= 1";
  if not (Taskset.is_constrained ts) then
    invalid_arg "Sim.run: arbitrary-deadline task set (apply Clone.transform first)";
  let n = Taskset.size ts in
  (match policy with
  | Fixed_priority ranks ->
    if Array.length ranks <> n then invalid_arg "Sim.run: priority array arity"
  | EDF | LLF -> ());
  let hp = Taskset.hyperperiod ts in
  let omax =
    Array.fold_left (fun acc (t : Task.t) -> max acc t.offset) 0 (Taskset.tasks ts)
  in
  let st = make_state ts ~m ~policy in
  match horizon with
  | Some h ->
    if h > max_slots then invalid_arg "Sim.run: horizon too large";
    for t = 0 to h - 1 do
      step st t
    done;
    (* A fixed window decides misses inside it, nothing beyond. *)
    finish st ~horizon:h ~exact:(st.nmisses > 0)
  | None ->
    (* Adaptive: simulate hyperperiod chunks past O_max until the scheduler
       state repeats at chunk boundaries.  Deterministic memoryless
       policies then repeat forever, so the verdict is exact.  A growing
       backlog (utilization above capacity) never repeats, but then a miss
       must eventually occur and stops us; the [max_hyperperiods] cap is a
       safety net (verdict flagged inexact). *)
    let snapshot () = Array.copy st.rem in
    let t = ref 0 in
    let simulate_until bound =
      while !t < bound do
        step st !t;
        incr t
      done
    in
    simulate_until (omax + hp);
    let prev = ref (snapshot ()) in
    let exact = ref false in
    let chunks = ref 1 in
    let continue_ = ref true in
    while !continue_ do
      if st.nmisses > 0 then begin
        (* Miss found: definitive. *)
        exact := true;
        continue_ := false
      end
      else if !chunks >= max_hyperperiods || (!t + hp) * m > max_slots then begin
        exact := false;
        continue_ := false
      end
      else begin
        simulate_until (!t + hp);
        incr chunks;
        let now = snapshot () in
        if now = !prev && st.nmisses = 0 then begin
          exact := true;
          continue_ := false
        end
        else prev := now
      end
    done;
    finish st ~horizon:!t ~exact:!exact
