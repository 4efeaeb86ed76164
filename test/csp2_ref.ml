open Prelude
open Rt_model

type stats = {
  nodes : int;
  fails : int;
  max_time_reached : int;
  time_s : float;
}

(* One decision point per time slot.  Availability, urgency and the free
   list are recomputed from [rem] on every visit (they are O(n) to derive
   and storing them per frame would cost O(n·T) memory on Table IV-sized
   instances); only the undo set and the combination cursor persist. *)
type frame = {
  mutable time : int;
  applied : Bitset.t;  (* task ids scheduled at this slot *)
  mutable has_applied : bool;
  mutable combo : int array;  (* indices into the free list *)
  mutable fresh : bool;  (* first combination not yet emitted *)
}

type search = {
  jm : Jobmap.t;
  m : int;
  horizon : int;
  n : int;
  rem : int array;  (* per global job: units still owed *)
  by_rank : int array;  (* rank -> task id *)
  deadline : int array;
  urgency : bool;  (* forced inclusion of zero-laxity tasks (Section V-C3) *)
  budget : Timer.budget;
  mutable nodes : int;
  mutable fails : int;
  mutable max_time : int;
}

(* Remaining window slots of job (task, k) at sweep position [t], counting
   both parts of a wrapped window (head slots are swept first but belong to
   the same cyclic job as the tail). *)
let remaining_slots s ~task ~k ~t =
  let release = Jobmap.release s.jm ~task ~k in
  let last = release + s.deadline.(task) - 1 in
  if last < s.horizon then last - t + 1
  else begin
    (* Wrapped: head covers [0, last - T], tail covers [release, T-1]. *)
    let head_end = last - s.horizon in
    if t <= head_end then head_end - t + 1 + (s.horizon - release) else s.horizon - t
  end

let to_stats ~backend (st : stats) =
  Telemetry.Stats.make ~backend ~nodes:st.nodes ~fails:st.fails ~depth:st.max_time_reached
    ~time_s:st.time_s ()

type step = Applied | Exhausted | Stopped

let undo s f =
  if f.has_applied then begin
    Bitset.iter
      (fun i ->
        let g = Jobmap.global_job_at s.jm ~task:i ~time:f.time in
        s.rem.(g) <- s.rem.(g) + 1)
      f.applied;
    Bitset.clear f.applied;
    f.has_applied <- false
  end

(* Without urgency propagation, the only failure signal is a window
   closing unfinished: any available task whose job's last sweep slot is
   [t] must have been completed by the chosen subset. *)
let expiry_ok s ~avail =
  List.for_all
    (fun ((_ : int), (_ : int), g, slots_left) -> slots_left > 1 || s.rem.(g) = 0)
    avail

let advance s f =
  let t = f.time in
  undo s f;
  (* Availability in heuristic order; urgency classification. *)
  let urgent = ref [] and free = ref [] in
  let n_urgent = ref 0 and n_free = ref 0 in
  let avail = ref [] in
  for r = s.n - 1 downto 0 do
    let i = s.by_rank.(r) in
    let k = Jobmap.local_job_at s.jm ~task:i ~time:t in
    if k >= 0 then begin
      let g = Jobmap.first_of_task s.jm i + k in
      if s.rem.(g) > 0 then begin
        let slots_left = remaining_slots s ~task:i ~k ~t in
        avail := (i, k, g, slots_left) :: !avail;
        if s.urgency then begin
          assert (s.rem.(g) <= slots_left);
          if s.rem.(g) = slots_left then begin
            urgent := i :: !urgent;
            incr n_urgent
          end
          else begin
            free := i :: !free;
            incr n_free
          end
        end
        else begin
          (* No urgency forcing: every available task is a free choice. *)
          free := i :: !free;
          incr n_free
        end
      end
    end
  done;
  let q = Int.min s.m (!n_urgent + !n_free) in
  if !n_urgent > q then begin
    (* Urgency overload: no subset of this slot can work. *)
    s.fails <- s.fails + 1;
    Exhausted
  end
  else begin
    let k = q - !n_urgent in
    let free_arr = Array.of_list !free in
    let schedule i =
      let g = Jobmap.global_job_at s.jm ~task:i ~time:t in
      s.rem.(g) <- s.rem.(g) - 1;
      Bitset.add f.applied i
    in
    (* Iterate combinations until one passes the post-checks.  Without
       urgency propagation this loop can reject C(n_free, k) subsets in a
       single [advance] call, so the budget must be polled here: the outer
       search loop alone would let one call run arbitrarily past the wall
       limit.  The check fires on every 256th node — tested on each
       increment, so it cannot be skipped over — plus a per-node atomic
       read of the stop flag for prompt cross-domain cancellation. *)
    let rec attempt () =
      let next_ok =
        if f.fresh then begin
          f.combo <- Array.init k Fun.id;
          f.fresh <- false;
          true
        end
        else k > 0 && Combi.next ~n:!n_free f.combo
      in
      if not next_ok then begin
        s.fails <- s.fails + 1;
        Exhausted
      end
      else begin
        List.iter schedule !urgent;
        Array.iter (fun idx -> schedule free_arr.(idx)) f.combo;
        f.has_applied <- true;
        s.nodes <- s.nodes + 1;
        if
          Timer.cancelled s.budget
          || (s.nodes land 255 = 0 && Timer.exceeded s.budget ~nodes:s.nodes)
        then begin
          undo s f;
          Stopped
        end
        else if s.urgency || expiry_ok s ~avail:!avail then Applied
        else begin
          (* A window closed unfinished: reject this subset locally. *)
          s.fails <- s.fails + 1;
          undo s f;
          attempt ()
        end
      end
    in
    attempt ()
  end

let build_schedule s frames depth =
  let sched = Schedule.create ~m:s.m ~horizon:s.horizon in
  for d = 0 to depth - 1 do
    let f = frames.(d) in
    (* Symmetry rule (10): idle processors first, then tasks ascending. *)
    let tasks = Bitset.elements f.applied in
    let q = List.length tasks in
    List.iteri (fun pos i -> Schedule.set sched ~proc:(s.m - q + pos) ~time:f.time i) tasks
  done;
  sched

let solve ?(heuristic = Heuristic.DC) ?(budget = Timer.unlimited) ?(urgency = true) ts ~m =
  if m < 1 then invalid_arg "Csp2.Solver.solve: m must be >= 1";
  let t0 = Timer.start () in
  let jm = Jobmap.create ts in
  let n = Taskset.size ts in
  let horizon = Jobmap.horizon jm in
  let wcet = Array.init n (fun i -> (Taskset.task ts i).wcet) in
  let deadline = Array.init n (fun i -> (Taskset.task ts i).deadline) in
  let rem = Array.make (Jobmap.job_count jm) 0 in
  for i = 0 to n - 1 do
    let base = Jobmap.first_of_task jm i in
    for k = 0 to Jobmap.jobs_of_task jm i - 1 do
      rem.(base + k) <- wcet.(i)
    done
  done;
  let s =
    {
      jm;
      m;
      horizon;
      n;
      rem;
      by_rank = Heuristic.order heuristic ts;
      deadline;
      urgency;
      budget;
      nodes = 0;
      fails = 0;
      max_time = 0;
    }
  in
  let stats () =
    { nodes = s.nodes; fails = s.fails; max_time_reached = s.max_time; time_s = Timer.elapsed t0 }
  in
  let new_frame time =
    { time; applied = Bitset.create n; has_applied = false; combo = [||]; fresh = true }
  in
  (* Explicit stack: recursion depth would be the hyperperiod.  Each cell
     gets its own frame — [Array.make] would seed every cell with the
     *same* record, and two live depths sharing one [applied] bitset would
     corrupt [undo].  (The old code masked this by overwriting each cell
     with a fresh frame before use; per-cell init plus [reset_frame] keeps
     the invariant explicit and drops the per-descent allocation.) *)
  let frames = Array.init (horizon + 1) (fun _ -> new_frame 0) in
  let reset_frame f time =
    f.time <- time;
    Bitset.clear f.applied;
    f.has_applied <- false;
    f.combo <- [||];
    f.fresh <- true
  in
  let depth = ref 1 in
  let outcome = ref None in
  while !outcome = None do
    if !depth = 0 then outcome := Some Encodings.Outcome.Infeasible
    else if
      (if s.nodes land 255 = 0 then begin
         Resilience.Failpoint.hit "csp2.node";
         Telemetry.heartbeat ~name:"csp2" ~nodes:s.nodes ~fails:s.fails ~depth:s.max_time
       end;
       Timer.nodes_exceeded budget ~nodes:s.nodes
       || Timer.cancelled budget
       || (s.nodes land 255 = 0 && Timer.exceeded budget ~nodes:s.nodes))
    then outcome := Some Encodings.Outcome.Limit
    else begin
      let f = frames.(!depth - 1) in
      match advance s f with
      | Exhausted -> decr depth
      | Stopped -> outcome := Some Encodings.Outcome.Limit
      | Applied ->
        if f.time > s.max_time then s.max_time <- f.time;
        if f.time + 1 = horizon then
          outcome := Some (Encodings.Outcome.Feasible (build_schedule s frames !depth))
        else begin
          reset_frame frames.(!depth) (f.time + 1);
          incr depth
        end
    end
  done;
  (match !outcome with Some o -> (o, stats ()) | None -> assert false)
