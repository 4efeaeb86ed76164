(* A brute-force decision of MGRTS-ID on an identical platform, written
   from the paper's constraints alone, as the oracle of the flow's
   tiny-instance differential (n <= 4, m <= 2, T <= 12):

   - (2) task i runs at slot t only inside one of its windows
     I_{i,k} = [O_i + k·T_i, O_i + k·T_i + D_i), folded mod T;
   - (3) each processor runs at most one task per slot, and (4) a task
     runs on at most one processor per slot: so each slot runs a set of
     at most m distinct tasks, laid out on processors in any order;
   - (5) every job receives exactly C_i units inside its window.

   It tries, slot by slot, every such set, and shares no code with the
   flow, [Windows] or [Jobmap]. *)

open Rt_model

let feasible ts ~m =
  let n = Taskset.size ts and horizon = Taskset.hyperperiod ts in
  (* job.(i).(t): the job of task i whose window holds slot t, or -1. *)
  let job = Array.make_matrix n horizon (-1) in
  let units = ref [] and cells = ref [] and count = ref 0 in
  for i = 0 to n - 1 do
    let task = Taskset.task ts i in
    for k = 0 to (horizon / task.period) - 1 do
      let release = (task.offset mod task.period) + (k * task.period) in
      for d = 0 to task.deadline - 1 do
        job.(i).((release + d) mod horizon) <- !count
      done;
      units := task.wcet :: !units;
      cells := task.deadline :: !cells;
      incr count
    done
  done;
  (* Units each job still needs, and window slots it has left. *)
  let need = Array.of_list (List.rev !units) and left = Array.of_list (List.rev !cells) in
  (* need.(g) <= left.(g) throughout, so every job has received exactly
     its C units once its window has passed. *)
  let rec slot t =
    t = horizon
    ||
    let rec choose running = function
      | [] -> slot (t + 1)
      | i :: rest ->
        let g = job.(i).(t) in
        let run () =
          need.(g) > 0 && running < m
          && begin
               need.(g) <- need.(g) - 1;
               left.(g) <- left.(g) - 1;
               let ok = choose (running + 1) rest in
               need.(g) <- need.(g) + 1;
               left.(g) <- left.(g) + 1;
               ok
             end
        and idle () =
          need.(g) < left.(g)
          && begin
               left.(g) <- left.(g) - 1;
               let ok = choose running rest in
               left.(g) <- left.(g) + 1;
               ok
             end
        in
        run () || idle ()
    in
    choose 0 (List.filter (fun i -> job.(i).(t) >= 0) (List.init n Fun.id))
  in
  slot 0
