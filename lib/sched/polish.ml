open Rt_model

let minimize_migrations sched =
  let m = Schedule.m sched in
  let horizon = Schedule.horizon sched in
  let out = Schedule.create ~m ~horizon in
  (* last_proc.(i) = processor task i most recently ran on in the output
     (remembered across preemption gaps, not just the previous slot). *)
  let ntasks =
    let mx = ref 0 in
    for j = 0 to m - 1 do
      for t = 0 to horizon - 1 do
        mx := Int.max !mx (Schedule.get sched ~proc:j ~time:t)
      done
    done;
    !mx + 1
  in
  let last_proc = Array.make (Int.max ntasks 1) (-1) in
  let prev = Array.make m Schedule.idle in
  for time = 0 to horizon - 1 do
    let tasks = Schedule.tasks_at sched ~time in
    let placed = Array.make m Schedule.idle in
    (* Pass 1: tasks continuing from the previous slot keep their
       processor unconditionally (these are the adjacencies the migration
       metric charges directly). *)
    let rest =
      List.filter
        (fun task ->
          let p = last_proc.(task) in
          if p >= 0 && prev.(p) = task then begin
            placed.(p) <- task;
            false
          end
          else true)
        tasks
    in
    (* Pass 2: tasks resuming after a gap reclaim their remembered
       processor when it is still free. *)
    let newcomers =
      List.filter
        (fun task ->
          let p = last_proc.(task) in
          if p >= 0 && placed.(p) = Schedule.idle then begin
            placed.(p) <- task;
            false
          end
          else true)
        rest
    in
    (* Pass 3: everything else fills the free processors, ascending. *)
    let next_free = ref 0 in
    List.iter
      (fun task ->
        while placed.(!next_free) <> Schedule.idle do
          incr next_free
        done;
        placed.(!next_free) <- task)
      newcomers;
    Array.iteri
      (fun j task ->
        if task <> Schedule.idle then begin
          Schedule.set out ~proc:j ~time task;
          last_proc.(task) <- j
        end)
      placed;
    Array.blit placed 0 prev 0 m
  done;
  out
