open Rt_model

type result = { assignment : int array; ok : bool }

let edf_schedulable tasks =
  match tasks with
  | [] -> true
  | _ ->
    let ts = Taskset.of_tasks tasks in
    (* Exact uniprocessor test: EDF is optimal on one processor, and the
       adaptive simulation only reports ok once the schedule provably
       repeats.  The utilization pre-filter avoids simulating the long
       slow-divergence of overloaded bins. *)
    let num, den = Taskset.utilization_num_den ts in
    num <= den
    &&
    if Array.for_all (fun (t : Task.t) -> t.offset = 0) (Taskset.tasks ts) then
      (* Synchronous: the analytic demand-bound test is exact and cheap. *)
      Dbf.edf_schedulable ts
    else
      let res = Sim.run ts ~m:1 ~policy:Sim.EDF in
      res.Sim.ok && res.Sim.exact

let partition ts ~m =
  let n = Taskset.size ts in
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      let da = Task.density (Taskset.task ts a) and db = Task.density (Taskset.task ts b) in
      if da <> db then Float.compare db da else Int.compare a b)
    order;
  let assignment = Array.make n (-1) in
  let bins = Array.make m [] in
  let ok = ref true in
  Array.iter
    (fun i ->
      let task = Taskset.task ts i in
      let rec place j =
        if j >= m then ok := false
        else if edf_schedulable (task :: bins.(j)) then begin
          bins.(j) <- task :: bins.(j);
          assignment.(i) <- j
        end
        else place (j + 1)
      in
      place 0)
    order;
  { assignment; ok = !ok }

let schedule ts ~m =
  let { assignment; ok } = partition ts ~m in
  if not ok then None
  else begin
    let hp = Taskset.hyperperiod ts in
    let omax = Array.fold_left (fun acc (t : Task.t) -> Int.max acc t.offset) 0 (Taskset.tasks ts) in
    let horizon = omax + (2 * hp) in
    let grid = Schedule.create ~m ~horizon in
    for j = 0 to m - 1 do
      let members =
        List.filter (fun (t : Task.t) -> assignment.(t.id) = j)
          (Array.to_list (Taskset.tasks ts))
      in
      match members with
      | [] -> ()
      | _ ->
        (* Per-processor EDF; re-map the sub-taskset ids back to the
           original ones. *)
        let back = Array.of_list (List.map (fun (t : Task.t) -> t.id) members) in
        let sub = Taskset.of_tasks members in
        let res = Sim.run ~horizon sub ~m:1 ~policy:Sim.EDF in
        for t = 0 to horizon - 1 do
          let v = Schedule.get res.Sim.grid ~proc:0 ~time:t in
          if v <> Schedule.idle then Schedule.set grid ~proc:j ~time:t back.(v)
        done
    done;
    Some grid
  end
