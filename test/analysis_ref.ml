(* Reference implementations of the analyzer's interval demand-bound scan
   and EDF packing, in their direct forms: the scan recounts every job
   for every candidate (start, end) pair, and the packing scans every job
   of a processor at each unrolled slot.  Both are slow, so they serve
   only as test oracles on small instances. *)

open Prelude
open Rt_model

let overlap a b c d = Int.max 0 (Int.min b d - Int.max a c)

(* Pristine slots of a job inside the cyclic interval, in O(1): both the
   window [r, r+D) and the interval live in [0, 2T), so three interval
   copies (shifted by −T, 0, +T) cover every cyclic intersection. *)
let pristine_inside ~horizon ~release ~deadline ~start ~len =
  let r2 = release + deadline in
  overlap release r2 (start - horizon) (start + len - horizon)
  + overlap release r2 start (start + len)
  + overlap release r2 (start + horizon) (start + len + horizon)

(* Release instants and absolute deadlines folded mod T, ascending. *)
let boundary_points ts windows =
  let horizon = Windows.horizon windows in
  let starts = Array.make horizon false and ends = Array.make horizon false in
  Array.iter
    (fun (job : Windows.job) ->
      let task = Taskset.task ts job.task in
      starts.(Intmath.imod job.release horizon) <- true;
      ends.(Intmath.imod (job.release + task.deadline) horizon) <- true)
    (Windows.jobs windows);
  let collect flags = List.filter (fun s -> flags.(s)) (List.init horizon Fun.id) in
  (collect starts, collect ends)

(* The largest ⌈demand/len⌉ over the candidate intervals, and the first
   (start, len, demand) in (start, end) order with demand > m·len.  A
   job's demand is max(0, C − usable cells outside): on the pristine
   windows counted in O(1), with [allowed] by rescanning its window for
   the allowed cells. *)
let interval_scan ?allowed ts ~m =
  let windows = Windows.build ts in
  let horizon = Windows.horizon windows in
  let starts, ends = boundary_points ts windows in
  let forced_units ~start ~len (job : Windows.job) =
    let task = Taskset.task ts job.task in
    match allowed with
    | None ->
      let inside =
        pristine_inside ~horizon ~release:job.release ~deadline:task.deadline ~start ~len
      in
      Int.max 0 (task.wcet - (task.deadline - inside))
    | Some allowed ->
      let inside = ref 0 and total = ref 0 in
      Array.iter
        (fun s ->
          if allowed.(job.task).(s) then begin
            incr total;
            if Intmath.imod (s - start) horizon < len then incr inside
          end)
        job.slots;
      Int.max 0 (task.wcet - (!total - !inside))
  in
  let bound = ref 1 and hit = ref None in
  List.iter
    (fun start ->
      List.iter
        (fun e ->
          let len = Intmath.imod (e - start) horizon in
          if len > 0 then begin
            let demand =
              Array.fold_left
                (fun acc job -> acc + forced_units ~start ~len job)
                0 (Windows.jobs windows)
            in
            if demand > 0 then bound := Int.max !bound (Intmath.cdiv demand len);
            if !hit = None && demand > m * len then hit := Some (start, len, demand)
          end)
        ends)
    starts;
  (!bound, !hit)

(* Per-processor EDF over an unrolled double hyperperiod: at each slot,
   the job of the processor's tasks with r <= x < r + D and work left
   whose (absolute deadline, task, index) key is smallest.  Returns the
   schedule and each job's unserved units. *)
let edf_pack ts ~m ~assign =
  let windows = Windows.build ts in
  let horizon = Windows.horizon windows in
  let jobs = Windows.jobs windows in
  let rem = Array.map (fun (j : Windows.job) -> (Taskset.task ts j.task).wcet) jobs in
  let sched = Schedule.create ~m ~horizon in
  for proc = 0 to m - 1 do
    let mine =
      Array.to_list jobs |> List.filter (fun (j : Windows.job) -> assign.(j.task) = proc)
    in
    for x = 0 to (2 * horizon) - 1 do
      let t = Intmath.imod x horizon in
      if Schedule.get sched ~proc ~time:t = Schedule.idle then begin
        let best = ref None in
        List.iter
          (fun (j : Windows.job) ->
            let d = (Taskset.task ts j.task).deadline in
            let g = Windows.global_index windows ~task:j.task ~index:j.index in
            if rem.(g) > 0 && j.release <= x && x < j.release + d then
              match !best with
              | Some (key, _) when key <= (j.release + d, j.task, j.index) -> ()
              | _ -> best := Some ((j.release + d, j.task, j.index), g))
          mine;
        match !best with
        | Some ((_, task, _), g) ->
          Schedule.set sched ~proc ~time:t task;
          rem.(g) <- rem.(g) - 1
        | None -> ()
      end
    done
  done;
  (sched, rem)
