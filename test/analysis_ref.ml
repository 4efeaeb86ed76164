(* Reference implementation of the interval demand bound behind
   [Analysis.m_lower_bound], in its direct form: it recounts every job for
   every candidate (start, end) pair.  It is slow, so it serves only as a
   test oracle on small instances. *)

open Prelude
open Rt_model

let overlap a b c d = Int.max 0 (Int.min b d - Int.max a c)

(* Slots of a job inside the cyclic interval, in O(1): both the window
   [r, r+D) and the interval live in [0, 2T), so three interval copies
   (shifted by −T, 0, +T) cover every cyclic intersection. *)
let inside ~horizon ~release ~deadline ~start ~len =
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

(* The largest ⌈demand/len⌉ over the candidate intervals (at least 1),
   where a job's demand is max(0, C − cells outside). *)
let interval_bound ts =
  let windows = Windows.build ts in
  let horizon = Windows.horizon windows in
  let starts, ends = boundary_points ts windows in
  let forced_units ~start ~len (job : Windows.job) =
    let task = Taskset.task ts job.task in
    let inside = inside ~horizon ~release:job.release ~deadline:task.deadline ~start ~len in
    Int.max 0 (task.wcet - (task.deadline - inside))
  in
  let bound = ref 1 in
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
            if demand > 0 then bound := Int.max !bound (Intmath.cdiv demand len)
          end)
        ends)
    starts;
  !bound
