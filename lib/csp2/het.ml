open Prelude
open Rt_model

(* Number of window slots of [job] at positions >= t.  Slot arrays are
   ascending cyclic values, which is exactly sweep order (a wrapped window's
   head slots are the small values and are swept first). *)
let slots_from (job : Windows.job) t =
  let slots = job.slots in
  let len = Array.length slots in
  (* Binary search for the first index with slots.(i) >= t. *)
  let rec go lo hi = if lo >= hi then lo else
      let mid = (lo + hi) / 2 in
      if slots.(mid) >= t then go lo mid else go (mid + 1) hi
  in
  len - go 0 len

type stats = {
  nodes : int;
  fails : int;
  max_time_reached : int;
  time_s : float;
}

exception Stop_limit

let solve ?(heuristic = Heuristic.DC) ?(budget = Timer.unlimited) ~platform ts =
  let t0 = Timer.start () in
  let windows = Windows.build ts in
  let n = Taskset.size ts in
  let m = Platform.processors platform in
  let horizon = Windows.horizon windows in
  let jobs = Windows.jobs windows in
  let rem = Array.map (fun (j : Windows.job) -> (Taskset.task ts j.task).wcet) jobs in
  (* Sort the slot arrays once: Windows lists a wrapped job's slots in
     release order; sweep reasoning wants them ascending. *)
  let jobs =
    Array.map
      (fun (j : Windows.job) ->
        let slots = Array.copy j.slots in
        Array.sort Int.compare slots;
        { j with Windows.slots })
      jobs
  in
  (* Quality-ascending processor order (paper: least capable first). *)
  let proc_order = Array.init m Fun.id in
  let quality = Array.init m (fun p -> Platform.quality platform ts ~proc:p) in
  Array.sort
    (fun a b ->
      if quality.(a) <> quality.(b) then Float.compare quality.(a) quality.(b) else Int.compare a b)
    proc_order;
  (* Value order per task: few eligible processors first, then heuristic. *)
  let eligible_count =
    Array.init n (fun i -> List.length (Platform.eligible_processors platform ~task:i))
  in
  let hrank = Heuristic.rank heuristic ts in
  let task_order = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      if eligible_count.(a) <> eligible_count.(b) then
        Int.compare eligible_count.(a) eligible_count.(b)
      else if hrank.(a) <> hrank.(b) then Int.compare hrank.(a) hrank.(b)
      else Int.compare a b)
    task_order;
  let max_rate =
    Array.init n (fun i ->
        List.fold_left
          (fun acc p -> Int.max acc (Platform.rate platform ~task:i ~proc:p))
          0
          (Platform.eligible_processors platform ~task:i))
  in
  let cells = Array.make_matrix m horizon (-1) in
  let assigned = Bitset.create n in  (* tasks taken in the current slot *)
  let nodes = ref 0 in
  let fails = ref 0 in
  let max_time = ref 0 in
  (* Every node increment is followed by a [decide_slot] entry, so the
     masked wall-clock check fires once per 256 nodes; the stop flag is an
     atomic read and is polled unconditionally for prompt cancellation. *)
  let check_budget () =
    if
      Timer.nodes_exceeded budget ~nodes:!nodes
      || Timer.cancelled budget
      || (!nodes land 255 = 0 && Timer.exceeded budget ~nodes:!nodes)
    then raise Stop_limit
  in
  (* End-of-slot feasibility: every job active at [t] must still be able to
     finish at maximal rate, and jobs ending at [t] must be complete. *)
  let slot_check t =
    let ok = ref true in
    List.iter
      (fun i ->
        if !ok then begin
          let g = Windows.job_id_at windows ~task:i ~time:t in
          let job = jobs.(g) in
          let left = slots_from job (t + 1) in
          if rem.(g) > left * max_rate.(i) then ok := false
        end)
      (Windows.available_tasks windows ~time:t);
    !ok
  in
  (* Decide cell [q] (index into proc_order) of slot [t]. *)
  let rec decide_slot t q =
    check_budget ();
    if q = m then begin
      if slot_check t then begin
        if t > !max_time then max_time := t;
        if t + 1 = horizon then true
        else begin
          Bitset.clear assigned;
          let ok = decide_slot (t + 1) 0 in
          if not ok then begin
            (* Restore the slot-local assigned set for backtracking. *)
            Bitset.clear assigned;
            for k = 0 to m - 1 do
              let v = cells.(k).(t) in
              if v >= 0 then Bitset.add assigned v
            done
          end;
          ok
        end
      end
      else begin
        incr fails;
        false
      end
    end
    else begin
      let p = proc_order.(q) in
      (* Symmetry (13): identical neighbour processors in ascending value
         order (idle = -1 first). *)
      let floor_value =
        if q = 0 then min_int
        else begin
          let p' = proc_order.(q - 1) in
          if Platform.same_kind platform ~proc:p ~proc':p' ~tasks:n then cells.(p').(t)
          else min_int
        end
      in
      let try_task i =
        if i >= floor_value && (not (Bitset.mem assigned i)) then begin
          let rate = Platform.rate platform ~task:i ~proc:p in
          if rate > 0 then begin
            let g = Windows.job_id_at windows ~task:i ~time:t in
            if g >= 0 && rem.(g) >= rate then begin
              incr nodes;
              cells.(p).(t) <- i;
              Bitset.add assigned i;
              rem.(g) <- rem.(g) - rate;
              let ok = decide_slot t (q + 1) in
              if not ok then begin
                rem.(g) <- rem.(g) + rate;
                Bitset.remove assigned i;
                cells.(p).(t) <- -1;
                incr fails
              end;
              ok
            end
            else false
          end
          else false
        end
        else false
      in
      Array.exists try_task task_order
      ||
      (* Idle, ordered last (sound even though tasks may be eligible —
         see the .mli note on rates vs the no-idle rule). *)
      (-1 >= floor_value
      &&
      begin
        incr nodes;
        cells.(p).(t) <- -1;
        decide_slot t (q + 1)
      end)
    end
  in
  let stats () =
    {
      nodes = !nodes;
      fails = !fails;
      max_time_reached = !max_time;
      time_s = Timer.elapsed t0;
    }
  in
  match decide_slot 0 0 with
  | true ->
    let sched = Schedule.create ~m ~horizon in
    for p = 0 to m - 1 do
      for t = 0 to horizon - 1 do
        if cells.(p).(t) >= 0 then Schedule.set sched ~proc:p ~time:t cells.(p).(t)
      done
    done;
    (Encodings.Outcome.Feasible sched, stats ())
  | false -> (Encodings.Outcome.Infeasible, stats ())
  | exception Stop_limit -> (Encodings.Outcome.Limit, stats ())
