open Prelude
open Rt_model

type stats = {
  iterations : int;
  restarts : int;
  best_cost : int;
  time_s : float;
}

(* Sparse set of job ids with received ≠ C, O(1) add/remove/sample. *)
module Unsat = struct
  type t = { items : int array; pos : int array; mutable size : int }

  let create n = { items = Array.init n Fun.id; pos = Array.init n Fun.id; size = 0 }

  let mem t g = t.pos.(g) < t.size

  let add t g =
    if not (mem t g) then begin
      let p = t.pos.(g) in
      let swapped = t.items.(t.size) in
      t.items.(t.size) <- g;
      t.items.(p) <- swapped;
      t.pos.(swapped) <- p;
      t.pos.(g) <- t.size;
      t.size <- t.size + 1
    end

  let remove t g =
    if mem t g then begin
      t.size <- t.size - 1;
      let p = t.pos.(g) in
      let swapped = t.items.(t.size) in
      t.items.(p) <- swapped;
      t.items.(t.size) <- g;
      t.pos.(swapped) <- p;
      t.pos.(g) <- t.size
    end

  let sample t rng = t.items.(Prng.int rng t.size)
end

type state = {
  windows : Windows.t;
  m : int;
  horizon : int;
  cells : int array array;  (* [proc].[slot] = task or -1 *)
  received : int array;  (* per global job *)
  present : Bitset.t array;  (* per slot: tasks running *)
  wcet_of_job : int array;
  unsat : Unsat.t;
  mutable cost : int;
  rng : Prng.t;
  dc_order : int array;
}

let job_at st ~task ~time = Windows.job_id_at st.windows ~task ~time

let cost_term st g = abs (st.received.(g) - st.wcet_of_job.(g))

let touch st g delta =
  st.cost <- st.cost - cost_term st g;
  st.received.(g) <- st.received.(g) + delta;
  st.cost <- st.cost + cost_term st g;
  if cost_term st g = 0 then Unsat.remove st.unsat g else Unsat.add st.unsat g

(* Set cell (j,t) to [v] (task or -1), maintaining received/present/cost. *)
let set_cell st ~proc ~time v =
  let old = st.cells.(proc).(time) in
  if old <> v then begin
    if old >= 0 then begin
      touch st (job_at st ~task:old ~time) (-1);
      Bitset.remove st.present.(time) old
    end;
    st.cells.(proc).(time) <- v;
    if v >= 0 then begin
      touch st (job_at st ~task:v ~time) 1;
      Bitset.add st.present.(time) v
    end
  end

(* Cost delta of setting (proc,time) to [v], without applying. *)
let delta_of st ~proc ~time v =
  let old = st.cells.(proc).(time) in
  if old = v then 0
  else begin
    let d = ref 0 in
    if old >= 0 then begin
      let g = job_at st ~task:old ~time in
      d := !d + abs (st.received.(g) - 1 - st.wcet_of_job.(g)) - cost_term st g
    end;
    if v >= 0 then begin
      let g = job_at st ~task:v ~time in
      d := !d + abs (st.received.(g) + 1 - st.wcet_of_job.(g)) - cost_term st g
    end;
    !d
  end

let greedy_init st =
  for j = 0 to st.m - 1 do
    for t = 0 to st.horizon - 1 do
      set_cell st ~proc:j ~time:t (-1)
    done
  done;
  for t = 0 to st.horizon - 1 do
    let next_proc = ref 0 in
    Array.iter
      (fun i ->
        if
          !next_proc < st.m
          && job_at st ~task:i ~time:t >= 0
          && not (Bitset.mem st.present.(t) i)
        then begin
          let g = job_at st ~task:i ~time:t in
          if st.received.(g) < st.wcet_of_job.(g) then begin
            set_cell st ~proc:!next_proc ~time:t i;
            incr next_proc
          end
        end)
      st.dc_order
  done

let solve ?(seed = 0) ?(noise = 0.08) ?(budget = Timer.unlimited) ?restart_every ts ~m =
  let t0 = Timer.start () in
  let windows = Windows.build ts in
  let n = Taskset.size ts in
  let horizon = Windows.horizon windows in
  let job_count = Windows.job_count windows in
  let wcet_of_job =
    Array.map (fun (j : Windows.job) -> (Taskset.task ts j.task).wcet) (Windows.jobs windows)
  in
  let st =
    {
      windows;
      m;
      horizon;
      cells = Array.make_matrix m horizon (-1);
      received = Array.make job_count 0;
      present = Array.init horizon (fun _ -> Bitset.create n);
      wcet_of_job;
      unsat = Unsat.create job_count;
      cost = 0;
      rng = Prng.create ~seed;
      dc_order = Csp2.Heuristic.order Csp2.Heuristic.DC ts;
    }
  in
  (* All jobs start unserved. *)
  Array.iteri
    (fun g c ->
      st.cost <- st.cost + c;
      if c > 0 then Unsat.add st.unsat g)
    wcet_of_job;
  let restart_every =
    match restart_every with Some r -> r | None -> Int.max 1000 (20 * m * horizon)
  in
  let iterations = ref 0 in
  let restarts = ref 0 in
  let best_cost = ref max_int in
  greedy_init st;
  let jobs = Windows.jobs windows in
  let result = ref None in
  while !result = None do
    if st.cost < !best_cost then best_cost := st.cost;
    if st.cost = 0 then begin
      let sched = Schedule.create ~m ~horizon in
      for j = 0 to m - 1 do
        for t = 0 to horizon - 1 do
          if st.cells.(j).(t) >= 0 then Schedule.set sched ~proc:j ~time:t st.cells.(j).(t)
        done
      done;
      result := Some (Encodings.Outcome.Feasible sched)
    end
    else if
      (if !iterations land 63 = 0 then begin
         Resilience.Failpoint.hit "localsearch.iter";
         Telemetry.heartbeat ~name:"min-conflicts" ~nodes:!iterations ~fails:!restarts
           ~depth:!best_cost
       end;
       Timer.cancelled budget
       || Timer.nodes_exceeded budget ~nodes:!iterations
       || (!iterations land 63 = 0 && Timer.exceeded budget ~nodes:!iterations))
    then result := Some Encodings.Outcome.Limit
    else begin
      incr iterations;
      if !iterations mod restart_every = 0 then begin
        Resilience.Failpoint.hit "localsearch.restart";
        incr restarts;
        greedy_init st
      end
      else begin
        let g = Unsat.sample st.unsat st.rng in
        let job = jobs.(g) in
        let i = job.Windows.task in
        if st.received.(g) < st.wcet_of_job.(g) then begin
          (* Under-served: put the task into one of its window slots. *)
          let slots =
            Array.of_list
              (List.filter
                 (fun t -> not (Bitset.mem st.present.(t) i))
                 (Array.to_list job.Windows.slots))
          in
          if Array.length slots > 0 then begin
            let t = Prng.pick st.rng slots in
            let pick_proc =
              if Prng.float st.rng < noise then Prng.int st.rng m
              else begin
                let best = ref 0 and best_d = ref max_int in
                for j = 0 to m - 1 do
                  let d = delta_of st ~proc:j ~time:t i in
                  if d < !best_d then begin
                    best_d := d;
                    best := j
                  end
                done;
                !best
              end
            in
            set_cell st ~proc:pick_proc ~time:t i
          end
        end
        else begin
          (* Over-served: free one of the task's cells in this window. *)
          let owned = ref [] in
          Array.iter
            (fun t ->
              for j = 0 to m - 1 do
                if st.cells.(j).(t) = i then owned := (j, t) :: !owned
              done)
            job.Windows.slots;
          match !owned with
          | [] -> ()
          | l ->
            let j, t = Prng.pick st.rng (Array.of_list l) in
            (* Replace with the best alternative value (idle or another
               available, absent task). *)
            let candidates =
              (-1)
              :: List.filter
                   (fun a -> a <> i && not (Bitset.mem st.present.(t) a))
                   (Windows.available_tasks st.windows ~time:t)
            in
            let choice =
              if Prng.float st.rng < noise then
                List.nth candidates (Prng.int st.rng (List.length candidates))
              else
                List.fold_left
                  (fun (bv, bd) v ->
                    let d = delta_of st ~proc:j ~time:t v in
                    if d < bd then (v, d) else (bv, bd))
                  (-1, delta_of st ~proc:j ~time:t (-1))
                  candidates
                |> fst
            in
            set_cell st ~proc:j ~time:t choice
        end
      end
    end
  done;
  let outcome = match !result with Some o -> o | None -> assert false in
  ( outcome,
    { iterations = !iterations; restarts = !restarts; best_cost = Int.min !best_cost st.cost;
      time_s = Timer.elapsed t0 } )

let to_stats ~backend (st : stats) =
  Telemetry.Stats.make ~backend ~nodes:st.iterations ~fails:st.restarts
    ~restarts:st.restarts ~time_s:st.time_s ()
