open Rt_model
module E = Fd.Engine

type t = {
  eng : E.t;
  ts : Taskset.t;
  m : int;
  horizon : int;
  vars : E.var array array array;  (* [task].[proc].[slot] *)
}

let horizon t = t.horizon
let engine t = t.eng

let var t ~task ~proc ~time = t.vars.(task).(proc).(time)

let build ?platform ?(var_budget = 2_000_000) ts ~m =
  let platform = match platform with Some p -> p | None -> Platform.identical ~m in
  if Platform.processors platform <> m then invalid_arg "Csp1.build: platform/m mismatch";
  let n = Taskset.size ts in
  let horizon = Taskset.hyperperiod ts in
  (* Refuse models beyond the budget before allocating anything: this is
     the moral equivalent of Choco's OOM on Table IV instances.  The
     guard divides, as n·m·T wraps on hyperperiods near 10^18. *)
  if m > var_budget / n || horizon > var_budget / n / Int.max 1 m then
    raise
      (E.Too_large
         (Printf.sprintf "CSP1 needs %d x %d x %d variables (budget %d)" n m horizon var_budget));
  let windows = Windows.build ts in
  let eng = E.create ~var_budget () in
  (* Constraint (2) and the heterogeneous domain restriction: out-of-window
     or zero-rate variables are constants 0. *)
  let in_window = Array.make_matrix n horizon false in
  Array.iter
    (fun (job : Windows.job) ->
      Array.iter (fun s -> in_window.(job.task).(s) <- true) job.slots)
    (Windows.jobs windows);
  let vars =
    Array.init n (fun i ->
        Array.init m (fun j ->
            Array.init horizon (fun s ->
                let feasible_cell =
                  in_window.(i).(s) && Platform.can_run platform ~task:i ~proc:j
                in
                let hi = if feasible_cell then 1 else 0 in
                E.new_var eng ~name:(Printf.sprintf "x_%d_%d_%d" i j s) ~lo:0 ~hi ())))
  in
  (* (3): at most one task per processor and slot. *)
  for j = 0 to m - 1 do
    for s = 0 to horizon - 1 do
      let scope = Array.init n (fun i -> vars.(i).(j).(s)) in
      ignore (Fd.Constraints.bool_sum_le eng scope 1)
    done
  done;
  (* (4): at most one processor per task and slot. *)
  for i = 0 to n - 1 do
    for s = 0 to horizon - 1 do
      if in_window.(i).(s) then begin
        let scope = Array.init m (fun j -> vars.(i).(j).(s)) in
        ignore (Fd.Constraints.bool_sum_le eng scope 1)
      end
    done
  done;
  (* (5)/(11): exact demand per job. *)
  Array.iter
    (fun (job : Windows.job) ->
      let i = job.task in
      let wcet = (Taskset.task ts i).wcet in
      let scope = ref [] in
      let weights = ref [] in
      Array.iter
        (fun s ->
          for j = 0 to m - 1 do
            let rate = Platform.rate platform ~task:i ~proc:j in
            if rate > 0 then begin
              scope := vars.(i).(j).(s) :: !scope;
              weights := rate :: !weights
            end
          done)
        job.slots;
      if Platform.is_identical platform then
        ignore (Fd.Constraints.bool_sum_eq eng (Array.of_list !scope) wcet)
      else
        ignore
          (Fd.Constraints.linear_eq eng
             ~coeffs:(Array.of_list !weights)
             (Array.of_list !scope) wcet))
    (Windows.jobs windows);
  { eng; ts; m; horizon; vars }

let decode t valuation =
  let sched = Schedule.create ~m:t.m ~horizon:t.horizon in
  let n = Taskset.size t.ts in
  for i = 0 to n - 1 do
    for j = 0 to t.m - 1 do
      for s = 0 to t.horizon - 1 do
        if valuation t.vars.(i).(j).(s) = 1 then Schedule.set sched ~proc:j ~time:s i
      done
    done
  done;
  sched

let solve ?platform ?var_budget ?var_heuristic ?value_heuristic ?seed ?budget ?restarts ts
    ~m =
  match build ?platform ?var_budget ts ~m with
  | exception E.Too_large reason -> (Outcome.Memout reason, None)
  | model ->
    (* Default to the cheap chronological variable scan with randomized
       values: boolean domains make min-dom degenerate (every open variable
       ties), and value randomization already reproduces the run-to-run
       variance the paper reports for Choco. *)
    let var_heuristic =
      match var_heuristic with Some h -> h | None -> Fd.Search.Input_order
    in
    let value_heuristic =
      match value_heuristic with Some h -> h | None -> Fd.Search.Random_value
    in
    let result =
      Fd.Search.solve ~var_heuristic ~value_heuristic ?seed ?budget ?restarts model.eng
    in
    let outcome =
      match result.Fd.Search.outcome with
      | Fd.Search.Sat valuation -> Outcome.Feasible (decode model valuation)
      | Fd.Search.Unsat -> Outcome.Infeasible
      | Fd.Search.Limit -> Outcome.Limit
    in
    (outcome, Some result.Fd.Search.stats)
