open Rt_model
module E = Fd.Engine

type t = {
  eng : E.t;
  m : int;
  horizon : int;
  vars : E.var array array;  (* [proc].[slot], values -1..n-1 *)
}

let engine t = t.eng
let horizon t = t.horizon
let var t ~proc ~time = t.vars.(proc).(time)

let build ?platform ?(symmetry = true) ?(var_budget = 2_000_000) ts ~m =
  let platform = match platform with Some p -> p | None -> Platform.identical ~m in
  if Platform.processors platform <> m then invalid_arg "Csp2_fd.build: platform/m mismatch";
  let windows = Windows.build ts in
  let n = Taskset.size ts in
  let horizon = Windows.horizon windows in
  let requested = m * horizon in
  if requested > var_budget then
    raise (E.Too_large (Printf.sprintf "CSP2 needs %d variables (budget %d)" requested var_budget));
  let eng = E.create ~var_budget () in
  (* (7) + heterogeneity: domain of x_j(t) = {-1} ∪ available tasks with
     positive rate on P_j. *)
  let avail = Array.init horizon (fun s -> Windows.available_tasks windows ~time:s) in
  let vars =
    Array.init m (fun j ->
        Array.init horizon (fun s ->
            let runnable =
              List.filter (fun i -> Platform.can_run platform ~task:i ~proc:j) avail.(s)
            in
            E.new_var_of eng ~name:(Printf.sprintf "x_%d_%d" j s) (-1 :: runnable)))
  in
  (* (8): per slot, non-idle values pairwise distinct. *)
  for s = 0 to horizon - 1 do
    let scope = Array.init m (fun j -> vars.(j).(s)) in
    ignore (Fd.Constraints.alldiff_except eng scope ~except:(-1))
  done;
  (* (9)/(12): per-job demand. *)
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
              scope := vars.(j).(s) :: !scope;
              weights := rate :: !weights
            end
          done)
        job.slots;
      ignore
        (Fd.Constraints.count_weighted_eq eng (Array.of_list !scope) ~value:i
           ~weights:(Array.of_list !weights) wcet))
    (Windows.jobs windows);
  (* (10)/(13): ascending order across identical neighbours. *)
  if symmetry then
    for s = 0 to horizon - 1 do
      for j = 0 to m - 2 do
        if Platform.same_kind platform ~proc:j ~proc':(j + 1) ~tasks:n then
          ignore (Fd.Constraints.leq eng vars.(j).(s) vars.(j + 1).(s))
      done
    done;
  { eng; m; horizon; vars }

let decode t valuation =
  let sched = Schedule.create ~m:t.m ~horizon:t.horizon in
  for j = 0 to t.m - 1 do
    for s = 0 to t.horizon - 1 do
      let v = valuation t.vars.(j).(s) in
      if v <> -1 then Schedule.set sched ~proc:j ~time:s v
    done
  done;
  sched

let solve ?platform ?symmetry ?var_budget ?var_heuristic ?value_heuristic ?seed ?budget
    ?restarts ts ~m =
  match build ?platform ?symmetry ?var_budget ts ~m with
  | exception E.Too_large reason -> (Outcome.Memout reason, None)
  | model ->
    let result =
      Fd.Search.solve ?var_heuristic ?value_heuristic ?seed ?budget ?restarts model.eng
    in
    let outcome =
      match result.Fd.Search.outcome with
      | Fd.Search.Sat valuation -> Outcome.Feasible (decode model valuation)
      | Fd.Search.Unsat -> Outcome.Infeasible
      | Fd.Search.Limit -> Outcome.Limit
    in
    (outcome, Some result.Fd.Search.stats)
