open Rt_model
module S = Sat.Solver

type t = {
  solver : S.t;
  ts : Taskset.t;
  m : int;
  horizon : int;
  cell : int array array array;  (* [task].[proc].[slot] -> sat var or -1 *)
  cell_count : int;
}

let solver t = t.solver
let cell_count t = t.cell_count

(* Raised by the builder's budget poll. *)
exception Stopped

(* On the paper's instances the CNF can take longer to build than a
   caller's whole wall budget, so the builder polls [poll] once per task
   (and once per processor row of constraint (3)), as the search polls
   its budget per node. *)
let build_polled ~poll ?(var_budget = 2_000_000) ts ~m =
  let n = Taskset.size ts in
  let horizon = Taskset.hyperperiod ts in
  (* Checked before any table is built, by division: n·m·T wraps on
     hyperperiods near 10^18. *)
  if m > var_budget / n || horizon > var_budget / n / Int.max 1 m then
    raise
      (Fd.Engine.Too_large
         (Printf.sprintf "CSP1-SAT needs %d x %d x %d cells (budget %d)" n m horizon var_budget));
  let windows = Windows.build ts in
  poll ();
  let solver = S.create () in
  let cell = Array.init n (fun _ -> Array.make_matrix m horizon (-1)) in
  (* Variables only where constraint (2) allows a 1: every processor of a
     slot shares the created/absent status, which constraint (4) below
     relies on. *)
  for i = 0 to n - 1 do
    poll ();
    Array.iter
      (fun (job : Windows.job) ->
        Array.iter
          (fun s ->
            for j = 0 to m - 1 do
              cell.(i).(j).(s) <- S.new_var solver
            done)
          job.slots)
      (Windows.jobs_of_task windows i)
  done;
  let cell_count = S.nvars solver in
  (* (3): at most one task per (processor, slot). *)
  for j = 0 to m - 1 do
    poll ();
    for s = 0 to horizon - 1 do
      let lits = ref [] in
      for i = 0 to n - 1 do
        if cell.(i).(j).(s) >= 0 then lits := S.pos cell.(i).(j).(s) :: !lits
      done;
      Sat.Cardinality.at_most solver ~k:1 !lits
    done
  done;
  (* (4): at most one processor per (task, slot). *)
  for i = 0 to n - 1 do
    poll ();
    for s = 0 to horizon - 1 do
      if cell.(i).(0).(s) >= 0 then begin
        let lits = List.init m (fun j -> S.pos cell.(i).(j).(s)) in
        Sat.Cardinality.at_most solver ~k:1 lits
      end
    done
  done;
  (* (5): exactly C_i per job (over the cells that exist). *)
  for i = 0 to n - 1 do
    poll ();
    let wcet = (Taskset.task ts i).wcet in
    Array.iter
      (fun (job : Windows.job) ->
        let lits = ref [] in
        Array.iter
          (fun s ->
            for j = 0 to m - 1 do
              if cell.(i).(j).(s) >= 0 then lits := S.pos cell.(i).(j).(s) :: !lits
            done)
          job.slots;
        Sat.Cardinality.exactly solver ~k:wcet !lits)
      (Windows.jobs_of_task windows i)
  done;
  { solver; ts; m; horizon; cell; cell_count }

let build ?var_budget ts ~m = build_polled ~poll:ignore ?var_budget ts ~m

let to_dimacs t =
  { Sat.Dimacs.num_vars = S.nvars t.solver; clauses = S.export_clauses t.solver }

let decode t model =
  let sched = Schedule.create ~m:t.m ~horizon:t.horizon in
  let n = Taskset.size t.ts in
  for i = 0 to n - 1 do
    for j = 0 to t.m - 1 do
      for s = 0 to t.horizon - 1 do
        let v = t.cell.(i).(j).(s) in
        if v >= 0 && model.(v) then Schedule.set sched ~proc:j ~time:s i
      done
    done
  done;
  sched

let solve ?var_budget ?seed ?(budget = Prelude.Timer.unlimited) ts ~m =
  let poll () = if Prelude.Timer.exceeded budget ~nodes:0 then raise Stopped in
  match build_polled ~poll ?var_budget ts ~m with
  | exception Fd.Engine.Too_large reason -> (Outcome.Memout reason, None)
  | exception Stopped -> (Outcome.Limit, None)
  | model ->
    let outcome, stats = S.solve ~budget ?seed model.solver in
    let verdict =
      match outcome with
      | S.Sat assignment -> Outcome.Feasible (decode model assignment)
      | S.Unsat -> Outcome.Infeasible
      | S.Unknown -> Outcome.Limit
    in
    (verdict, Some stats)
