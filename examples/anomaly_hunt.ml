(* Anomaly hunt: why complete search beats priority-driven policies.

   The paper's introduction recalls that multiprocessor scheduling suffers
   anomalies: natural work-conserving policies (global EDF, RM, ...) can
   miss deadlines on systems that are perfectly feasible.  This example

   1. shows a hand-crafted trap (three tasks of utilization 2/3 on two
      processors) where global EDF fails but the CSP solver schedules;
   2. sweeps random instances to count, among CSP-feasible systems, how
      often each classic policy fails;
   3. uses the priority-assignment search (the paper's future-work #2) to
      rescue fixed-priority scheduling where RM/DM fail.

   Run with: dune exec examples/anomaly_hunt.exe *)

open Rt_model

let show_policy name ok = Format.printf "  %-22s %s@." name (if ok then "meets all deadlines" else "MISSES a deadline")

let () =
  let ts = Examples.edf_trap in
  let m = Examples.edf_trap_m in
  Format.printf "The trap (three synchronous tasks (0,2,3,3) on 2 processors):@.%a@." Taskset.pp ts;

  let edf = Sched.Sim.run ts ~m ~policy:Sched.Sim.EDF in
  show_policy "global EDF" (edf.Sched.Sim.ok && edf.Sched.Sim.exact);
  (match edf.Sched.Sim.misses with
  | { Sched.Sim.task; job; at } :: _ ->
    Format.printf "    first miss: job %d of task %d at t=%d@." job (task + 1) at
  | [] -> ());
  let rm = Sched.Sim.run ts ~m ~policy:(Sched.Sim.Fixed_priority (Sched.Sim.rm_priorities ts)) in
  show_policy "global RM" (rm.Sched.Sim.ok && rm.Sched.Sim.exact);

  (match Core.solve ts ~m with
  | Core.Feasible schedule, _ ->
    Format.printf "  CSP2+(D-C)             finds a feasible schedule:@.%a@." Schedule.pp schedule
  | _ -> assert false);

  (* Can a different *fixed* priority order do it?  Search the n! space. *)
  (match Priority.Assignment.search ts ~m with
  | Priority.Assignment.Found ranks, stats ->
    Format.printf "  priority search: feasible assignment after %d simulations: %s@."
      stats.Priority.Assignment.candidates
      (String.concat " > "
         (List.map (fun (i, _) -> Printf.sprintf "task %d" (i + 1))
            (List.sort (fun (_, a) (_, b) -> compare a b)
               (Array.to_list (Array.mapi (fun i r -> (i, r)) ranks)))))
  | Priority.Assignment.Not_found, stats ->
    Format.printf
      "  priority search: NO fixed-priority order works (%d orders simulated) — only a \
       time-triggered schedule (the CSP solution) does@."
      stats.Priority.Assignment.candidates
  | Priority.Assignment.Limit, _ -> Format.printf "  priority search: undecided@.");

  (* Random sweep: the anomaly is not rare. *)
  Format.printf "@.Sweep: 300 random instances (n=6, m=3, Tmax=6), CSP-feasible ones only@.";
  let params = Gen.Generator.default ~n:6 ~m:(Gen.Generator.Fixed_m 3) ~tmax:6 in
  let instances = Gen.Generator.batch ~seed:2024 ~count:300 params in
  let feasible = ref 0 in
  let edf_ok = ref 0 and rm_ok = ref 0 and dm_ok = ref 0 and llf_ok = ref 0 and part_ok = ref 0 in
  Array.iter
    (fun (ts, m) ->
      match Csp2.Opt.solve ~memo_mb:0 ~budget:(Prelude.Timer.budget ~wall_s:0.2 ()) ts ~m with
      | Encodings.Outcome.Feasible _, _ ->
        incr feasible;
        let check flag policy = if policy then incr flag in
        check edf_ok (let r = Sched.Sim.run ts ~m ~policy:Sched.Sim.EDF in r.Sched.Sim.ok && r.Sched.Sim.exact);
        check llf_ok (let r = Sched.Sim.run ts ~m ~policy:Sched.Sim.LLF in r.Sched.Sim.ok && r.Sched.Sim.exact);
        check rm_ok
          (let r = Sched.Sim.run ts ~m ~policy:(Sched.Sim.Fixed_priority (Sched.Sim.rm_priorities ts)) in
           r.Sched.Sim.ok && r.Sched.Sim.exact);
        check dm_ok
          (let r = Sched.Sim.run ts ~m ~policy:(Sched.Sim.Fixed_priority (Sched.Sim.dm_priorities ts)) in
           r.Sched.Sim.ok && r.Sched.Sim.exact);
        check part_ok (Sched.Partitioned.partition ts ~m).Sched.Partitioned.ok
      | (Encodings.Outcome.Infeasible | Encodings.Outcome.Limit | Encodings.Outcome.Memout _), _
        -> ())
    instances;
  Format.printf "  CSP-feasible instances : %d@." !feasible;
  Format.printf "  global EDF schedules   : %d@." !edf_ok;
  Format.printf "  global LLF schedules   : %d@." !llf_ok;
  Format.printf "  global RM schedules    : %d@." !rm_ok;
  Format.printf "  global DM schedules    : %d@." !dm_ok;
  Format.printf "  partitioned FF-EDF     : %d@." !part_ok
