open Prelude
open Rt_model

type row = { policy : string; succeeded : int; out_of : int }

let policies ts =
  [
    ("global EDF", fun ~m -> let r = Sched.Sim.run ts ~m ~policy:Sched.Sim.EDF in r.Sched.Sim.ok && r.Sched.Sim.exact);
    ("global LLF", fun ~m -> let r = Sched.Sim.run ts ~m ~policy:Sched.Sim.LLF in r.Sched.Sim.ok && r.Sched.Sim.exact);
    ( "global RM",
      fun ~m ->
        let r = Sched.Sim.run ts ~m ~policy:(Sched.Sim.Fixed_priority (Sched.Sim.rm_priorities ts)) in
        r.Sched.Sim.ok && r.Sched.Sim.exact );
    ( "global DM",
      fun ~m ->
        let r = Sched.Sim.run ts ~m ~policy:(Sched.Sim.Fixed_priority (Sched.Sim.dm_priorities ts)) in
        r.Sched.Sim.ok && r.Sched.Sim.exact );
    ("partitioned FF-EDF", fun ~m -> (Sched.Partitioned.partition ts ~m).Sched.Partitioned.ok);
  ]

let run ?(progress = fun _ -> ()) (config : Config.t) =
  let config = { config with Config.instances = min config.Config.instances 200 } in
  let params = Campaign.generation_params config in
  let instances =
    Gen.Generator.batch ~seed:(config.Config.seed + 31337) ~count:config.Config.instances params
  in
  let feasible = ref [] in
  Array.iteri
    (fun idx (ts, m) ->
      (match
         Csp2.Opt.solve ~memo_mb:0 ~heuristic:Csp2.Heuristic.DC
           ~budget:(Prelude.Timer.budget ~wall_s:config.Config.limit_s ())
           ts ~m
       with
      | Encodings.Outcome.Feasible _, _ -> feasible := (ts, m) :: !feasible
      | (Encodings.Outcome.Infeasible | Encodings.Outcome.Limit | Encodings.Outcome.Memout _), _
        -> ());
      progress idx)
    instances;
  let feasible = !feasible in
  let out_of = List.length feasible in
  let names = List.map fst (policies Examples.running_example) in
  List.map
    (fun name ->
      let succeeded =
        List.fold_left
          (fun acc (ts, m) ->
            let policy = List.assoc name (policies ts) in
            if policy ~m then acc + 1 else acc)
          0 feasible
      in
      { policy = name; succeeded; out_of })
    names

let render rows =
  let table = Ascii_table.create ~headers:[ "policy"; "schedulable"; "of feasible" ] in
  Ascii_table.set_align table [ Ascii_table.Left; Ascii_table.Right; Ascii_table.Right ];
  List.iter
    (fun r ->
      Ascii_table.add_row table
        [ r.policy; string_of_int r.succeeded; string_of_int r.out_of ])
    rows;
  "Baselines: priority-driven policies on CSP-feasible instances\n" ^ Ascii_table.render table

