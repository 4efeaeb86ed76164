open Prelude

type solver = {
  name : string;
  run :
    Rt_model.Taskset.t -> m:int -> budget:Timer.budget -> seed:int -> Encodings.Outcome.t;
}

let csp1 =
  {
    name = "CSP1";
    run = (fun ts ~m ~budget ~seed -> fst (Encodings.Csp1.solve ~budget ~seed ts ~m));
  }

(* The paper's Section V search: the one engine with its memo-on layers
   off. *)
let dedicated ?urgency heuristic name =
  {
    name;
    run =
      (fun ts ~m ~budget ~seed:_ ->
        fst (Csp2.Opt.solve ?urgency ~memo_mb:0 ~heuristic ~budget ts ~m));
  }

let csp2_variants =
  [
    dedicated Csp2.Heuristic.Id "CSP2";
    dedicated Csp2.Heuristic.RM "+RM";
    dedicated Csp2.Heuristic.DM "+DM";
    dedicated Csp2.Heuristic.TC "+(T-C)";
    dedicated Csp2.Heuristic.DC "+(D-C)";
  ]

let table1_solvers = csp1 :: csp2_variants

let dedicated_weak = dedicated ~urgency:false

let csp2_weak_variants =
  [
    dedicated_weak Csp2.Heuristic.Id "CSP2";
    dedicated_weak Csp2.Heuristic.RM "+RM";
    dedicated_weak Csp2.Heuristic.DM "+DM";
    dedicated_weak Csp2.Heuristic.TC "+(T-C)";
    dedicated_weak Csp2.Heuristic.DC "+(D-C)";
  ]

let table1_weak_solvers = csp1 :: csp2_weak_variants

let csp1_wdeg =
  {
    name = "CSP1+wdeg";
    run =
      (fun ts ~m ~budget ~seed ->
        fst
          (Encodings.Csp1.solve ~var_heuristic:Fd.Search.Dom_over_wdeg
             ~value_heuristic:Fd.Search.Min_value ~budget ~seed ts ~m));
  }

let csp1_sat =
  {
    name = "CSP1/SAT";
    run = (fun ts ~m ~budget ~seed -> fst (Encodings.Csp1_sat.solve ~budget ~seed ts ~m));
  }

let csp2_generic ?(symmetry = true) ?(dc_value_order = false) () =
  let name =
    Printf.sprintf "CSP2/gen%s%s" (if symmetry then "+sym" else "") (if dc_value_order then "+DC" else "")
  in
  {
    name;
    run =
      (fun ts ~m ~budget ~seed ->
        let value_heuristic =
          if dc_value_order then begin
            (* Idle last, then tasks by D−C rank: the generic-solver analogue
               of the dedicated value ordering. *)
            let order = Array.to_list (Csp2.Heuristic.order Csp2.Heuristic.DC ts) in
            Some (Fd.Search.Ordered (fun _ -> order @ [ -1 ]))
          end
          else None
        in
        fst (Encodings.Csp2_fd.solve ~symmetry ?value_heuristic ~budget ~seed ts ~m));
  }

let csp2_opt ?(nogoods = true) ?memo_mb () =
  let name = if nogoods then "CSP2/opt" else "CSP2/opt-ng" in
  {
    name;
    run =
      (fun ts ~m ~budget ~seed:_ ->
        (* The sequential entry point keeps its engine warm per domain, so
           a campaign driven through this solver exercises the arena/epoch
           reuse path on every instance after the first. *)
        fst (Csp2.Opt.solve ~nogoods ?memo_mb ~budget ts ~m));
  }

let local_search =
  {
    name = "min-conflicts";
    run =
      (fun ts ~m ~budget ~seed -> fst (Localsearch.Min_conflicts.solve ~seed ~budget ts ~m));
  }

let portfolio ?jobs () =
  let name =
    match jobs with
    | Some j -> Printf.sprintf "portfolio(%d)" j
    | None -> "portfolio"
  in
  {
    name;
    run =
      (fun ts ~m ~budget ~seed ->
        (Core.solve_portfolio ?jobs ~budget ~seed ~verify:false ts ~m).Portfolio.verdict);
  }

type run = {
  outcome : Encodings.Outcome.t;
  time_s : float;
  overrun : bool;
}

let run_one solver ts ~m ~limit_s ~seed =
  let budget = Timer.budget ~wall_s:limit_s () in
  let t0 = Timer.start () in
  let outcome = solver.run ts ~m ~budget ~seed in
  let elapsed = Timer.elapsed t0 in
  let overrun =
    match outcome with
    | Encodings.Outcome.Limit | Encodings.Outcome.Memout _ -> true
    | Encodings.Outcome.Feasible _ | Encodings.Outcome.Infeasible -> false
  in
  (* The paper reports overruns at the limit value (e.g. the 30.0 rows of
     Table III), so cap the measured time. *)
  { outcome; time_s = (if overrun then limit_s else min elapsed limit_s); overrun }
