type min_processors_outcome =
  | Exact of int
  | Inconclusive of { first_limit : int; feasible : int option }
  | All_infeasible

let min_processors_feasible ~solve ts ~max_m =
  let rec go m first_limit =
    if m > max_m then
      match first_limit with
      | None -> All_infeasible
      | Some first_limit -> Inconclusive { first_limit; feasible = None }
    else
      match solve ~m with
      | `Feasible -> (
        match first_limit with
        | None -> Exact m
        | Some first_limit -> Inconclusive { first_limit; feasible = Some m })
      | `Infeasible -> go (m + 1) first_limit
      | `Undecided ->
        let first_limit = match first_limit with None -> Some m | some -> some in
        go (m + 1) first_limit
  in
  go (Int.max 1 (Taskset.min_processors ts)) None
