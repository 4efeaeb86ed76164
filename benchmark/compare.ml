(* [bench.exe compare PARENT CHANGE]: judge two sets of result JSONs, one
   directory each, metric by metric and workload by workload.

   Runs pair up in start order (the i-th parent run with the i-th change
   run), so the sets should be made alternately, flipping which side runs
   first.  A metric is

   - improved when there are at least 10 pairs, the change wins at least
     nine tenths of them, and the medians differ, in the better
     direction, by more than the parent's interquartile range;
   - unresolved when the parent's spread (IQR over median) exceeds the
     metric's bound, unless every change run is better, or every one
     worse, than every parent run;
   - regressed when the change's median is worse than the parent's by
     more than the bound, or when every change run is worse than every
     parent run;
   - unchanged otherwise. *)

module Json = Serve.Json

type run = { workload : string; started_at : float; metrics : (string * float) list }

let parse_run text =
  match Json.parse text with
  | Error _ -> None
  | Ok j -> (
    let field k f = Option.bind (Json.member k j) f in
    match
      (field "workload" Json.to_str, field "started_at" Json.to_float, Json.member "metrics" j)
    with
    | Some workload, Some started_at, Some (Json.Obj fields) ->
      let metrics =
        List.filter_map (fun (k, v) -> Option.map (fun x -> (k, x)) (Json.to_float v)) fields
      in
      Some { workload; started_at; metrics }
    | _ -> None)

let load_dir dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.filter_map (fun f ->
         parse_run (In_channel.with_open_text (Filename.concat dir f) In_channel.input_all))
  |> List.sort (fun a b -> Float.compare a.started_at b.started_at)

type verdict = Improved | Regressed | Unchanged | Unresolved

let verdict_string = function
  | Improved -> "improved"
  | Regressed -> "regressed"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

let rec zip xs ys = match (xs, ys) with x :: xs, y :: ys -> (x, y) :: zip xs ys | _ -> []

(* [parent] and [change] are one metric's values, in run order. *)
let judge (m : Metrics.metric) ~parent ~change =
  let better a b = match m.Metrics.better with Metrics.Lower -> a < b | Metrics.Higher -> a > b in
  let q1, pmed, q3 = Stats.quartiles parent and _, cmed, _ = Stats.quartiles change in
  let pairs = zip parent change in
  let wins = List.length (List.filter (fun (p, c) -> better c p) pairs) in
  let every rel = List.for_all (fun c -> List.for_all (fun p -> rel c p) parent) change in
  let all_better = every better and all_worse = every (fun c p -> better p c) in
  let scale = Float.abs pmed in
  let spread = (q3 -. q1) /. scale in
  let worse_by =
    (match m.Metrics.better with
    | Metrics.Lower -> cmed -. pmed
    | Metrics.Higher -> pmed -. cmed)
    /. scale
  in
  let n = List.length pairs in
  let verdict =
    if n >= 10 && 10 * wins >= 9 * n && better cmed pmed && Float.abs (cmed -. pmed) > q3 -. q1
    then Improved
    else if all_worse then Regressed
    else if spread > m.Metrics.bound && not all_better then Unresolved
    else if worse_by > m.Metrics.bound then Regressed
    else Unchanged
  in
  (verdict, wins, n)

let values runs ~workload ~metric =
  List.filter_map
    (fun r -> if r.workload = workload then List.assoc_opt metric r.metrics else None)
    runs

(* One line per workload x end-to-end metric. *)
let report ~parent ~change =
  let parent = load_dir parent and change = load_dir change in
  let workloads = List.sort_uniq compare (List.map (fun r -> r.workload) (parent @ change)) in
  Printf.printf "%-8s %-16s %-38s %-38s %-7s %s\n" "workload" "metric" "parent median [q1, q3]"
    "change median [q1, q3]" "wins" "verdict";
  List.iter
    (fun workload ->
      List.iter
        (fun (m : Metrics.metric) ->
          let parent = values parent ~workload ~metric:m.Metrics.name
          and change = values change ~workload ~metric:m.Metrics.name in
          if parent <> [] && change <> [] then begin
            let verdict, wins, n = judge m ~parent ~change in
            let side xs =
              let q1, med, q3 = Stats.quartiles xs in
              Printf.sprintf "%.6g [%.6g, %.6g]" med q1 q3
            in
            Printf.printf "%-8s %-16s %-38s %-38s %-7s %s\n" workload m.Metrics.name (side parent)
              (side change) (Printf.sprintf "%d/%d" wins n) (verdict_string verdict)
          end)
        Metrics.end_to_end)
    workloads
