open Mgrts_bench
module Json = Serve.Json

let check_true name b = Alcotest.(check bool) name true b

let copies_by_key (items : Workload.item array) =
  let counts = Hashtbl.create 256 in
  Array.iter
    (fun (it : Workload.item) ->
      let k = it.Workload.key in
      Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
    items;
  counts

let keys (items : Workload.item array) =
  List.sort compare (Array.to_list (Array.map (fun (it : Workload.item) -> it.Workload.key) items))

let test_repeat_copies () =
  let next = Workload.passes Workload.Repeat ~seed:7 in
  let copies = 1 + List.length Workload.repeat_gaps in
  let unique = Workload.corpus_size Workload.Repeat in
  for _ = 1 to 3 do
    let items = next () in
    Alcotest.(check int) "pass length" (copies * unique) (Array.length items);
    let counts = copies_by_key items in
    Alcotest.(check int) "every instance" unique (Hashtbl.length counts);
    Hashtbl.iter
      (fun k c -> Alcotest.(check int) (Printf.sprintf "instance %d copies" k) copies c)
      counts;
    let distances = Workload.realized_distances items in
    Alcotest.(check (list int))
      "one record per nominal gap" Workload.repeat_gaps (List.map fst distances);
    List.iter
      (fun (gap, ds) ->
        Alcotest.(check int) (Printf.sprintf "gap %d recorded" gap) unique (List.length ds);
        (* Only the slots skipped at the end of a pass pull copies closer
           than their gap. *)
        let short = List.length (List.filter (fun d -> d < gap) ds) in
        check_true (Printf.sprintf "gap %d: %d short of %d" gap short unique) (4 * short <= unique))
      distances
  done

let test_corpus () =
  let ratio (it : Workload.item) =
    let inst = it.Workload.inst in
    Rt_model.Taskset.utilization_ratio inst.Workload.ts ~m:inst.Workload.m
  in
  Array.iter
    (fun it ->
      let r = ratio it in
      check_true (Printf.sprintf "tight 0.95 < %.4f <= 1" r) (r > 0.95 && r <= 1. +. 1e-9))
    (Workload.corpus Workload.Tight);
  Array.iter
    (fun it ->
      let r = ratio it in
      check_true (Printf.sprintf "repeat %.4f <= 0.9" r) (r <= 0.9 +. 1e-9))
    (Workload.corpus Workload.Repeat);
  (* Fresh is unfiltered: instance i is the generator's batch instance i. *)
  let fresh = Workload.corpus Workload.Fresh in
  let batch = Gen.Generator.batch ~seed:0 ~count:(Array.length fresh) Workload.params in
  Array.iteri
    (fun i (it : Workload.item) ->
      let ts, m = batch.(i) in
      Alcotest.(check string)
        "fresh = batch" (Rt_model.Taskset.to_string ts)
        (Rt_model.Taskset.to_string it.Workload.inst.Workload.ts);
      Alcotest.(check int) "fresh m" m it.Workload.inst.Workload.m)
    fresh;
  (* Every pass of fresh and tight is the corpus, reordered. *)
  List.iter
    (fun w ->
      let all = keys (Workload.corpus w) and next = Workload.passes w ~seed:11 in
      for _ = 1 to 3 do
        Alcotest.(check (list int)) (Workload.name w ^ " pass = corpus") all (keys (next ()))
      done)
    [ Workload.Fresh; Workload.Tight ]

let ndjson w ~seed =
  let next = Workload.passes w ~seed in
  Array.append (next ()) (next ())
  |> Array.mapi (fun i (it : Workload.item) ->
         Workload.request_line ~id:(string_of_int i) it.Workload.inst)
  |> Array.to_list |> String.concat "\n"

let test_determinism () =
  List.iter
    (fun w ->
      let name = Workload.name w in
      Alcotest.(check string)
        (name ^ ": same seed, same bytes") (ndjson w ~seed:42) (ndjson w ~seed:42);
      check_true (name ^ ": other seed, other bytes") (ndjson w ~seed:42 <> ndjson w ~seed:43);
      let next = Workload.passes w ~seed:42 in
      let order () = Array.map (fun (it : Workload.item) -> it.Workload.key) (next ()) in
      let first = order () in
      check_true (name ^ ": passes differ in order") (first <> order ()))
    Workload.all

let test_percentiles () =
  let xs = List.init 10 (fun i -> float_of_int (i + 1)) in
  let check name expected got = Alcotest.(check (float 1e-9)) name expected got in
  check "p50 of 1..10" 5. (Stats.percentile 50. xs);
  check "p90 of 1..10" 9. (Stats.percentile 90. xs);
  check "p91 of 1..10" 10. (Stats.percentile 91. xs);
  check "p100 of 1..10" 10. (Stats.percentile 100. xs);
  check "p0 of 1..10" 1. (Stats.percentile 0. xs);
  check "p50 unsorted" 2. (Stats.percentile 50. [ 3.; 1.; 2. ]);
  check "p90 singleton" 7. (Stats.percentile 90. [ 7. ]);
  check_true "empty is nan" (Float.is_nan (Stats.percentile 50. []));
  (* Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Stats.quartiles xs in
  check "q1" 2.75 q1;
  check "q2" 5.5 q2;
  check "q3" 8.25 q3;
  let q1, _, q3 = Stats.quartiles [ 1.; 2. ] in
  check "q1 of two" 0.75 q1;
  check "q3 of two" 2.25 q3

let test_self_times () =
  let span name start dur = { Replay.name; start; dur; tid = 0 } in
  let selfs =
    Replay.self_times
      [
        span "static-pass" 0. 10.;
        span "inner" 1. 4.;
        span "search:csp2+D-C" 10. 5.;
        span "verify" 15. 1.;
      ]
  in
  let total l = List.fold_left (fun acc (l', t) -> if l = l' then acc +. t else acc) 0. selfs in
  let check name expected got = Alcotest.(check (float 1e-9)) name expected got in
  check "analysis keeps its unnamed child" 10. (total Replay.Analysis);
  check "search" 5. (total Replay.Search);
  check "verify" 1. (total Replay.Verify);
  let nested = Replay.self_times [ span "static-pass" 0. 10.; span "search:x" 2. 3. ] in
  check "a named child is subtracted from its parent" 7. (List.assoc Replay.Analysis nested)

let test_compare () =
  let m =
    List.find (fun (m : Metrics.metric) -> m.Metrics.name = "latency_p50_ms") Metrics.end_to_end
  in
  let verdict ~parent ~change =
    let v, _, _ = Compare.judge m ~parent ~change in
    Compare.verdict_string v
  in
  let parent = List.init 10 (fun i -> 100. +. float_of_int (i mod 3)) in
  let scaled k = List.map (fun x -> x *. k) parent in
  Alcotest.(check string) "much faster" "improved" (verdict ~parent ~change:(scaled 0.5));
  Alcotest.(check string) "much slower" "regressed" (verdict ~parent ~change:(scaled 2.));
  Alcotest.(check string) "same" "unchanged" (verdict ~parent ~change:parent);
  let noisy = List.init 10 (fun i -> if i mod 2 = 0 then 50. else 150.) in
  Alcotest.(check string)
    "too noisy to tell" "unresolved"
    (verdict ~parent:noisy ~change:(List.rev noisy))

let test_host_factor () =
  let check name expected got = Alcotest.(check (float 1e-9)) name expected got in
  let at k = List.concat_map (fun (n, _, r) -> [ (n, k *. r); (n, 3. *. k *. r) ]) Host.probes in
  (* Each probe's median (nearest rank, the lower of two) is its
     reference times k. *)
  check "quiet host" 1. (Host.factor (at 1.));
  check "everything twice as slow" 2. (Host.factor (at 2.));
  let sort_slow =
    List.map (fun (n, ms) -> if n = "sort" then (n, 4. *. ms) else (n, ms)) (at 1.)
  in
  check "geometric mean of the probes" 2. (Host.factor sort_slow)

(* BENCHMARK.json and the catalogue the bench prints from must agree. *)
let test_benchmark_json () =
  let j =
    match Json.parse (In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  let entries key =
    match Option.bind (Json.member key j) Json.to_list with
    | Some l -> l
    | None -> Alcotest.fail ("BENCHMARK.json lacks " ^ key)
  in
  let str k e = Option.value ~default:"" (Option.bind (Json.member k e) Json.to_str) in
  let num k e = Option.value ~default:Float.nan (Option.bind (Json.member k e) Json.to_float) in
  let describe (m : Metrics.metric) =
    (m.Metrics.name, m.Metrics.unit, Metrics.better_string m.Metrics.better)
  in
  let triple e = (str "name" e, str "unit" e, str "better" e) in
  let t = Alcotest.(list (triple string string string)) in
  let check_list name catalogue key =
    Alcotest.check t name (List.map describe catalogue) (List.map triple (entries key))
  in
  check_list "end_to_end" Metrics.end_to_end "end_to_end";
  check_list "per_layer" Metrics.per_layer "per_layer";
  Alcotest.(check (list (float 1e-12)))
    "bounds"
    (List.map (fun (m : Metrics.metric) -> m.Metrics.bound) Metrics.end_to_end)
    (List.map (num "bound") (entries "end_to_end"));
  Alcotest.(check (list string))
    "workloads" (List.map Workload.name Workload.all)
    (List.map (str "name") (entries "workloads"));
  let names =
    List.map (fun (m : Metrics.metric) -> m.Metrics.name) (Metrics.end_to_end @ Metrics.per_layer)
  in
  List.iter (fun n -> check_true (n ^ " is a valid name") (Metrics.valid_name n)) names;
  Alcotest.(check int)
    "names are unique" (List.length names)
    (List.length (List.sort_uniq String.compare names))

let () =
  Alcotest.run "benchmark"
    [
      ( "workload",
        [
          Alcotest.test_case "repeat copies and distances" `Quick test_repeat_copies;
          Alcotest.test_case "corpus filters and passes" `Quick test_corpus;
          Alcotest.test_case "seeded streams" `Quick test_determinism;
        ] );
      ( "measure",
        [
          Alcotest.test_case "percentiles and quartiles" `Quick test_percentiles;
          Alcotest.test_case "span self time" `Quick test_self_times;
          Alcotest.test_case "compare verdicts" `Quick test_compare;
          Alcotest.test_case "host factor" `Quick test_host_factor;
          Alcotest.test_case "BENCHMARK.json matches the catalogue" `Quick test_benchmark_json;
        ] );
    ]
