(* The repository benchmark: [mgrts serve] end to end on three request
   streams, plus a traced in-process replay for the per-layer split.
   See README.md for the workloads, the metrics and the protocol. *)

open Mgrts_bench
module Json = Serve.Json

let now = Unix.gettimeofday

type opts = {
  workloads : Workload.t list;
  seed : int;
  seconds : float;
  traced : bool;
  smoke : bool;
  mgrts : string;
  out : string;
}

(* ------------------------------------------------------------------ *)
(* Run metadata. *)

let read_file f =
  match In_channel.with_open_text f In_channel.input_all with
  | text -> Some (String.trim text)
  | exception Sys_error _ -> None

(* The checkout's commit, read from .git without running git; "unknown"
   outside a git checkout or when the branch ref is packed. *)
let git_commit () =
  let resolved =
    match read_file ".git/HEAD" with
    | Some head when String.starts_with ~prefix:"ref: " head ->
      read_file (Filename.concat ".git" (String.sub head 5 (String.length head - 5)))
    | detached -> detached
  in
  Option.value ~default:"unknown" resolved

(* Online CPUs as the OS reports them, next to what OCaml recommends. *)
let nproc () =
  match read_file "/sys/devices/system/cpu/online" with
  | None -> 0
  | Some ranges ->
    List.fold_left
      (fun acc r ->
        match String.split_on_char '-' r with
        | [ a ] -> acc + if int_of_string_opt a <> None then 1 else 0
        | [ a; b ] -> (
          match (int_of_string_opt a, int_of_string_opt b) with
          | Some a, Some b -> acc + (b - a + 1)
          | _ -> acc)
        | _ -> acc)
      0 (String.split_on_char ',' ranges)

(* Host canary: the static pass on one pinned instance, in process.  It
   runs before and after the workload, so drift of the host within and
   across runs shows next to the numbers it would distort.  The instance
   (hyperperiod 84) takes tens of milliseconds, not hundreds. *)
let canary_instance =
  lazy
    (Workload.filtered
       (Workload.unfiltered ~seed:0)
       (fun inst ->
         Workload.ratio_le inst ~num:1 ~den:1
         && Rt_model.Taskset.hyperperiod inst.Workload.ts = 84)
       ())

let canary n =
  let inst = Lazy.force canary_instance in
  List.init n (fun _ ->
      let t0 = now () in
      ignore (Analysis.analyze inst.Workload.ts ~m:inst.Workload.m);
      1000. *. (now () -. t0))

(* ------------------------------------------------------------------ *)
(* Metrics. *)

let ms s = 1000. *. s
let count p xs = float_of_int (List.length (List.filter p xs))

(* Percentiles of an empty sample (a layer that never ran) read 0. *)
let pct p xs = if xs = [] then 0. else Stats.percentile p xs
let ratio a b = if b = 0. then 0. else a /. b

(* A response, by the run-wide index of its request. *)
type answer = { index : int; at : float; resp : Response.t }

(* One pass of a run: the cold starts timed before it, its requests from
   run-wide index [offset] on, and the daemon run that answered them. *)
type pass = {
  host : (string * float) list;
  setups : float list;
  offset : int;
  items : Workload.item array;
  lines : string array;
  run : Client.run;
}

(* The wall time a pass kept the daemon busy: first write to last
   response. *)
let busy_s p =
  match p.run.Client.replies with
  | [] -> 0.
  | replies ->
    List.fold_left (fun acc (r : Client.reply) -> Float.max acc r.Client.at) 0. replies
    -. p.run.Client.sent_at.(0)

(* The timings of each pass: latency p50 and p90, and throughput, scaled
   by the host factor [host] (see Host; 1. leaves them as measured).  Of
   a request's latency, only the part the daemon spent solving it or
   queued behind other solves is CPU work, and only that part is scaled;
   the rest, the pipe and the hand-offs between domains, is not, and on
   cache hits it is nearly all of the latency. *)
let pass_timings ~host ~sent_at ~pass_of ~passes (answers : answer list) =
  let latency_ms a =
    let r = a.resp in
    let cpu_s = r.Response.time_s +. r.Response.queue_s in
    ms (a.at -. sent_at.(a.index) -. ((1. -. (1. /. host)) *. cpu_s))
  in
  List.mapi
    (fun k p ->
      let own = List.filter (fun a -> pass_of.(a.index) = k) answers in
      let lat = List.map latency_ms own in
      [
        ("latency_p50_ms", Stats.percentile 50. lat);
        ("latency_p90_ms", Stats.percentile 90. lat);
        ("throughput_rps", host *. float_of_int (List.length own) /. busy_s p);
      ])
    passes

(* The run reports the median of each timing over its passes: every pass
   does the same work, so a slow spell of the host during a few passes
   moves the median little.  Cold starts are divided by the host factor
   [host], as [timings] were scaled by it. *)
let e2e_metrics ~host ~timings ~sent ~(answers : answer list) ~setups =
  let median_of name =
    let _, med, _ = Stats.quartiles (List.map (List.assoc name) timings) in
    med
  in
  [
    ("latency_p50_ms", median_of "latency_p50_ms");
    ("latency_p90_ms", median_of "latency_p90_ms");
    ("throughput_rps", median_of "throughput_rps");
    ("decided_ratio", count (fun a -> a.resp.Response.code = 0) answers /. float_of_int sent);
    ("setup_s", Stats.median setups /. host);
  ]

(* A response the daemon solved: neither the front door nor the cache
   answered it. *)
let solved (r : Response.t) = (not r.Response.cached) && r.Response.solver <> Some "front-door"

(* Decisive solves of an instance beyond its first in the same pass (each
   pass has a daemon of its own): the work a single-flight cache would
   have folded. *)
let duplicate_solves ~(items : Workload.item array) ~pass_of answers =
  let solves = Hashtbl.create 64 in
  List.iter
    (fun a ->
      let r = a.resp in
      if Response.decisive r <> None && solved r then begin
        let k = (pass_of.(a.index), items.(a.index).Workload.key) in
        Hashtbl.replace solves k (1 + Option.value ~default:0 (Hashtbl.find_opt solves k))
      end)
    answers;
  Hashtbl.fold (fun _ n acc -> acc + max 0 (n - 1)) solves 0

(* A counter of the daemons' final stats events, summed over the passes;
   0 when absent. *)
let stats_field passes k =
  Stats.sum
    (List.map
       (fun p ->
         let json =
           Option.bind p.run.Client.final_stats (fun s -> Result.to_option (Json.parse s))
         in
         Option.value ~default:0. (Option.bind (Option.bind json (Json.member k)) Json.to_float))
       passes)

let layer_metrics ~passes ~sent_at ~items ~pass_of ~answers ~(samples : Replay.sample list)
    ~canaries ~unchecked =
  let stat = stats_field passes in
  let responses = List.map (fun a -> a.resp) answers in
  let analysis = List.concat_map (fun s -> s.Replay.analysis) samples in
  let search = List.concat_map (fun s -> s.Replay.search) samples in
  let verify = List.concat_map (fun s -> s.Replay.verify) samples in
  let process = List.map (fun s -> s.Replay.process_ms) samples in
  let searched s = s.Replay.search <> [] in
  let analysis_decided = count (fun s -> s.Replay.analysis <> [] && not (searched s)) samples in
  let hits = stat "cache_hits" and misses = stat "cache_misses" in
  (* The tracing overhead, over requests both runs solved. *)
  let e2e_by_index = Hashtbl.create 256 in
  List.iter (fun a -> Hashtbl.replace e2e_by_index a.index a.resp) answers;
  let traced_s, untraced_s =
    List.fold_left
      (fun (t, u) (i, s) ->
        let traced = s.Replay.response in
        match Hashtbl.find_opt e2e_by_index i with
        | Some r
          when solved r && (not traced.Serve.Proto.r_cached)
               && traced.Serve.Proto.r_solver <> Some "front-door" ->
          (t +. traced.Serve.Proto.r_time_s, u +. r.Response.time_s)
        | _ -> (t, u))
      (0., 0.)
      (List.mapi (fun i s -> (i, s)) samples)
  in
  let limited s = searched s && s.Replay.response.Serve.Proto.r_verdict = Some "limit" in
  let hit_ms s =
    if s.Replay.response.Serve.Proto.r_cached then Some s.Replay.process_ms else None
  in
  let queue_ms = List.map (fun r -> ms r.Response.queue_s) responses in
  let overhead_ms a =
    ms (a.at -. sent_at.(a.index) -. a.resp.Response.queue_s -. a.resp.Response.time_s)
  in
  let bytes = List.map (fun r -> float_of_int r.Response.bytes) responses in
  let sum = Stats.sum in
  [
    ("analysis.calls", float_of_int (List.length analysis));
    ("analysis.decided", analysis_decided);
    ("analysis.decided_ratio", ratio analysis_decided (float_of_int (List.length analysis)));
    ("analysis.ms_p50", pct 50. analysis);
    ("analysis.ms_p90", pct 90. analysis);
    ("analysis.ms_total", sum analysis);
    ("search.calls", float_of_int (List.length search));
    ("search.limit", count limited samples);
    ("search.ms_p50", pct 50. search);
    ("search.ms_p90", pct 90. search);
    ("search.ms_total", sum search);
    ("verify.ms_total", sum verify);
    ("cache.hits", hits);
    ("cache.misses", misses);
    ("cache.stores", stat "cache_stores");
    ("cache.evictions", stat "cache_evictions");
    ("cache.hit_ratio", ratio hits (hits +. misses));
    ("cache.duplicate_solves", float_of_int (duplicate_solves ~items ~pass_of answers));
    ("cache.hit_ms_p50", pct 50. (List.filter_map hit_ms samples));
    ("scheduler.queue_ms_p50", pct 50. queue_ms);
    ("scheduler.queue_ms_p90", pct 90. queue_ms);
    ("scheduler.process_ms_p50", pct 50. process);
    ("scheduler.process_ms_p90", pct 90. process);
    ("scheduler.process_ms_total", sum process);
    ("scheduler.overhead_ms_p50", pct 50. (List.map overhead_ms answers));
    ("scheduler.front_door", stat "front_door_infeasible");
    ("scheduler.front_door_ratio", ratio (stat "front_door_infeasible") (stat "received"));
    ("scheduler.rejected", stat "rejected");
    ("scheduler.crashed", stat "crashed");
    ("fingerprint.us_p50", pct 50. (List.map (fun s -> s.Replay.fingerprint_us) samples));
    ("proto.parse_us_p50", pct 50. (List.map (fun s -> s.Replay.parse_us) samples));
    ("proto.render_us_p50", pct 50. (List.map (fun s -> s.Replay.render_us) samples));
    ("proto.response_bytes_mean", if bytes = [] then 0. else Stats.mean bytes);
    ( "daemon.peak_rss_mb",
      List.fold_left (fun acc p -> Float.max acc p.run.Client.peak_rss_mb) 0. passes );
    ("host.canary_ms", Stats.median canaries);
    ( "trace.overhead_pct",
      if untraced_s = 0. then 0. else 100. *. ((traced_s /. untraced_s) -. 1.) );
    ("trace.coverage_pct", 100. *. ratio (sum analysis +. sum search +. sum verify) (sum process));
    ("check.unchecked_verdicts", float_of_int unchecked);
  ]

(* ------------------------------------------------------------------ *)
(* One workload. *)

(* The values of [catalogue], in its order; a catalogue name the run did
   not compute is a bug in this file. *)
let select catalogue values =
  List.map
    (fun (m : Metrics.metric) ->
      match List.assoc_opt m.Metrics.name values with
      | Some v -> (m, v)
      | None -> failwith ("bench: metric not computed: " ^ m.Metrics.name))
    catalogue

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  go dir

let run_workload o w =
  let wname = Workload.name w in
  let args = Workload.daemon_args w in
  let started_at = now () in
  let canary_before = canary (if o.smoke then 1 else 5) in
  (* Whole passes, each to a fresh daemon, until [o.seconds] have passed:
     every run measures the corpus a whole number of times.  The cold
     starts are spread over the run in the same way, a few before each
     pass. *)
  let next_pass = Workload.passes w ~seed:o.seed in
  let t_start = now () in
  let rec go offset acc =
    if acc <> [] && (o.smoke || now () -. t_start >= o.seconds) then List.rev acc
    else begin
      let host = Host.probe (if o.smoke then 1 else 5) in
      let setups =
        List.init (if o.smoke then 3 else 7) (fun _ ->
            match Client.cold_start ~mgrts:o.mgrts ~args with Ok dt -> dt | Error e -> failwith e)
      in
      let items = next_pass () in
      let items = if o.smoke then Array.sub items 0 8 else items in
      let lines =
        Array.mapi
          (fun i (item : Workload.item) ->
            Workload.request_line ~id:(string_of_int (offset + i)) item.Workload.inst)
          items
      in
      let n = Array.length lines in
      let run =
        Client.run ~mgrts:o.mgrts ~args ~window:2
          ~more:(fun ~sent ~elapsed:_ -> sent < n)
          ~next:(fun i -> lines.(i))
      in
      go (offset + n) ({ host; setups; offset; items; lines; run } :: acc)
    end
  in
  let passes = go 0 [] in
  let items = Array.concat (List.map (fun p -> p.items) passes) in
  let total = Array.length items in
  let pass_of = Array.make total 0 and sent_at = Array.make total Float.nan in
  List.iteri
    (fun k p ->
      Array.fill pass_of p.offset (Array.length p.items) k;
      Array.blit p.run.Client.sent_at 0 sent_at p.offset (Array.length p.run.Client.sent_at))
    passes;
  let sent = List.fold_left (fun acc p -> acc + Array.length p.run.Client.sent_at) 0 passes in
  let lost = List.fold_left (fun acc p -> acc + p.run.Client.lost) 0 passes in
  let daemons_ok =
    List.for_all
      (fun p -> p.run.Client.daemon_ok && Array.length p.run.Client.sent_at = Array.length p.items)
      passes
  in
  (* One pass covers the corpus; half the e2e time caps it, and keeps a
     traced run of all three workloads within a few minutes. *)
  let samples =
    if o.traced then
      Replay.run ~config:(Workload.scheduler_config w) ~seconds:(o.seconds /. 2.)
        (Array.to_list (List.hd passes).lines)
    else []
  in
  let canary_after = canary (if o.smoke then 1 else 5) in
  let answers, unparsable =
    List.fold_left
      (fun (acc, bad) (rep : Client.reply) ->
        match Response.parse rep.Client.line with
        | Ok resp -> (
          match int_of_string_opt resp.Response.id with
          | Some index when index >= 0 && index < total && Float.is_finite sent_at.(index) ->
            ({ index; at = rep.Client.at; resp } :: acc, bad)
          | _ -> (acc, bad + 1))
        | Error _ -> (acc, bad + 1))
      ([], 0)
      (List.concat_map (fun p -> p.run.Client.replies) passes)
  in
  let answers = List.rev answers in
  let check =
    Check.run ~reference_wall_s:10. ~total_wall_s:20.
      (List.map (fun a -> (items.(a.index), a.resp)) answers)
  in
  let failed = lost + List.length (List.filter (fun a -> Response.failed a.resp) answers) in
  let correct = sent > 0 && check.Check.wrong = 0 && lost = 0 && unparsable = 0 && daemons_ok in
  let host = Host.factor (List.concat_map (fun p -> p.host) passes) in
  let setups = List.concat_map (fun p -> p.setups) passes in
  let e2e_at host =
    let timings = pass_timings ~host ~sent_at ~pass_of ~passes answers in
    (timings, e2e_metrics ~host ~timings ~sent ~answers ~setups)
  in
  let measured_timings, measured = e2e_at 1. in
  let values =
    if sent = 0 || answers = [] then []
    else
      snd (e2e_at host)
      @ ("host.factor", host)
        ::
        (if o.traced then
           layer_metrics ~passes ~sent_at ~items ~pass_of ~answers ~samples
             ~canaries:(canary_before @ canary_after) ~unchecked:check.Check.unchecked
         else [])
  in
  let e2e = if values = [] then [] else select Metrics.end_to_end values in
  let layers = if o.traced && values <> [] then select Metrics.per_layer values else [] in
  List.iter
    (fun ((m : Metrics.metric), v) ->
      Printf.printf "%s %s %.6g %s\n" wname m.Metrics.name v m.Metrics.unit)
    (e2e @ layers);
  Printf.printf "%s host factor %.4g; as measured:%s\n" wname host
    (String.concat "" (List.map (fun (k, v) -> Printf.sprintf " %s %.6g" k v) measured));
  Printf.printf
    "%s check requests=%d responses=%d wrong_verdicts=%d failed=%d lost=%d unchecked=%d\n" wname
    sent (List.length answers) check.Check.wrong failed lost check.Check.unchecked;
  let num x = Json.Num x and int i = Json.Num (float_of_int i) in
  let metrics_obj l =
    Json.Obj (List.map (fun ((m : Metrics.metric), v) -> (m.Metrics.name, num v)) l)
  in
  let distances =
    if w <> Workload.Repeat then []
    else
      [
        ( "repeat_distances",
          Json.Arr
            (List.map
               (fun (gap, ds) ->
                 Json.Obj
                   [
                     ("nominal", int gap);
                     ("copies", int (List.length ds));
                     ("min", int (List.fold_left min max_int ds));
                     ("max", int (List.fold_left max 0 ds));
                     ("median", num (Stats.median (List.map float_of_int ds)));
                   ])
               (Workload.realized_distances (List.hd passes).items)) );
      ]
  in
  let result =
    Json.Obj
      ([
         ("workload", Json.Str wname);
         ("seed", int o.seed);
         ("seconds", num o.seconds);
         ("traced", Json.Bool o.traced);
         ("smoke", Json.Bool o.smoke);
         ("commit", Json.Str (git_commit ()));
         ("nproc", int (nproc ()));
         ("recommended_domain_count", int (Domain.recommended_domain_count ()));
         ("started_at", num started_at);
         ("daemon_args", Json.Arr (List.map (fun a -> Json.Str a) args));
         ("canary_before_ms", num (Stats.median canary_before));
         ("canary_after_ms", num (Stats.median canary_after));
         ("passes", int (List.length passes));
         ("host_factor", num host);
         ("measured", Json.Obj (List.map (fun (k, v) -> (k, num v)) measured));
         ( "pass_timings",
           Json.Arr
             (List.map
                (fun t -> Json.Obj (List.map (fun (k, v) -> (k, num v)) t))
                measured_timings) );
         ("requests", int sent);
         ("responses", int (List.length answers));
         ("failed", int failed);
         ("failed_ratio", num (ratio (float_of_int failed) (float_of_int (max 1 sent))));
         ("wrong_verdicts", int check.Check.wrong);
         ("unchecked_verdicts", int check.Check.unchecked);
         ("correct", Json.Bool correct);
         ("metrics", metrics_obj (e2e @ layers));
       ]
      @ distances)
  in
  mkdir_p o.out;
  let file =
    Filename.concat o.out
      (Printf.sprintf "%s-seed%d-%s-%.0f.json" wname o.seed
         (if o.traced then "traced" else "e2e")
         (started_at *. 1000.))
  in
  Out_channel.with_open_text file (fun oc -> output_string oc (Json.to_string result ^ "\n"));
  Printf.eprintf "%s: result written to %s\n%!" wname file;
  (* Every metric of the mode printed, each a finite number. *)
  let complete =
    e2e <> []
    && (layers <> [] || not o.traced)
    && List.for_all (fun (_, v) -> Float.is_finite v) (e2e @ layers)
  in
  if not (correct && complete) then
    Printf.eprintf
      "%s: FAILED: %d requests, %d responses, %d unparsable, %d lost, %d wrong, %s, %s\n%s%!"
      wname sent (List.length answers) unparsable lost check.Check.wrong
      (if daemons_ok then "every daemon exited 0" else "a daemon failed")
      (if complete then "all metrics printed" else "metrics missing or not finite")
      (String.concat "" (List.map (fun n -> "  wrong: " ^ n ^ "\n") check.Check.notes));
  let line =
    Json.to_string
      (Json.Obj
         [
           ("correct", Json.Bool correct);
           ("attempted", int sent);
           ("failed", int failed);
           ( "metrics",
             Json.Obj
               (List.map
                  (fun ((m : Metrics.metric), v) ->
                    ( m.Metrics.name,
                      Json.Obj [ ("value", num v); ("unit", Json.Str m.Metrics.unit) ] ))
                  (if o.traced then layers else e2e)) );
         ])
  in
  (correct && complete, line)

(* ------------------------------------------------------------------ *)
(* Command line. *)

let usage =
  "bench.exe [--workload fresh|tight|repeat] [--seed N] [--seconds S] [--trace 0|1] [--smoke] \
   [--mgrts PATH] [--out DIR]\n\
   bench.exe compare PARENT_DIR CHANGE_DIR"

(* BENCHMARK.json's run_seconds. *)
let default_seconds = 30.

let default_mgrts () =
  (* Next to this executable in the dune build tree. *)
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "mgrts.exe")

let parse_opts argv =
  let workloads = ref Workload.all and seed = ref 42 and seconds = ref default_seconds in
  let traced = ref false and smoke = ref false in
  let mgrts = ref "" and out = ref "benchmark/results" in
  let set_workload s =
    match Workload.of_name s with
    | Some w -> workloads := [ w ]
    | None -> raise (Arg.Bad ("unknown workload " ^ s))
  in
  let spec =
    [
      ("--workload", Arg.String set_workload, "NAME fresh, tight or repeat (default: all three)");
      ("--seed", Arg.Set_int seed, "N orders the passes (default 42)");
      ( "--seconds",
        Arg.Set_float seconds,
        "S send whole passes until S seconds have passed (default 30)" );
      ( "--trace",
        Arg.Int (fun t -> traced := t <> 0),
        "0|1 1 adds the traced replay and prints the per-layer metrics" );
      ("--traced", Arg.Set traced, " same as --trace 1");
      ("--smoke", Arg.Set smoke, " 8 requests per workload, traced, every metric must print");
      ("--mgrts", Arg.Set_string mgrts, "PATH the mgrts executable (default: next to this one)");
      ("--out", Arg.Set_string out, "DIR where result JSONs go (default benchmark/results)");
    ]
  in
  let anon a = raise (Arg.Bad ("unexpected argument " ^ a)) in
  Arg.parse_argv ~current:(ref 0) argv spec anon usage;
  if !smoke then traced := true;
  {
    workloads = !workloads;
    seed = !seed;
    seconds = !seconds;
    traced = !traced;
    smoke = !smoke;
    mgrts = (if !mgrts = "" then default_mgrts () else !mgrts);
    out = !out;
  }

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Leave through [exit], so the client's exit hook reaps its daemons. *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint ];
  match Array.to_list Sys.argv with
  | _ :: "compare" :: [ parent; change ] ->
    Compare.report ~parent ~change;
    exit 0
  | _ :: "compare" :: _ ->
    prerr_endline usage;
    exit 2
  | _ -> (
    match parse_opts Sys.argv with
    | exception Arg.Bad msg ->
      prerr_string msg;
      exit 2
    | exception Arg.Help msg ->
      print_string msg;
      exit 0
    | o ->
      if not (Sys.file_exists o.mgrts) then begin
        Printf.eprintf "bench: %s not found; build it first (benchmark/run.sh does)\n" o.mgrts;
        exit 2
      end;
      let ok =
        List.fold_left
          (fun ok w ->
            let good, line = run_workload o w in
            print_endline line;
            ok && good)
          true o.workloads
      in
      exit (if ok then 0 else 1))
