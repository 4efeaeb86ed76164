(* The three request streams of the benchmark, all drawn from the paper's
   Section VII regime (n = 10 tasks, m = 5 processors, Tmax = 7, D-first
   sampling with offsets).

   Each workload has a fixed corpus of distinct instances, and a run sends
   it in whole passes, each pass to a fresh daemon, in an order drawn from
   the seed.  So every run measures the same work, and the seed changes
   only its order.  Per-request cost spans two orders of magnitude here,
   and with instances drawn from the seed the mix alone moved p90 and
   throughput by 20-30% between seeds, while a run has time for only a
   few hundred requests.  The daemon only ever sees the NDJSON lines made
   from the corpus and the seed. *)

open Rt_model
module Generator = Gen.Generator

type t = Fresh | Tight | Repeat

let all = [ Fresh; Tight; Repeat ]
let name = function Fresh -> "fresh" | Tight -> "tight" | Repeat -> "repeat"
let of_name s = List.find_opt (fun w -> name w = s) all
let index = function Fresh -> 0 | Tight -> 1 | Repeat -> 2

(* Workload k orders its passes from seed S + k. *)
let stream_seed w ~seed = seed + index w

(* Fresh runs on the daemon's defaults: one worker on two cores, so the
   second request in flight waits in the queue.  Tight and repeat run two
   single-domain workers.  On tight, queueing would make each latency the
   sum of two service times, and the median would sit on the edge between
   "one expensive request" and "two", jumping by half between runs.  On
   repeat, adjacent duplicates are solved side by side: the case a
   single-flight cache would fold. *)
let daemon_shape = function Fresh -> None | Tight | Repeat -> Some (2, 1)

let daemon_args w =
  match daemon_shape w with
  | None -> []
  | Some (workers, jobs) -> [ "--workers"; string_of_int workers; "--jobs"; string_of_int jobs ]

(* The same configuration, for the in-process traced replay. *)
let scheduler_config w =
  let base = Serve.Scheduler.default_config () in
  match daemon_shape w with
  | None -> base
  | Some (workers, jobs_per_request) -> { base with Serve.Scheduler.workers; jobs_per_request }

let params = Generator.default ~n:10 ~m:(Generator.Fixed_m 5) ~tmax:7

type instance = { ts : Taskset.t; m : int }

(* Instance [i] of [unfiltered ~seed] equals [(Generator.batch ~seed ~count)].(i). *)
let unfiltered ~seed =
  let master = Prelude.Prng.create ~seed in
  fun () ->
    let ts, m = Generator.generate (Prelude.Prng.split master) params in
    { ts; m }

(* Exact utilization-ratio tests: U/m = num / (den * m). *)
let ratio_le inst ~num:p ~den:q =
  let num, den = Taskset.utilization_num_den inst.ts in
  q * num <= p * inst.m * den

(* Difficulty concentrates as U/m approaches 1 from below. *)
let is_tight inst = (not (ratio_le inst ~num:19 ~den:20)) && ratio_le inst ~num:1 ~den:1

(* Comfortably feasible-looking instances, so repeats are mostly decided
   and therefore cacheable. *)
let is_repeatable inst = ratio_le inst ~num:9 ~den:10

let rec filtered next keep () =
  let inst = next () in
  if keep inst then inst else filtered next keep ()

(* ------------------------------------------------------------------ *)
(* Corpus and passes. *)

(* One request of a pass: [key] names the distinct corpus instance, so
   copies of one instance, in one pass or across passes, share it. *)
type item = { key : int; inst : instance }

(* Distinct instances per corpus, sized so one pass takes a few seconds
   on a 2-core host and a run holds several passes. *)
let corpus_size = function Fresh -> 64 | Tight -> 64 | Repeat -> 32

(* The corpus is the first [corpus_size] instances of generator seed k
   that pass the workload's filter.  It does not depend on the run's
   seed. *)
let corpus =
  let make w =
    let next = unfiltered ~seed:(index w) in
    let keep = match w with Fresh -> fun _ -> true | Tight -> is_tight | Repeat -> is_repeatable in
    Array.init (corpus_size w) (fun key -> { key; inst = filtered next keep () })
  in
  let built = List.map (fun w -> (w, lazy (make w))) all in
  fun w -> Lazy.force (List.assoc w built)

(* Nominal distances, in requests, between consecutive copies of a repeat
   instance.  With two requests in flight the distance-1 copy is solved
   beside the first (a single-flight cache would fold it); the later
   copies are the cache's reads.  Five copies put the share of reads near
   3/5, so the latency median sits inside the hit cluster instead of on
   the edge between hits and solves.  The gaps stay short next to a pass:
   with a span of 85 (gaps 1, 4, 16, 64), most gap-64 copies of a pass
   fell in its last stretch and came out closer than their gap. *)
let repeat_gaps = [ 1; 4; 8; 16 ]

(* Greedy placement: each instance in turn takes the first free slot
   after the previous instance's first copy, and its later copies each
   take the first free slot at least their gap after the copy before.
   The slots are then read in order, skipping the free ones, so a pass
   has exactly five copies of every instance.  Only skipped slots near
   the end of a pass bring a copy closer than its gap to the one before. *)
let repeated (uniques : item array) =
  let claimed = Hashtbl.create 256 in
  let rec free p = if Hashtbl.mem claimed p then free (p + 1) else p in
  ignore
    (Array.fold_left
       (fun start item ->
         let p = free start in
         Hashtbl.replace claimed p item;
         ignore
           (List.fold_left
              (fun prev gap ->
                let q = free (prev + gap) in
                Hashtbl.replace claimed q item;
                q)
              p repeat_gaps);
         p + 1)
       0 uniques);
  Hashtbl.fold (fun p item acc -> (p, item) :: acc) claimed []
  |> List.sort (fun (p, _) (q, _) -> compare p q)
  |> List.map snd |> Array.of_list

(* [passes w ~seed] returns successive passes: pass i is the corpus in
   the order of the i-th generator split from the seed, and for repeat,
   with its copies placed. *)
let passes w ~seed =
  let master = Prelude.Prng.create ~seed:(stream_seed w ~seed) in
  fun () ->
    let order = Array.copy (corpus w) in
    Prelude.Prng.shuffle (Prelude.Prng.split master) order;
    match w with Fresh | Tight -> order | Repeat -> repeated order

(* Distances between consecutive copies, in requests, grouped by nominal
   gap: [(gap, realized distances)]. *)
let realized_distances (items : item array) =
  let last = Hashtbl.create 64 and copies = Hashtbl.create 64 in
  let by_gap = Array.make (List.length repeat_gaps) [] in
  Array.iteri
    (fun i { key; _ } ->
      (match Hashtbl.find_opt last key with
      | Some prev ->
        let c = Hashtbl.find copies key in
        if c <= Array.length by_gap then by_gap.(c - 1) <- (i - prev) :: by_gap.(c - 1);
        Hashtbl.replace copies key (c + 1)
      | None -> Hashtbl.replace copies key 1);
      Hashtbl.replace last key i)
    items;
  List.mapi (fun j gap -> (gap, List.rev by_gap.(j))) repeat_gaps

(* ------------------------------------------------------------------ *)
(* Wire format. *)

(* Per-request budgets.  The search node budget is what requests
   normally exhaust: it is deterministic, so the same requests go
   undecided on any host, and a request that exhausts it costs about what
   a static pass does (20 000 classic nodes are a few tens of
   milliseconds), not a whole second.  With the 1 s wall budget alone,
   the one [tight] request in ten that ran out took over half of a run's
   wall time, and throughput and median latency spread 20-30% across
   seeds.  A wall budget short enough to matter is worse: a slow spell
   on the host pushes the static pass past it, and whole runs go
   undecided.  The wall budget stays as the daemon's safety net. *)
let wall_s = 1.0
let nodes = 20_000

(* Every request asks for the witness schedule so the bench can verify
   each feasible answer. *)
let request_line ~id inst =
  let module Json = Serve.Json in
  let num i = Json.Num (float_of_int i) in
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Str id);
         ( "taskset",
           Json.Arr
             (Array.to_list
                (Array.map
                   (fun (t : Task.t) ->
                     Json.Arr (List.map num Task.[ t.offset; t.wcet; t.deadline; t.period ]))
                   (Taskset.tasks inst.ts))) );
         ("m", num inst.m);
         ("wall_s", Json.Num wall_s);
         ("nodes", num nodes);
         ("schedule", Json.Bool true);
       ])
