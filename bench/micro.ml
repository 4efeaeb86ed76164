(* Bechamel micro-benchmarks for the solver kernels: one Test.make per
   component whose inner-loop performance the tables depend on. *)

open Bechamel
open Toolkit

let running_example = Rt_model.Examples.running_example

let prng_test =
  Test.make ~name:"prng.int" (Staged.stage (let rng = Prelude.Prng.create ~seed:1 in fun () -> ignore (Prelude.Prng.int rng 1000)))

let bitset_test =
  Test.make ~name:"bitset.iter"
    (Staged.stage
       (let set = Prelude.Bitset.full 256 in
        fun () ->
          let acc = ref 0 in
          Prelude.Bitset.iter (fun v -> acc := !acc + v) set;
          ignore !acc))

let windows_test =
  Test.make ~name:"windows.build"
    (Staged.stage (fun () -> ignore (Rt_model.Windows.build running_example)))

let csp1_test =
  Test.make ~name:"csp1.solve(example)"
    (Staged.stage (fun () ->
         ignore (Encodings.Csp1.solve ~seed:1 running_example ~m:2)))

let csp1_sat_test =
  Test.make ~name:"csp1-sat.solve(example)"
    (Staged.stage (fun () -> ignore (Encodings.Csp1_sat.solve running_example ~m:2)))

(* The paper's search (memo off) next to the memo-on default, on the
   running example: 12 slots, so what these measure is mostly the fixed
   cost of one solve — context, engine rebind, schedule. *)
let csp2_test =
  Test.make ~name:"csp2-dc.solve(example)"
    (Staged.stage (fun () ->
         ignore (Csp2.Opt.solve ~memo_mb:0 ~heuristic:Csp2.Heuristic.DC running_example ~m:2)))

let csp2_opt_test =
  Test.make ~name:"csp2-opt-dc.solve(example)"
    (Staged.stage (fun () ->
         ignore (Csp2.Opt.solve ~heuristic:Csp2.Heuristic.DC running_example ~m:2)))

(* Instance 54 of the benchmark's tight corpus: the LLF witness misses
   it, so a serve miss hands it to the analyzer's flow; this is the
   search the flow saves. *)
let tight_searched =
  Rt_model.Taskset.of_tuples
    [
      (1, 1, 3, 4); (3, 2, 7, 7); (4, 1, 1, 5); (0, 3, 3, 4); (5, 4, 6, 6);
      (0, 2, 2, 4); (4, 3, 3, 5); (6, 3, 7, 7); (0, 1, 2, 7); (4, 7, 7, 7);
    ]

let csp2_tight_test =
  Test.make ~name:"csp2-dc.solve(tight)"
    (Staged.stage (fun () ->
         ignore (Csp2.Opt.solve ~memo_mb:0 ~heuristic:Csp2.Heuristic.DC tight_searched ~m:5)))

let ibits_test =
  Test.make ~name:"ibits.iter"
    (Staged.stage
       (let set = Prelude.Ibits.create 256 in
        let i = ref 0 in
        while !i < 256 do
          Prelude.Ibits.set set !i;
          i := !i + 3
        done;
        fun () ->
          let acc = ref 0 in
          Prelude.Ibits.iter (fun v -> acc := !acc + v) set;
          ignore !acc))

(* The no-op overhead guard: with recording off (the default in this
   process), a solver checkpoint pays one atomic load in [enabled] plus the
   early return of [heartbeat]/[with_span].  These should cost a few ns —
   if they regress, every backend's hot loop regresses with them. *)
let telemetry_disabled_heartbeat_test =
  Test.make ~name:"telemetry.heartbeat(off)"
    (Staged.stage (fun () -> Telemetry.heartbeat ~name:"bench" ~nodes:1 ~fails:0 ~depth:1))

let telemetry_disabled_span_test =
  Test.make ~name:"telemetry.with_span(off)"
    (Staged.stage (fun () -> Telemetry.with_span "bench" (fun () -> ())))

(* Same guard for failpoints: with nothing armed (the default), a [hit] in
   a solver checkpoint is one atomic load on [armed_flag]. *)
let failpoint_disarmed_test =
  Test.make ~name:"failpoint.hit(off)"
    (Staged.stage (fun () -> Resilience.Failpoint.hit "bench"))

(* Guard for the [Int.compare] clause-dedup fix in [Sat.Solver.add_clause]:
   encoding-bound instances add tens of thousands of clauses, and a
   polymorphic [compare] in the dedup sort is pure constant-factor loss.
   The run measures clause ingestion (create + add), the phase the sort
   sits in. *)
let sat_clause_dedup_test =
  Test.make ~name:"sat.clause-dedup"
    (Staged.stage (fun () ->
         let s = Sat.Solver.create () in
         let vs = Array.init 24 (fun _ -> Sat.Solver.new_var s) in
         for c = 0 to 63 do
           Sat.Solver.add_clause s
             [
               Sat.Solver.pos vs.(c mod 24);
               Sat.Solver.neg vs.((c + 7) mod 24);
               Sat.Solver.pos vs.((c + 13) mod 24);
               Sat.Solver.pos vs.(c mod 24);
             ]
         done))

(* The work-stealing deque's owner path: push/pop must stay in the few-ns
   range or lazy splitting would tax every expansion. *)
let deque_test =
  Test.make ~name:"deque.push-pop"
    (Staged.stage
       (let d = Prelude.Deque.create () in
        fun () ->
          for i = 0 to 15 do
            Prelude.Deque.push d i
          done;
          for _ = 0 to 15 do
            ignore (Prelude.Deque.pop d)
          done))

let sim_test =
  Test.make ~name:"sim.edf(example)"
    (Staged.stage (fun () -> ignore (Sched.Sim.run running_example ~m:2)))

let generator_test =
  Test.make ~name:"generator.instance"
    (Staged.stage
       (let rng = Prelude.Prng.create ~seed:3 in
        let params = Gen.Generator.default ~n:10 ~m:(Gen.Generator.Fixed_m 5) ~tmax:7 in
        fun () -> ignore (Gen.Generator.generate rng params)))

(* One pinned n = 10, m = 5, H = 420 instance of the paper's regime and
   its witness from the deterministic memo-off search.  [check_cyclic] is
   what a serve cache hit runs; [check] on the same schedule is its plain
   sibling, so the pair shows what the cyclic form costs on top.  The
   LLF witness on the same instance is what a feasible serve miss runs
   first (845 simulated slots, then [Verify.check]). *)
let pinned_5x420_taskset =
  Rt_model.Taskset.of_tuples
    [
      (2, 2, 2, 4); (3, 3, 6, 7); (3, 1, 4, 5); (5, 3, 6, 6); (2, 1, 4, 4);
      (1, 1, 1, 6); (3, 4, 7, 7); (0, 4, 7, 7); (3, 1, 5, 5); (0, 2, 7, 7);
    ]

let pinned_5x420 =
  lazy
    (let ts = pinned_5x420_taskset in
     match Csp2.Opt.solve ~memo_mb:0 ~heuristic:Csp2.Heuristic.DC ts ~m:5 with
     | Encodings.Outcome.Feasible sched, _ -> (ts, sched)
     | _ -> failwith "micro: the pinned 5x420 instance has no witness")

let verify_check_test =
  Test.make ~name:"verify.check(5x420)"
    (Staged.stage (fun () ->
         let ts, sched = Lazy.force pinned_5x420 in
         ignore (Rt_model.Verify.check ts sched)))

let llf_witness_test =
  Test.make ~name:"sim.llf-witness(5x420)"
    (Staged.stage (fun () ->
         ignore (Sched.Sim.llf_witness ~budget:Prelude.Timer.unlimited pinned_5x420_taskset ~m:5)))

(* Horn's max flow on the same instance: what the analyzer runs once the
   cheap passes leave an instance, schedule included. *)
let flow_test =
  Test.make ~name:"analysis.flow(5x420)"
    (Staged.stage (fun () ->
         ignore (Analysis.Flow.solve ~spend:(fun _ -> true) pinned_5x420_taskset ~m:5)))

let verify_check_cyclic_test =
  Test.make ~name:"verify.check_cyclic(5x420)"
    (Staged.stage (fun () ->
         let ts, sched = Lazy.force pinned_5x420 in
         ignore (Rt_model.Verify.check_cyclic ts sched)))

let scheduler () =
  Serve.Scheduler.create
    ~config:{ (Serve.Scheduler.default_config ()) with workers = 1; jobs_per_request = 1 }
    ~emit:ignore ()

(* A request for [ts] on 5 processors, schedule included, as the
   benchmark sends it. *)
let request ?(no_cache = false) ts =
  {
    Serve.Proto.id = "micro";
    tuples =
      Array.to_list
        (Array.map
           (fun (tk : Rt_model.Task.t) -> Rt_model.Task.(tk.offset, tk.wcet, tk.deadline, tk.period))
           (Rt_model.Taskset.tasks ts));
    m = 5;
    solver = None;
    wall_s = None;
    nodes = None;
    seed = 0;
    want_schedule = true;
    no_cache;
  }

(* A warm feasible cache hit on the same instance, as a serve worker runs
   it (fingerprint, lookup, verify-on-hit), and the rendering of its
   response line, schedule included. *)
let pinned_hit =
  lazy
    (let t = scheduler () in
     let req = request pinned_5x420_taskset in
     ignore (Serve.Scheduler.process t ~queue_s:0. req);
     let hit = Serve.Scheduler.process t ~queue_s:0. req in
     if not hit.Serve.Proto.r_cached then failwith "micro: the pinned request did not hit";
     (t, req, hit))

let serve_hit_test =
  Test.make ~name:"serve.hit(5x420)"
    (Staged.stage (fun () ->
         let t, req, _ = Lazy.force pinned_hit in
         ignore (Serve.Scheduler.process t ~queue_s:0. req)))

let proto_render_test =
  Test.make ~name:"proto.render(5x420)"
    (Staged.stage (fun () ->
         let _, _, hit = Lazy.force pinned_hit in
         ignore (Serve.Proto.response_json hit)))

(* Instance 9 of the benchmark's tight corpus, which the LLF witness
   decides; instance 54 ([tight_searched]) goes on to the flow. *)
let tight_witnessed =
  Rt_model.Taskset.of_tuples
    [
      (2, 4, 7, 7); (0, 3, 4, 5); (4, 5, 6, 6); (5, 2, 6, 6); (2, 1, 3, 4);
      (3, 3, 6, 6); (5, 1, 3, 6); (0, 6, 6, 6); (3, 2, 4, 5); (4, 1, 3, 7);
    ]

(* A serve cache miss as a worker answers it and the daemon writes it:
   [Scheduler.process] (front door, fingerprint, static pass, verify)
   plus [Proto.response_json].  [no_cache] makes every call a miss, and
   skips only the store, which copies nothing. *)
let serve_miss ts =
  let t = scheduler () and req = request ~no_cache:true ts in
  fun () -> Serve.Proto.response_json (Serve.Scheduler.process t ~queue_s:0. req)

let serve_miss_witness = serve_miss tight_witnessed
let serve_miss_flow = serve_miss tight_searched

let serve_miss_witness_test =
  Test.make ~name:"serve.miss(tight,witness)" (Staged.stage serve_miss_witness)

let serve_miss_flow_test = Test.make ~name:"serve.miss(tight,flow)" (Staged.stage serve_miss_flow)

(* Words one warm call allocates: all of them, and those in blocks over
   256 words, which go straight to the major heap.  A minor collection on
   each side flushes the counters; the least of three calls is kept. *)
let words_per_call f =
  ignore (f ());
  let once () =
    Gc.minor ();
    let s0 = Gc.quick_stat () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor ();
    let s1 = Gc.quick_stat () in
    let major = s1.Gc.major_words -. s0.Gc.major_words in
    let promoted = s1.Gc.promoted_words -. s0.Gc.promoted_words in
    (s1.Gc.minor_words -. s0.Gc.minor_words +. major -. promoted, major -. promoted)
  in
  List.fold_left
    (fun (a, b) (c, d) -> (Float.min a c, Float.min b d))
    (Float.infinity, Float.infinity)
    (List.init 3 (fun _ -> once ()))

let tests =
  Test.make_grouped ~name:"mgrts" ~fmt:"%s/%s"
    [
      prng_test;
      bitset_test;
      ibits_test;
      windows_test;
      csp1_test;
      csp1_sat_test;
      csp2_test;
      csp2_tight_test;
      csp2_opt_test;
      sat_clause_dedup_test;
      deque_test;
      sim_test;
      llf_witness_test;
      flow_test;
      generator_test;
      verify_check_test;
      verify_check_cyclic_test;
      serve_hit_test;
      proto_render_test;
      serve_miss_witness_test;
      serve_miss_flow_test;
      telemetry_disabled_heartbeat_test;
      telemetry_disabled_span_test;
      failpoint_disarmed_test;
    ]

let run () =
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name result acc -> (name, result) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  Printf.printf "%-32s %16s\n" "benchmark" "ns/run";
  List.iter
    (fun (name, result) ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Printf.printf "%-32s %16.1f\n" name est
      | Some _ | None -> Printf.printf "%-32s %16s\n" name "n/a")
    rows;
  Printf.printf "\n%-32s %16s %16s\n" "words per request" "all" "large blocks";
  List.iter
    (fun (name, f) ->
      let all, large = words_per_call f in
      Printf.printf "%-32s %16.0f %16.0f\n" name all large)
    [ ("serve.miss(tight,witness)", serve_miss_witness); ("serve.miss(tight,flow)", serve_miss_flow) ]
