(* Horn's max flow ([Analysis.Flow]), the exact test of MGRTS-ID on
   identical platforms: against a brute-force oracle written from the
   paper's constraints on tiny instances, against every backend run
   without the pre-search pass, its Hall certificates and their mutants,
   its work budget and its allocation. *)

open Rt_model
module O = Encodings.Outcome
module A = Analysis
module Flow = Analysis.Flow

let check = Alcotest.check
let qtest = Test_util.qtest
let flow ts ~m = Flow.solve ~spend:(fun _ -> true) ts ~m

(* The flow's verdict, once its artifact checks out: a schedule that
   [Verify.check] accepts, or a Hall set that [Certificate.validate]
   recounts. *)
let flow_verdict ts ~m =
  match flow ts ~m with
  | Flow.Schedule sched ->
    if Verify.check ts sched = Ok () then Ok true
    else Error "flow schedule fails verification"
  | Flow.Cut cert ->
    if A.Certificate.validate ts (Platform.identical ~m) cert then Ok false
    else Error "Hall set fails validation"
  | Flow.Stopped -> Error "stopped with an unlimited budget"

let decided = function
  | O.Feasible _ -> Some true
  | O.Infeasible -> Some false
  | O.Limit | O.Memout _ -> None

(* ------------------------------------------------------------------ *)
(* Tiny instances: the flow equals brute force                          *)

(* n <= 4, periods <= 4 (so T <= 12), m <= 2. *)
let tiny_gen =
  let open QCheck2.Gen in
  Test_util.taskset_gen ~nmax:4 ~tmax:4 () >>= fun ts ->
  int_range 1 2 >>= fun m -> return (ts, m)

let prop_equals_brute_force =
  qtest ~count:1000 "flow = brute force on tiny instances" tiny_gen
    ~print:Test_util.print_instance (fun (ts, m) ->
      match flow_verdict ts ~m with
      | Ok feasible -> feasible = Flow_ref.feasible ts ~m
      | Error e -> QCheck2.Test.fail_report e)

(* ------------------------------------------------------------------ *)
(* Every backend, without the pass, against the flow                    *)

let budget () = Prelude.Timer.budget ~wall_s:1.0 ~nodes:20_000 ()

let backends ts ~m =
  [
    ("csp1-FD", fun () -> decided (fst (Encodings.Csp1.solve ~budget:(budget ()) ts ~m)));
    ("csp1-SAT", fun () -> decided (fst (Encodings.Csp1_sat.solve ~budget:(budget ()) ts ~m)));
    ("csp2-FD", fun () -> decided (fst (Encodings.Csp2_fd.solve ~budget:(budget ()) ts ~m)));
    ("csp2-opt", fun () -> decided (fst (Csp2.Opt.solve ~budget:(budget ()) ts ~m)));
    ( "csp2-opt parallel",
      fun () -> decided (fst (Csp2.Opt.solve_parallel ~jobs:2 ~budget:(budget ()) ts ~m)) );
    ( "portfolio",
      fun () -> decided (Portfolio.solve ~jobs:2 ~budget:(budget ()) ts ~m).Portfolio.verdict );
    ( "LLF witness",
      fun () ->
        Option.map (fun _ -> true) (Sched.Sim.llf_witness ~budget:(budget ()) ts ~m) );
  ]

let prop_backends_agree =
  qtest ~count:150 "every backend agrees with the flow"
    (Test_util.instance_gen ())
    ~print:Test_util.print_instance
    (fun (ts, m) ->
      match flow_verdict ts ~m with
      | Error e -> QCheck2.Test.fail_report e
      | Ok feasible ->
        List.for_all
          (fun (name, run) ->
            match run () with
            | Some v when v <> feasible ->
              QCheck2.Test.fail_reportf "%s says %b, the flow %b" name v feasible
            | _ -> true)
          (backends ts ~m))

(* Arbitrary deadlines: the clone path, with and without the pass,
   decides what the flow decides on the clone system.  With the pass the
   flow's own schedule crosses the clone mapping and both checks. *)
let prop_clone_path =
  qtest ~count:150 "clone path agrees with the flow"
    QCheck2.Gen.(
      Test_util.loose_taskset_gen () >>= fun ts ->
      int_range 1 (Taskset.size ts + 1) >>= fun m -> return (ts, m))
    ~print:Test_util.print_instance
    (fun (ts, m) ->
      let cloned = Clone.cloned (Clone.transform ts) in
      match flow_verdict cloned ~m with
      | Error e -> QCheck2.Test.fail_report e
      | Ok feasible ->
        let bare = decided (fst (Core.solve ~analyze:false ~budget:(budget ()) ts ~m)) in
        let with_pass = decided (fst (Core.solve ts ~m)) in
        (bare = None || bare = Some feasible) && with_pass = Some feasible)

(* The serve cache path: a miss solves and stores, and a relabeled repeat
   is answered from the cache after verify-on-hit.  The daemon has no
   switch for the pass, so the miss is the pass's verdict; the hit is
   the path under test. *)
let prop_serve_cache =
  qtest ~count:100 "serve cache path agrees with the flow"
    (Test_util.instance_gen ())
    ~print:Test_util.print_instance
    (fun (ts, m) ->
      match flow_verdict ts ~m with
      | Error e -> QCheck2.Test.fail_report e
      | Ok feasible ->
        let sched =
          Serve.Scheduler.create
            ~config:
              {
                (Serve.Scheduler.default_config ()) with
                Serve.Scheduler.workers = 1;
                jobs_per_request = 1;
              }
            ~emit:(fun _ -> ())
            ()
        in
        let request tuples =
          {
            Serve.Proto.id = "flow";
            tuples;
            m;
            solver = None;
            wall_s = None;
            nodes = None;
            seed = 0;
            want_schedule = true;
            no_cache = false;
          }
        in
        let tuples =
          Array.to_list
            (Array.map
               (fun (t : Task.t) -> (t.offset, t.wcet, t.deadline, t.period))
               (Taskset.tasks ts))
        in
        let expected = Some (if feasible then "feasible" else "infeasible") in
        let first = Serve.Scheduler.process sched ~queue_s:0. (request tuples) in
        let hit = Serve.Scheduler.process sched ~queue_s:0. (request (List.rev tuples)) in
        (* Past the front door (U <= m), the repeat is a cache hit. *)
        first.Serve.Proto.r_verdict = expected
        && hit.Serve.Proto.r_verdict = expected
        && (hit.Serve.Proto.r_cached || A.utilization_exceeds ts ~m))

(* ------------------------------------------------------------------ *)
(* Hall certificates                                                    *)

(* Four jobs forced into [0, 4) on one processor; utilization 1 and the
   hyperperiod supply leave it to the flow. *)
let interval_trap =
  Taskset.of_tuples [ (0, 3, 4, 6); (0, 4, 5, 12); (10, 1, 2, 12); (5, 1, 1, 12) ]

(* The Hall step of a cut as (jobs, demand, supply), and the certificate
   a mutated step makes. *)
let hall_of (cert : A.Certificate.t) =
  match cert.A.Certificate.steps with
  | [ A.Certificate.Hall { jobs; demand; supply } ] -> Some (jobs, demand, supply)
  | _ -> None

let with_hall (cert : A.Certificate.t) (jobs, demand, supply) =
  { cert with A.Certificate.steps = [ A.Certificate.Hall { jobs; demand; supply } ] }

(* Each mutant must fail: a job dropped from the set, demand + 1,
   supply − 1, and a task whose jobs are in the set shifted by one slot
   (the recount of its supply then differs). *)
let test_mutants () =
  let ts = interval_trap and m = 1 in
  let cert =
    match flow ts ~m with
    | Flow.Cut cert -> cert
    | Flow.Schedule _ | Flow.Stopped -> Alcotest.fail "expected a Hall set"
  in
  let jobs, demand, supply =
    match hall_of cert with Some h -> h | None -> Alcotest.fail "a cut is one Hall step"
  in
  let valid ts cert = A.Certificate.validate ts (Platform.identical ~m) cert in
  Alcotest.(check bool) "genuine" true (valid ts cert);
  List.iteri
    (fun k _ ->
      let dropped = List.filteri (fun j _ -> j <> k) jobs in
      Alcotest.(check bool)
        (Printf.sprintf "job %d dropped" k)
        false
        (valid ts (with_hall cert (dropped, demand, supply))))
    jobs;
  Alcotest.(check bool) "demand + 1" false (valid ts (with_hall cert (jobs, demand + 1, supply)));
  Alcotest.(check bool) "supply - 1" false (valid ts (with_hall cert (jobs, demand, supply - 1)));
  Alcotest.(check bool)
    "a job counted twice" false
    (valid ts (with_hall cert (List.hd jobs :: jobs, demand, supply)));
  (* The set is job 1 of τ1 and of τ2, windows [0, 4) and [0, 5): 7
     units in 5 slots.  With τ2 one slot later they span 6. *)
  Alcotest.(check bool) "τ2 in the set" true (List.mem (1, 0) jobs);
  let shifted =
    Taskset.of_tuples [ (0, 3, 4, 6); (1, 4, 5, 12); (10, 1, 2, 12); (5, 1, 1, 12) ]
  in
  Alcotest.(check bool) "offset shifted by one slot" false (valid shifted cert)

(* Every Hall set the flow names on random instances validates, and a
   dropped job or a raised demand never does. *)
let prop_hall_sets_validate =
  qtest ~count:300 "every Hall set validates; its mutants do not"
    (Test_util.instance_gen ~nmax:6 ~tmax:6 ())
    ~print:Test_util.print_instance
    (fun (ts, m) ->
      match flow ts ~m with
      | Flow.Schedule _ | Flow.Stopped -> true
      | Flow.Cut cert -> (
        let valid c = A.Certificate.validate ts (Platform.identical ~m) c in
        match hall_of cert with
        | Some (jobs, demand, supply) ->
          valid cert
          && (not (valid (with_hall cert (jobs, demand + 1, supply))))
          && (not (valid (with_hall cert (jobs, demand, supply - 1))))
          && not (valid (with_hall cert (List.tl jobs, demand, supply)))
        | None -> false))

(* ------------------------------------------------------------------ *)
(* Budget and allocation                                                *)

(* The flow draws each phase's work from [spend] and stops when it says
   no; a spend that accepts everything sees the whole run. *)
let test_budget () =
  let ts = Test_util.pinned_5x420 and m = 5 in
  let phases = ref 0 and work = ref 0 in
  (match
     Flow.solve
       ~spend:(fun w ->
         incr phases;
         work := !work + w;
         true)
       ts ~m
   with
  | Flow.Schedule _ -> ()
  | Flow.Cut _ | Flow.Stopped -> Alcotest.fail "the pinned instance is feasible");
  Alcotest.(check bool) "at least one phase" true (!phases >= 1);
  Alcotest.(check bool) "work counted" true (!work > 0);
  (match Flow.solve ~spend:(fun _ -> false) ts ~m with
  | Flow.Stopped -> ()
  | Flow.Schedule _ | Flow.Cut _ -> Alcotest.fail "a refused phase stops the flow");
  (* Through the analyzer: a budget that covers the window passes but not
     the flow's first phase leaves the instance undecided, and says so. *)
  let report = A.analyze ~work_budget:(Taskset.size ts * 420 + 3496) ts ~m in
  (match report.A.verdict with
  | A.Undecided -> ()
  | A.Feasible _ | A.Infeasible _ -> Alcotest.fail "the flow had no budget left");
  Alcotest.(check (list string))
    "skip reported" [ "flow stopped early: work budget exhausted" ] report.A.skipped

(* On the pinned 5×420 instance (10 tasks, 758 jobs, 3 496 window
   cells), one flow, schedule included, allocates at most 4 words per
   window cell: one byte of flow per cell, and per-job and per-slot
   arrays. *)
let test_allocation () =
  let ts = Test_util.pinned_5x420 and m = 5 in
  let cells =
    Array.fold_left
      (fun acc (t : Task.t) -> acc + (Taskset.hyperperiod ts / t.period * t.deadline))
      0 (Taskset.tasks ts)
  in
  check Alcotest.int "window cells" 3496 cells;
  let words =
    List.fold_left Float.min Float.infinity
      (List.init 3 (fun _ -> Test_util.allocated_words (fun () -> flow ts ~m)))
  in
  let per_cell = words /. float_of_int cells in
  if per_cell > 4. then
    Alcotest.failf "the flow allocated %.2f words per window cell (limit 4)" per_cell

let () =
  Alcotest.run "flow"
    [
      ("oracle", [ prop_equals_brute_force ]);
      ("differential", [ prop_backends_agree; prop_clone_path; prop_serve_cache ]);
      ( "certificates",
        [ Alcotest.test_case "mutants fail" `Quick test_mutants; prop_hall_sets_validate ] );
      ( "cost",
        [
          Alcotest.test_case "work budget" `Quick test_budget;
          Alcotest.test_case "at most 4 words per cell" `Quick test_allocation;
        ] );
    ]
