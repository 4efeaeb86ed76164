(* Tests for the resilience layer: deterministic failpoints (scope gating,
   triggers, env-grammar parsing), crash containment in the portfolio race
   (single-crash survival, retry-with-degradation, the all-arms-crashed
   error), the stall watchdog, atomic artifact writes, and the typed
   top-level error surface of the Core facade. *)

open Rt_model
module F = Resilience.Failpoint
module S = Resilience.Supervise
module W = Resilience.Watchdog
module P = Portfolio
module O = Encodings.Outcome

let check = Alcotest.check
let running = Examples.running_example

(* This suite owns the injection state: clear anything the CI failpoints
   matrix armed through MGRTS_FAILPOINTS before asserting on our own. *)
let () = F.reset ()

let with_clean_failpoints f =
  F.reset ();
  Fun.protect ~finally:F.reset f

let expect_invalid name f =
  match f () with
  | () -> Alcotest.fail (name ^ ": expected Invalid_argument")
  | exception Invalid_argument _ -> ()

let arm_crashed (b : P.backend_stats) =
  match b.P.status with P.Crashed _ -> true | P.Ran | P.Stalled | P.Not_started -> false

let find_arm name (r : P.result) =
  match List.find_opt (fun (b : P.backend_stats) -> b.P.name = name) r.P.backends with
  | Some b -> b
  | None -> Alcotest.fail (Printf.sprintf "arm %S not reported" name)

(* An infeasible instance no local search can decide (r > 1): the
   regression workhorse shared with the portfolio suite. *)
let hard_instance () =
  let params = Gen.Generator.default ~n:12 ~m:(Gen.Generator.Fixed_m 4) ~tmax:7 in
  (Gen.Generator.batch ~seed:1 ~count:1 params).(0)

(* ------------------------------------------------------------------ *)
(* Failpoints                                                           *)

let test_disarmed_noop () =
  with_clean_failpoints @@ fun () ->
  Alcotest.(check bool) "nothing armed" false (F.armed ());
  (* The solver-checkpoint fast path: must be a silent no-op anywhere. *)
  F.hit "csp2opt.node";
  F.with_scope (fun () -> F.hit "csp2opt.node");
  check Alcotest.int "no counters kept" 0 (F.hits "csp2opt.node")

let test_scope_gating () =
  with_clean_failpoints @@ fun () ->
  F.arm "t.site" (F.Raise F.Out_of_memory);
  Alcotest.(check bool) "armed" true (F.armed ());
  (* Outside a supervision scope the armed site must not fire: the whole
     suite runs under the CI injection matrix on this guarantee. *)
  F.hit "t.site";
  Alcotest.(check bool) "outside scope" false (F.in_scope ());
  Alcotest.check_raises "fires in scope" Stdlib.Out_of_memory (fun () ->
      F.with_scope (fun () -> F.hit "t.site"));
  Alcotest.(check bool) "scope restored after raise" false (F.in_scope ())

let fired site =
  match F.with_scope (fun () -> F.hit site) with
  | () -> false
  | exception Stdlib.Out_of_memory -> true

let test_trigger_nth () =
  with_clean_failpoints @@ fun () ->
  F.arm ~trigger:(F.Nth 2) "t.nth" (F.Raise F.Out_of_memory);
  Alcotest.(check bool) "1st hit passes" false (fired "t.nth");
  Alcotest.(check bool) "2nd hit fires" true (fired "t.nth");
  Alcotest.(check bool) "3rd hit passes (one-shot)" false (fired "t.nth");
  check Alcotest.int "hits counted" 3 (F.hits "t.nth")

let test_trigger_from () =
  with_clean_failpoints @@ fun () ->
  F.arm ~trigger:(F.From 2) "t.from" (F.Raise F.Out_of_memory);
  Alcotest.(check bool) "1st hit passes" false (fired "t.from");
  Alcotest.(check bool) "2nd hit fires" true (fired "t.from");
  Alcotest.(check bool) "3rd hit fires too" true (fired "t.from")

let test_delay_action () =
  with_clean_failpoints @@ fun () ->
  F.arm "t.delay" (F.Delay 0.02);
  let t0 = Prelude.Timer.start () in
  F.with_scope (fun () -> F.hit "t.delay");
  Alcotest.(check bool) "slept" true (Prelude.Timer.elapsed t0 >= 0.01)

let test_disarm_and_reset () =
  with_clean_failpoints @@ fun () ->
  F.arm "t.a" (F.Raise F.Out_of_memory);
  F.arm "t.b" (F.Raise F.Out_of_memory);
  F.disarm "t.a";
  Alcotest.(check bool) "t.a disarmed" false (fired "t.a");
  Alcotest.(check bool) "t.b still armed" true (fired "t.b");
  F.reset ();
  Alcotest.(check bool) "reset disarms all" false (F.armed ())

let test_arm_spec () =
  with_clean_failpoints @@ fun () ->
  F.arm_spec "csp2opt.node=delay:1ms@2,sat.propagate=raise:Stack_overflow";
  Alcotest.(check bool) "armed from spec" true (F.armed ());
  (match F.with_scope (fun () -> F.hit "sat.propagate") with
  | () -> Alcotest.fail "sat.propagate should raise"
  | exception Stdlib.Stack_overflow -> ());
  expect_invalid "unknown site" (fun () -> F.arm_spec "bogus=raise:Out_of_memory");
  expect_invalid "malformed action" (fun () -> F.arm_spec "csp2opt.node=explode");
  expect_invalid "malformed trigger" (fun () -> F.arm_spec "csp2opt.node=delay:1ms@zero");
  expect_invalid "unknown exception" (fun () -> F.arm_spec "csp2opt.node=raise:Exit")

let test_catalogue_complete () =
  (* Every instrumented checkpoint is armable through the validated
     user-facing grammar. *)
  List.iter
    (fun site ->
      with_clean_failpoints @@ fun () ->
      F.arm_spec (site ^ "=raise:Failure:probe");
      Alcotest.(check bool) (site ^ " armable") true (F.armed ()))
    F.catalogue

(* ------------------------------------------------------------------ *)
(* Supervision                                                          *)

let test_protect_ok () =
  match S.protect ~name:"t" (fun () -> 42) with
  | Ok v -> check Alcotest.int "value through" 42 v
  | Error c -> Alcotest.fail ("unexpected crash: " ^ S.crash_message c)

let test_protect_crash () =
  match S.protect ~name:"t" (fun () -> raise Stdlib.Out_of_memory) with
  | Ok () -> Alcotest.fail "crash not contained"
  | Error c -> check Alcotest.string "exception text" "Out of memory" (S.crash_message c)

let test_protect_enters_scope () =
  with_clean_failpoints @@ fun () ->
  match S.protect ~name:"t" (fun () -> F.in_scope ()) with
  | Ok in_scope ->
    Alcotest.(check bool) "protect enters the injection scope" true in_scope;
    Alcotest.(check bool) "and leaves it" false (F.in_scope ())
  | Error c -> Alcotest.fail ("unexpected crash: " ^ S.crash_message c)

let test_protect_passes_break () =
  Alcotest.check_raises "Sys.Break escapes containment" Sys.Break (fun () ->
      ignore (S.protect ~name:"t" (fun () -> raise Sys.Break)))

(* ------------------------------------------------------------------ *)
(* Atomic artifacts                                                     *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let no_temporaries path =
  let dir = Filename.dirname path and base = Filename.basename path in
  Array.for_all
    (fun entry ->
      not
        (String.length entry > String.length base
        && String.sub entry 0 (String.length base) = base))
    (Sys.readdir dir)

let test_write_atomic () =
  let path = Filename.temp_file "mgrts_artifact" ".json" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) @@ fun () ->
  Resilience.Artifact.write_atomic path "{\"v\": 1}\n";
  check Alcotest.string "written" "{\"v\": 1}\n" (read_file path);
  Alcotest.(check bool) "no temporary left" true (no_temporaries path);
  (* Overwrite: readers see either the old or the new complete file. *)
  Resilience.Artifact.write_atomic path "{\"v\": 2}\n";
  check Alcotest.string "replaced" "{\"v\": 2}\n" (read_file path)

(* Regression: the writer used the fixed temporary [path ^ ".tmp"], so two
   concurrent writers clobbered each other's half-written bytes and the
   final rename could install a torn mix.  With per-writer temporaries the
   destination must always hold exactly one writer's complete contents,
   and no temporary may survive. *)
let test_write_atomic_concurrent () =
  let path = Filename.temp_file "mgrts_artifact" ".json" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) @@ fun () ->
  let payload tag = Printf.sprintf "{\"writer\": %d, \"pad\": \"%s\"}\n" tag (String.make 8192 (Char.chr (Char.code 'a' + tag))) in
  let writers = 4 and rounds = 25 in
  let domains =
    List.init writers (fun tag ->
        Domain.spawn (fun () ->
            for _ = 1 to rounds do
              Resilience.Artifact.write_atomic path (payload tag)
            done))
  in
  List.iter Domain.join domains;
  let final = read_file path in
  Alcotest.(check bool) "destination is one writer's complete contents" true
    (List.exists (fun tag -> final = payload tag) (List.init writers Fun.id));
  Alcotest.(check bool) "no temporary left" true (no_temporaries path)

(* Regression for the fsync bugfix: the write path now goes through a raw
   fd (openfile/write/fsync) — pin that the full contents land even for
   payloads far beyond one write(2)'s typical short-write boundary, and
   that a failed write (unwritable directory) leaves no destination and no
   temporary behind. *)
let test_write_atomic_large_and_error () =
  let path = Filename.temp_file "mgrts_artifact" ".json" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) @@ fun () ->
  let big = String.concat "" (List.init 4096 (fun i -> Printf.sprintf "{\"row\": %d}\n" i)) in
  Resilience.Artifact.write_atomic path big;
  check Alcotest.string "large payload intact" big (read_file path);
  let missing_dir = Filename.concat (Filename.dirname path) "mgrts_no_such_dir" in
  (match Resilience.Artifact.write_atomic (Filename.concat missing_dir "x.json") "{}\n" with
  | () -> Alcotest.fail "write into a missing directory should raise"
  | exception Unix.Unix_error _ -> ()
  | exception Sys_error _ -> ());
  Alcotest.(check bool) "no stray destination" false (Sys.file_exists missing_dir)

(* ------------------------------------------------------------------ *)
(* Watchdog                                                             *)

let with_heartbeat_interval dt f =
  let old = Telemetry.heartbeat_interval () in
  Telemetry.set_heartbeat_interval dt;
  Fun.protect ~finally:(fun () -> Telemetry.set_heartbeat_interval old) f

let test_watchdog_cancels_stalled () =
  with_heartbeat_interval 0.01 @@ fun () ->
  let w = W.create ~stall_beats:10. () in
  (* 100 ms window *)
  let cancelled = Atomic.make 0 in
  let live = W.watch w ~name:"live" ~cancel:(fun () -> ()) in
  let stuck = W.watch w ~name:"stuck" ~cancel:(fun () -> Atomic.incr cancelled) in
  let beat c i =
    Unix.sleepf 0.01;
    W.with_cell c (fun () -> Telemetry.heartbeat ~name:"test" ~nodes:i ~fails:0 ~depth:1)
  in
  W.start w;
  Fun.protect ~finally:(fun () -> W.stop w) (fun () ->
      (* [live] beats throughout while [stuck] stays silent for 300 ms,
         then resumes: the stall is caught at its first beat, and the
         beats after it do not cancel again. *)
      for i = 1 to 30 do
        beat live i
      done;
      Alcotest.(check bool) "silence alone cancels nothing" false (W.stalled stuck);
      for i = 1 to 3 do
        beat stuck i
      done);
  Alcotest.(check bool) "silent arm stalled" true (W.stalled stuck);
  Alcotest.(check bool) "touched arm alive" false (W.stalled live);
  check Alcotest.int "cancel invoked exactly once" 1 (Atomic.get cancelled)

let test_watchdog_beats_keep_alive () =
  with_heartbeat_interval 0.01 @@ fun () ->
  let w = W.create ~stall_beats:10. () in
  (* 100 ms window *)
  let c = W.watch w ~name:"beats" ~cancel:(fun () -> ()) in
  W.start w;
  Fun.protect ~finally:(fun () -> W.stop w) (fun () ->
      (* No manual touches: only the telemetry beats this domain emits
         inside [with_cell] refresh the clock. *)
      W.with_cell c (fun () ->
          for i = 1 to 20 do
            Unix.sleepf 0.01;
            Telemetry.heartbeat ~name:"test" ~nodes:i ~fails:0 ~depth:1
          done));
  Alcotest.(check bool) "beats kept the arm alive" false (W.stalled c)

(* ------------------------------------------------------------------ *)
(* Portfolio containment                                                *)

let injection_specs = [ P.Csp2_opt Csp2.Heuristic.DC; P.Csp2 Csp2.Heuristic.DC; P.Csp1_sat ]

let test_single_crash_contained () =
  with_clean_failpoints @@ fun () ->
  F.arm ~trigger:(F.Nth 1) "portfolio.arm_start" (F.Raise F.Out_of_memory);
  let r = P.solve ~specs:injection_specs ~jobs:1 ~seed:1 running ~m:2 in
  (match r.P.verdict with
  | O.Feasible sched ->
    Alcotest.(check bool) "verified" true (Verify.is_feasible running sched)
  | O.Infeasible | O.Limit | O.Memout _ ->
    Alcotest.fail "running example is feasible on m=2 despite one crashed arm");
  Alcotest.(check bool) "the crash is visible in the stats" true
    (List.exists arm_crashed r.P.backends);
  Alcotest.(check bool) "a surviving arm won" true (r.P.winner <> None)

let prop_containment_preserves_verdict =
  Test_util.qtest ~count:20 "crashing one arm never changes a decided verdict"
    (Test_util.instance_gen ~nmax:4 ~tmax:4 ())
    (fun (ts, m) ->
      F.reset ();
      let budget () = Prelude.Timer.budget ~wall_s:5.0 () in
      let baseline =
        P.solve ~specs:injection_specs ~jobs:1 ~seed:7 ~budget:(budget ()) ts ~m
      in
      F.arm ~trigger:(F.Nth 1) "portfolio.arm_start" (F.Raise F.Out_of_memory);
      let injected =
        P.solve ~specs:injection_specs ~jobs:1 ~seed:7 ~budget:(budget ()) ts ~m
      in
      F.reset ();
      let crash_seen = List.exists arm_crashed injected.P.backends in
      match (baseline.P.verdict, injected.P.verdict) with
      | O.Feasible _, O.Feasible sched -> crash_seen && Verify.is_feasible ts sched
      | O.Infeasible, O.Infeasible -> crash_seen
      (* An undecided run on either side pins nothing — tiny instances
         under a 5 s budget essentially never hit this. *)
      | (O.Limit | O.Memout _), _ | _, (O.Limit | O.Memout _) -> true
      | O.Feasible _, O.Infeasible | O.Infeasible, O.Feasible _ -> false)

let test_retry_csp2opt () =
  with_clean_failpoints @@ fun () ->
  F.arm ~trigger:(F.Nth 1) "portfolio.arm_start" (F.Raise F.Out_of_memory);
  let r = P.solve ~specs:[ P.Csp2_opt Csp2.Heuristic.DC ] ~jobs:1 running ~m:2 in
  Alcotest.(check bool) "retry decided" true (O.is_feasible r.P.verdict);
  let original = find_arm "csp2-opt+D-C" r in
  Alcotest.(check bool) "original crashed" true (arm_crashed original);
  Alcotest.(check bool) "crashed arm reports no outcome" true (original.P.outcome = None);
  let retry = find_arm "csp2-opt+D-C(retry)" r in
  Alcotest.(check bool) "degraded retry won" true retry.P.winner;
  check Alcotest.(option string) "winner name" (Some "csp2-opt+D-C(retry)") r.P.winner

let test_retry_sat () =
  with_clean_failpoints @@ fun () ->
  F.arm ~trigger:(F.Nth 1) "portfolio.arm_start" (F.Raise F.Out_of_memory);
  let r = P.solve ~specs:[ P.Csp1_sat ] ~jobs:1 running ~m:2 in
  Alcotest.(check bool) "retry decided" true (O.is_feasible r.P.verdict);
  Alcotest.(check bool) "original crashed" true (arm_crashed (find_arm "csp1-sat" r));
  Alcotest.(check bool) "reseeded retry won" true (find_arm "csp1-sat(retry)" r).P.winner

let test_all_arms_crashed () =
  with_clean_failpoints @@ fun () ->
  F.arm "portfolio.arm_start" (F.Raise F.Out_of_memory);
  (* Neither of these specs has a degraded retry: exactly two crashes. *)
  match
    P.solve ~specs:[ P.Csp2 Csp2.Heuristic.DC; P.Local_search ] ~jobs:1 running ~m:2
  with
  | _ -> Alcotest.fail "expected All_arms_crashed"
  | exception P.All_arms_crashed crashes ->
    check Alcotest.int "both arms listed" 2 (List.length crashes);
    List.iter (fun (_, e) -> check Alcotest.string "exception text" "Out of memory" e) crashes

let test_retry_capped_at_one () =
  with_clean_failpoints @@ fun () ->
  (* An always-firing crash kills the original *and* its one degraded
     retry; the race must then give up typed rather than loop. *)
  F.arm "portfolio.arm_start" (F.Raise F.Out_of_memory);
  match P.solve ~specs:[ P.Csp1_sat ] ~jobs:1 running ~m:2 with
  | _ -> Alcotest.fail "expected All_arms_crashed"
  | exception P.All_arms_crashed crashes ->
    let names = List.map fst crashes in
    check
      Alcotest.(list string)
      "original and single retry, nothing more"
      [ "csp1-sat"; "csp1-sat(retry)" ]
      (List.sort compare names)

let test_analyzer_crash_contained () =
  with_clean_failpoints @@ fun () ->
  F.arm "portfolio.analysis" (F.Raise F.Out_of_memory);
  let r = Core.solve_portfolio ~jobs:2 running ~m:2 in
  Alcotest.(check bool) "race decided without the analyzer" true (O.is_feasible r.P.verdict);
  Alcotest.(check bool) "analyzer crash recorded" true
    (arm_crashed (find_arm P.analysis_arm_name r))

let test_stall_watchdog_cancels_arm () =
  with_clean_failpoints @@ fun () ->
  with_heartbeat_interval 0.02 @@ fun () ->
  (* First arm popped is local search, frozen for 0.4 s at start — far
     past the 3-beat (60 ms) stall window and emitting no heartbeat.  The
     watchdog must cancel just that arm; csp2 then backfills the domain
     and refutes the instance. *)
  F.arm ~trigger:(F.Nth 1) "portfolio.arm_start" (F.Delay 0.4);
  let ts, m = hard_instance () in
  let r =
    P.solve
      ~specs:[ P.Local_search; P.Csp2 Csp2.Heuristic.DC ]
      ~jobs:1 ~stall_beats:3. ts ~m
  in
  (match r.P.verdict with
  | O.Infeasible -> ()
  | O.Feasible _ | O.Limit | O.Memout _ ->
    Alcotest.fail "r > 1: expected the surviving complete arm to refute");
  check Alcotest.(option string) "csp2 won" (Some "csp2+D-C") r.P.winner;
  let ls = find_arm "local-search" r in
  Alcotest.(check bool) "frozen arm marked stalled" true (ls.P.status = P.Stalled)

(* ------------------------------------------------------------------ *)
(* Core error surface                                                   *)

let test_error_classifier () =
  (match Core.error_of_exn (Invalid_argument "bad m") with
  | Some (Core.Invalid_input "bad m") -> ()
  | _ -> Alcotest.fail "Invalid_argument -> Invalid_input");
  (match Core.error_of_exn (Prelude.Intmath.Overflow "lcm") with
  | Some (Core.Overflow _) -> ()
  | _ -> Alcotest.fail "Intmath.Overflow -> Overflow");
  (* Taskset.of_tasks reports hyperperiod overflow as Invalid_argument;
     the classifier must not lose the overflow nature. *)
  (match Core.error_of_exn (Invalid_argument "Taskset.of_tasks: hyperperiod overflow (big)") with
  | Some (Core.Overflow _) -> ()
  | _ -> Alcotest.fail "overflow-flavored Invalid_argument -> Overflow");
  (match Core.error_of_exn (P.All_arms_crashed [ ("a", "boom") ]) with
  | Some (Core.All_arms_crashed [ ("a", "boom") ]) -> ()
  | _ -> Alcotest.fail "All_arms_crashed passes through");
  (match Core.error_of_exn Not_found with
  | None -> ()
  | Some _ -> Alcotest.fail "unrelated exceptions are not classified")

let test_error_exit_codes () =
  check Alcotest.int "invalid input" 3 (Core.error_exit_code (Core.Invalid_input "x"));
  check Alcotest.int "overflow" 4 (Core.error_exit_code (Core.Overflow "x"));
  check Alcotest.int "all arms crashed" 5 (Core.error_exit_code (Core.All_arms_crashed []));
  List.iter
    (fun e ->
      Alcotest.(check bool)
        ("message non-empty: " ^ Core.error_message e)
        true
        (String.length (Core.error_message e) > 0))
    [ Core.Invalid_input "x"; Core.Overflow "x"; Core.All_arms_crashed [ ("a", "boom") ] ]

let test_solve_result () =
  (match Core.solve_result running ~m:2 with
  | Ok (Core.Feasible _, _) -> ()
  | Ok _ -> Alcotest.fail "running example is feasible on m=2"
  | Error e -> Alcotest.fail ("unexpected error: " ^ Core.error_message e));
  match Core.solve_result running ~m:0 with
  | Error (Core.Invalid_input _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "m=0 must classify as invalid input"

let test_solve_result_all_arms_crashed () =
  with_clean_failpoints @@ fun () ->
  F.arm "portfolio.arm_start" (F.Raise F.Out_of_memory);
  (* Without [analyze:false] the witness stage decides the running
     example before any arm starts. *)
  match Core.solve_result ~solver:(Core.Portfolio 2) ~analyze:false running ~m:2 with
  | Error (Core.All_arms_crashed crashes) ->
    Alcotest.(check bool) "crash list non-empty" true (crashes <> [])
  | Ok _ -> Alcotest.fail "every arm crashes: no verdict possible"
  | Error e -> Alcotest.fail ("wrong error: " ^ Core.error_message e)

let () =
  Alcotest.run "resilience"
    [
      ( "failpoint",
        [
          Alcotest.test_case "disarmed is a no-op" `Quick test_disarmed_noop;
          Alcotest.test_case "scope gating" `Quick test_scope_gating;
          Alcotest.test_case "Nth trigger is one-shot" `Quick test_trigger_nth;
          Alcotest.test_case "From trigger persists" `Quick test_trigger_from;
          Alcotest.test_case "delay action" `Quick test_delay_action;
          Alcotest.test_case "disarm and reset" `Quick test_disarm_and_reset;
          Alcotest.test_case "spec grammar" `Quick test_arm_spec;
          Alcotest.test_case "catalogue armable" `Quick test_catalogue_complete;
        ] );
      ( "supervise",
        [
          Alcotest.test_case "value through" `Quick test_protect_ok;
          Alcotest.test_case "crash contained" `Quick test_protect_crash;
          Alcotest.test_case "enters injection scope" `Quick test_protect_enters_scope;
          Alcotest.test_case "Sys.Break escapes" `Quick test_protect_passes_break;
        ] );
      ( "artifact",
        [
          Alcotest.test_case "atomic write" `Quick test_write_atomic;
          Alcotest.test_case "concurrent writers" `Quick test_write_atomic_concurrent;
          Alcotest.test_case "large payload and error path" `Quick
            test_write_atomic_large_and_error;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "cancels the stalled arm only" `Quick test_watchdog_cancels_stalled;
          Alcotest.test_case "beats keep an arm alive" `Quick test_watchdog_beats_keep_alive;
        ] );
      ( "containment",
        [
          Alcotest.test_case "single crash contained" `Quick test_single_crash_contained;
          Alcotest.test_case "csp2-opt retries degraded" `Quick test_retry_csp2opt;
          Alcotest.test_case "sat retries reseeded" `Quick test_retry_sat;
          Alcotest.test_case "all arms crashed is typed" `Quick test_all_arms_crashed;
          Alcotest.test_case "one retry, not a loop" `Quick test_retry_capped_at_one;
          Alcotest.test_case "analyzer crash contained" `Quick test_analyzer_crash_contained;
          Alcotest.test_case "stall watchdog cancels arm" `Quick test_stall_watchdog_cancels_arm;
          prop_containment_preserves_verdict;
        ] );
      ( "errors",
        [
          Alcotest.test_case "classifier" `Quick test_error_classifier;
          Alcotest.test_case "exit codes and messages" `Quick test_error_exit_codes;
          Alcotest.test_case "solve_result" `Quick test_solve_result;
          Alcotest.test_case "solve_result all-arms-crashed" `Quick
            test_solve_result_all_arms_crashed;
        ] );
    ]
