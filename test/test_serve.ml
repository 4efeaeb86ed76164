(* Tests for lib/serve: the NDJSON wire protocol, canonical taskset
   fingerprints, the verdict cache, and the request scheduler
   (DESIGN.md §11).

   This suite owns the failpoint injection state: it resets the
   catalogue up front (the CI failpoints matrix arms sites via
   MGRTS_FAILPOINTS for the whole run) and arms exactly what each case
   needs. *)

open Rt_model
module Json = Prelude.Json
module Proto = Serve.Proto
module Fingerprint = Serve.Fingerprint
module Cache = Serve.Cache
module Scheduler = Serve.Scheduler

let () = Resilience.Failpoint.reset ()

let tuples_of_ts ts =
  Array.to_list
    (Array.map
       (fun (t : Task.t) -> (t.Task.offset, t.Task.wcet, t.Task.deadline, t.Task.period))
       (Taskset.tasks ts))

let mk_request ?(id = "t") ?solver ?wall_s ?nodes ?(seed = 0) ?(want_schedule = true)
    ?(no_cache = false) ts ~m =
  {
    Proto.id;
    tuples = tuples_of_ts ts;
    m;
    solver;
    wall_s;
    nodes;
    seed;
    want_schedule;
    no_cache;
  }

let small_config () =
  { (Scheduler.default_config ()) with Scheduler.workers = 1; jobs_per_request = 1 }

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

let with_scheduler ?(config = small_config ()) ?(emit = fun _ -> ()) f =
  f (Scheduler.create ~config ~emit ())

(* ------------------------------------------------------------------ *)
(* Fingerprint *)

let shuffle_tasks seed ts =
  let st = Random.State.make [| seed |] in
  let arr = Taskset.tasks ts in
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Taskset.of_tasks (Array.to_list arr)

let prop_fingerprint_reorder_invariant =
  Test_util.qtest ~count:200 "fingerprint key is task-order invariant"
    QCheck2.Gen.(pair (Test_util.instance_gen ()) (int_bound 1000))
    (fun ((ts, m), seed) ->
      let shuffled = shuffle_tasks seed ts in
      String.equal
        (Fingerprint.key (Fingerprint.of_taskset ts ~m))
        (Fingerprint.key (Fingerprint.of_taskset shuffled ~m)))

let prop_fingerprint_m_sensitive =
  Test_util.qtest ~count:50 "fingerprint key distinguishes m"
    (Test_util.instance_gen ())
    (fun (ts, m) ->
      not
        (String.equal
           (Fingerprint.key (Fingerprint.of_taskset ts ~m))
           (Fingerprint.key (Fingerprint.of_taskset ts ~m:(m + 1)))))

let test_fingerprint_relabel_roundtrip () =
  (* The running example, reordered: relabeling to canonical ids and back
     must be the identity, and the canonical schedule must verify against
     the canonically-sorted taskset. *)
  let ts = Taskset.of_tuples [ (1, 3, 4, 4); (0, 2, 2, 3); (0, 1, 2, 2) ] in
  let m = 2 in
  match Core.solve ts ~m with
  | Core.Feasible sched, _ ->
    let fp = Fingerprint.of_taskset ts ~m in
    let canon = Fingerprint.to_canonical fp sched in
    Alcotest.(check bool) "roundtrip identity" true
      (Schedule.equal sched (Fingerprint.from_canonical fp canon));
    let sorted_ts =
      Taskset.of_tasks
        (List.sort
           (fun (a : Task.t) (b : Task.t) ->
             let c = Int.compare a.Task.period b.Task.period in
             if c <> 0 then c
             else
               let c = Int.compare a.Task.deadline b.Task.deadline in
               if c <> 0 then c
               else
                 let c = Int.compare a.Task.wcet b.Task.wcet in
                 if c <> 0 then c else Int.compare a.Task.offset b.Task.offset)
           (Array.to_list (Taskset.tasks ts)))
    in
    (* Whatever the canonical order is, it is *a* reordering, so the
       relabeled schedule must be feasible for the field-sorted taskset. *)
    Alcotest.(check bool) "canonical schedule feasible for sorted taskset" true
      (match Verify.check_cyclic sorted_ts canon with Ok () -> true | Error _ -> false)
  | _ -> Alcotest.fail "running example must be feasible on 2 processors"

(* ------------------------------------------------------------------ *)
(* Cache *)

let test_cache_basics () =
  let c = Cache.create ~capacity:4 in
  Alcotest.(check bool) "miss" true (Cache.find c ~key:"a" = None);
  Cache.store c ~key:"a" Cache.Infeasible_entry;
  Alcotest.(check bool) "hit" true (Cache.find c ~key:"a" = Some Cache.Infeasible_entry);
  let st = Cache.stats c in
  Alcotest.(check int) "hits" 1 st.Cache.hits;
  Alcotest.(check int) "misses" 1 st.Cache.misses;
  Alcotest.(check int) "stores" 1 st.Cache.stores

let test_cache_eviction () =
  let c = Cache.create ~capacity:4 in
  for i = 0 to 15 do
    Cache.store c ~key:(string_of_int i) Cache.Infeasible_entry
  done;
  let st = Cache.stats c in
  Alcotest.(check bool) "evictions happened" true (st.Cache.evictions > 0);
  Alcotest.(check bool) "bounded" true (st.Cache.entries <= 4);
  (* The most recent key survives the LRU sweep. *)
  Alcotest.(check bool) "recent survives" true (Cache.find c ~key:"15" <> None)

(* ------------------------------------------------------------------ *)
(* Proto *)

let test_proto_parse () =
  (match Proto.parse_request ~fallback_id:"f" "{\"cmd\":\"stats\"}" with
  | Proto.Stats_request -> ()
  | _ -> Alcotest.fail "stats");
  (match Proto.parse_request ~fallback_id:"f" "{\"cmd\":\"shutdown\"}" with
  | Proto.Shutdown_request -> ()
  | _ -> Alcotest.fail "shutdown");
  (match Proto.parse_request ~fallback_id:"f" "nope" with
  | Proto.Malformed ("f", _) -> ()
  | _ -> Alcotest.fail "malformed line should carry the fallback id");
  (match Proto.parse_request ~fallback_id:"f" "{\"id\":\"x\",\"m\":2}" with
  | Proto.Malformed ("x", msg) ->
    Alcotest.(check bool) "names the missing field" true (contains msg "taskset")
  | _ -> Alcotest.fail "missing taskset should be malformed, keeping the request id");
  (match
     Proto.parse_request ~fallback_id:"f"
       "{\"id\":7,\"taskset\":[[0,1,2,2]],\"m\":1,\"wall_s\":0.5,\"nodes\":100,\"seed\":3,\
        \"schedule\":true,\"no_cache\":true}"
   with
  | Proto.Solve r ->
    Alcotest.(check string) "numeric id" "7" r.Proto.id;
    Alcotest.(check int) "m" 1 r.Proto.m;
    Alcotest.(check (list (pair int (pair int (pair int int))))) "tuples"
      [ (0, (1, (2, 2))) ]
      (List.map (fun (o, c, d, t) -> (o, (c, (d, t)))) r.Proto.tuples);
    Alcotest.(check bool) "wall" true (r.Proto.wall_s = Some 0.5);
    Alcotest.(check bool) "nodes" true (r.Proto.nodes = Some 100);
    Alcotest.(check int) "seed" 3 r.Proto.seed;
    Alcotest.(check bool) "schedule" true r.Proto.want_schedule;
    Alcotest.(check bool) "no_cache" true r.Proto.no_cache
  | _ -> Alcotest.fail "full solve request should parse");
  match
    Proto.parse_request ~fallback_id:"f" "{\"taskset\":[[0,1,2,2]],\"taskset_text\":\"x\",\"m\":1}"
  with
  | Proto.Malformed _ -> ()
  | _ -> Alcotest.fail "both taskset forms at once must be rejected"

let test_proto_response_json () =
  let ts = Taskset.of_tuples [ (0, 1, 2, 2); (1, 3, 4, 4); (0, 2, 2, 3) ] in
  with_scheduler (fun t ->
      let resp = Scheduler.process t ~queue_s:0.125 (mk_request ts ~m:2) in
      match Json.parse (Proto.response_json resp) with
      | Error msg -> Alcotest.failf "response is not valid JSON: %s" msg
      | Ok v ->
        Alcotest.(check (option string)) "status" (Some "decided")
          (Option.bind (Json.member "status" v) Json.to_str);
        Alcotest.(check (option int)) "code" (Some 0)
          (Option.bind (Json.member "code" v) Json.to_int);
        Alcotest.(check (option string)) "verdict" (Some "feasible")
          (Option.bind (Json.member "verdict" v) Json.to_str);
        (match Option.bind (Json.member "schedule" v) Json.to_list with
        | Some rows -> Alcotest.(check int) "schedule rows = m" 2 (List.length rows)
        | None -> Alcotest.fail "schedule requested but missing");
        Alcotest.(check (option (float 1e-9))) "queue_s" (Some 0.125)
          (Option.bind (Json.member "queue_s" v) Json.to_float))

(* ------------------------------------------------------------------ *)
(* Scheduler: cache soundness, error classification, containment,
   admission control. *)

let verdict_of (r : Proto.response) = (r.Proto.r_code, r.Proto.r_verdict)

let props_sched = lazy (Scheduler.create ~config:(small_config ()) ~emit:(fun _ -> ()) ())

let prop_cache_hit_matches_fresh_solve =
  (* The satellite property: for any instance, a cached answer is the
     verdict a fresh solve produces — infeasible instances included —
     and a hit's schedule verifies against the *request's* task order.
     Front-door answers are never cached (they cost O(n) anyway), so the
     hit expectation only applies past the admission check. *)
  Test_util.qtest ~count:60 ~print:(fun ((ts, m), seed) ->
      Printf.sprintf "seed=%d %s" seed (Test_util.print_instance (ts, m)))
    "cache hit returns the fresh-solve verdict"
    QCheck2.Gen.(pair (Test_util.instance_gen ()) (int_bound 1000))
    (fun ((ts, m), seed) ->
      let t = Lazy.force props_sched in
      let fresh = Scheduler.process t ~queue_s:0. (mk_request ~no_cache:true ts ~m) in
      let first = Scheduler.process t ~queue_s:0. (mk_request ts ~m) in
      let shuffled = shuffle_tasks seed ts in
      let second = Scheduler.process t ~queue_s:0. (mk_request shuffled ~m) in
      let schedule_ok (r : Proto.response) for_ts =
        match r.Proto.r_schedule with
        | None -> r.Proto.r_verdict <> Some "feasible"
        | Some s -> (
          match Verify.check_cyclic for_ts s with Ok () -> true | Error _ -> false)
      in
      let front_door = fresh.Proto.r_solver = Some "front-door" in
      verdict_of first = verdict_of fresh
      && verdict_of second = verdict_of fresh
      && (front_door || second.Proto.r_cached)
      && schedule_ok first ts && schedule_ok second shuffled)

let test_cache_hit_infeasible () =
  (* Search-proved infeasibility (U = m, so the front door passes it):
     two tasks that both need the single slot before t=1. *)
  let ts = Taskset.of_tuples [ (0, 1, 1, 2); (0, 1, 1, 2) ] in
  with_scheduler (fun t ->
      let first = Scheduler.process t ~queue_s:0. (mk_request ts ~m:1) in
      Alcotest.(check (pair int (option string))) "fresh infeasible" (0, Some "infeasible")
        (verdict_of first);
      Alcotest.(check bool) "first is not a hit" false first.Proto.r_cached;
      let second = Scheduler.process t ~queue_s:0. (mk_request ts ~m:1) in
      Alcotest.(check (pair int (option string))) "cached infeasible" (0, Some "infeasible")
        (verdict_of second);
      Alcotest.(check bool) "second is a hit" true second.Proto.r_cached)

let test_front_door () =
  let ts = Taskset.of_tuples [ (0, 2, 2, 2); (0, 2, 2, 2); (0, 2, 2, 2) ] in
  with_scheduler (fun t ->
      let r = Scheduler.process t ~queue_s:0. (mk_request ts ~m:2) in
      Alcotest.(check (pair int (option string))) "verdict" (0, Some "infeasible") (verdict_of r);
      Alcotest.(check (option string)) "answered structurally" (Some "front-door")
        r.Proto.r_solver;
      let c = Scheduler.counters t in
      Alcotest.(check int) "counted" 1 c.Proto.front_door_infeasible;
      (* Exact, not float: U = m + 1/H must still reach the search door's
         *other* side — infeasible — while U = m passes through. *)
      let boundary = Taskset.of_tuples [ (0, 1, 1, 1) ] in
      let r = Scheduler.process t ~queue_s:0. (mk_request boundary ~m:1) in
      Alcotest.(check (pair int (option string))) "U = m is not front-door infeasible"
        (0, Some "feasible") (verdict_of r))

let test_error_classification () =
  with_scheduler (fun t ->
      let bad_m = Scheduler.process t ~queue_s:0. (mk_request (Taskset.of_tuples [ (0, 1, 2, 2) ]) ~m:0) in
      Alcotest.(check int) "m=0 is invalid input" 3 bad_m.Proto.r_code;
      let overflow =
        Scheduler.process t ~queue_s:0.
          {
            (mk_request (Taskset.of_tuples [ (0, 1, 2, 2) ]) ~m:2) with
            Proto.tuples =
              [ (0, 1, 2, max_int - 1); (0, 1, 2, max_int - 2); (0, 1, 2, max_int - 3) ];
          }
      in
      Alcotest.(check int) "hyperperiod overflow is code 4" 4 overflow.Proto.r_code;
      let c = Scheduler.counters t in
      Alcotest.(check int) "not counted as crashes" 0 c.Proto.crashed)

let test_crash_containment () =
  Resilience.Failpoint.reset ();
  Resilience.Failpoint.arm ~trigger:(Resilience.Failpoint.Nth 1) "serve.request"
    (Resilience.Failpoint.Raise (Resilience.Failpoint.Failure_msg "injected"));
  Fun.protect ~finally:Resilience.Failpoint.reset (fun () ->
      let ts = Taskset.of_tuples [ (0, 1, 2, 2); (1, 3, 4, 4); (0, 2, 2, 3) ] in
      with_scheduler (fun t ->
          let crashed = Scheduler.process t ~queue_s:0. (mk_request ~no_cache:true ts ~m:2) in
          Alcotest.(check int) "contained as code 5" 5 crashed.Proto.r_code;
          Alcotest.(check bool) "error mentions the injection" true
            (match crashed.Proto.r_error with
            | Some e -> String.length e > 0
            | None -> false);
          let after = Scheduler.process t ~queue_s:0. (mk_request ~no_cache:true ts ~m:2) in
          Alcotest.(check (pair int (option string))) "scheduler survives" (0, Some "feasible")
            (verdict_of after);
          let c = Scheduler.counters t in
          Alcotest.(check int) "crash counted" 1 c.Proto.crashed))

let emit_collector () =
  let mu = Mutex.create () in
  let acc = ref [] in
  let emit line =
    Mutex.lock mu;
    acc := line :: !acc;
    Mutex.unlock mu
  in
  let dump () =
    Mutex.lock mu;
    let lines = List.rev !acc in
    Mutex.unlock mu;
    lines
  in
  (emit, dump)

let json_field_string line field =
  match Json.parse line with
  | Ok v -> Option.bind (Json.member field v) Json.to_str
  | Error _ -> None

let test_handle_line_end_to_end () =
  Resilience.Failpoint.reset ();
  let emit, dump = emit_collector () in
  let t = Scheduler.create ~config:(small_config ()) ~emit () in
  let feed line = Scheduler.handle_line t ~fallback_id:"x" line in
  Scheduler.serve t (fun () ->
      Alcotest.(check bool) "solve continues" true
        (feed "{\"id\":\"a\",\"taskset\":[[0,1,2,2],[1,3,4,4],[0,2,2,3]],\"m\":2}"
        = `Continue);
      Alcotest.(check bool) "malformed continues" true (feed "garbage" = `Continue);
      Alcotest.(check bool) "stats continues" true (feed "{\"cmd\":\"stats\"}" = `Continue);
      Alcotest.(check bool) "shutdown stops" true (feed "{\"cmd\":\"shutdown\"}" = `Shutdown));
  let lines = dump () in
  let ids = List.filter_map (fun l -> json_field_string l "id") lines in
  Alcotest.(check bool) "request a answered" true (List.mem "a" ids);
  Alcotest.(check bool) "malformed answered under fallback id" true (List.mem "x" ids);
  Alcotest.(check bool) "stats event present" true
    (List.exists (fun l -> json_field_string l "event" = Some "stats") lines);
  (* Shutdown drained the queue: the daemon rejects new work afterwards. *)
  Alcotest.(check bool) "post-shutdown solve continues" true
    (feed "{\"id\":\"late\",\"taskset\":[[0,1,2,2]],\"m\":1}" = `Continue);
  let late =
    List.find_opt
      (fun l -> json_field_string l "id" = Some "late")
      (dump ())
  in
  match late with
  | Some l -> (
    match Json.parse l with
    | Ok v ->
      Alcotest.(check (option int)) "rejected with code 6" (Some 6)
        (Option.bind (Json.member "code" v) Json.to_int)
    | Error msg -> Alcotest.failf "bad rejection line: %s" msg)
  | None -> Alcotest.fail "post-shutdown request must still be answered (rejected)"

(* T ≈ 1.6·10¹⁸ and U ≈ 0.0055: m·T wraps past max_int at m = 5, and
   read as the supply, the wrapped product would refute the request (and
   the cache would keep the verdict).  Whatever the daemon cannot handle
   here, it must not claim a decisive verdict. *)
let test_wrapping_supply_not_infeasible () =
  Resilience.Failpoint.reset ();
  let emit, dump = emit_collector () in
  let t = Scheduler.create ~config:(small_config ()) ~emit () in
  Scheduler.serve t (fun () ->
      ignore
        (Scheduler.handle_line t ~fallback_id:"x"
           "{\"id\":\"wrap\",\"taskset\":[[0,1,1097,1097],[0,1,1093,1093],[0,1,1091,1091],\
            [0,1,1087,1087],[0,1,1069,1069],[0,1,1063,1063]],\"m\":5}"));
  let code =
    List.find_map
      (fun l ->
        match Json.parse l with
        | Ok v when Option.bind (Json.member "id" v) Json.to_str = Some "wrap" ->
          Option.bind (Json.member "code" v) Json.to_int
        | _ -> None)
      (dump ())
  in
  match code with
  | None -> Alcotest.fail "request must be answered"
  | Some code -> Alcotest.(check bool) "no decisive verdict" true (code <> 0)

let test_queue_full_rejection () =
  Resilience.Failpoint.reset ();
  (* Hold the single worker inside the (supervised) request scope for a
     beat, then overfill the capacity-1 queue behind it. *)
  Resilience.Failpoint.arm ~trigger:(Resilience.Failpoint.Nth 1) "serve.request"
    (Resilience.Failpoint.Delay 0.3);
  Fun.protect ~finally:Resilience.Failpoint.reset (fun () ->
      let emit, dump = emit_collector () in
      let config = { (small_config ()) with Scheduler.queue_capacity = 1 } in
      let t = Scheduler.create ~config ~emit () in
      let solve id = Printf.sprintf "{\"id\":%S,\"taskset\":[[0,1,2,2]],\"m\":1,\"no_cache\":true}" id in
      Scheduler.serve t (fun () ->
          ignore (Scheduler.handle_line t ~fallback_id:"x" (solve "slow"));
          (* Wait for the worker to pick "slow" up so the queue is empty. *)
          let rec wait_in_flight tries =
            if tries = 0 then Alcotest.fail "worker never picked the request up"
            else if (Scheduler.counters t).Proto.in_flight < 1 then begin
              Unix.sleepf 0.01;
              wait_in_flight (tries - 1)
            end
          in
          wait_in_flight 200;
          ignore (Scheduler.handle_line t ~fallback_id:"x" (solve "queued"));
          ignore (Scheduler.handle_line t ~fallback_id:"x" (solve "overflow"));
          let c = Scheduler.counters t in
          Alcotest.(check int) "one rejection" 1 c.Proto.rejected);
      let lines = dump () in
      let code_of id =
        List.find_map
          (fun l ->
            match Json.parse l with
            | Ok v when Option.bind (Json.member "id" v) Json.to_str = Some id ->
              Option.bind (Json.member "code" v) Json.to_int
            | _ -> None)
          lines
      in
      Alcotest.(check (option int)) "slow solved" (Some 0) (code_of "slow");
      Alcotest.(check (option int)) "queued solved after drain" (Some 0) (code_of "queued");
      Alcotest.(check (option int)) "overflow rejected" (Some 6) (code_of "overflow"))

(* Workers are pool jobs: once a first session has warmed the pool, a
   second session with two workers spawns no domain. *)
let test_warm_session_spawns_no_domain () =
  let config = { (small_config ()) with Scheduler.workers = 2 } in
  let session () =
    let t = Scheduler.create ~config ~emit:(fun _ -> ()) () in
    Scheduler.serve t (fun () ->
        ignore
          (Scheduler.handle_line t ~fallback_id:"x"
             "{\"id\":\"a\",\"taskset\":[[0,1,2,2]],\"m\":1}"))
  in
  session ();
  Alcotest.(check int) "second session" 0 (Test_util.spawns_during session)

let solve_line ~id (ts, m) =
  let row (o, c, d, t) = Json.Arr (List.map Json.int [ o; c; d; t ]) in
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Str id);
         ("taskset", Json.Arr (List.map row (tuples_of_ts ts)));
         ("m", Json.int m);
       ])

(* A sustained stream through a small admission queue on two workers,
   while [serve.request] is re-armed to raise (every 50th request) and to
   stall 5 ms (every 83rd), punctuated by unpaced bursts that overflow
   the queue.  The daemon must contain every crash, answer every request
   exactly once, and still shut down. *)
let test_failpoint_soak () =
  Resilience.Failpoint.reset ();
  let emit, dump = emit_collector () in
  let config =
    {
      (Scheduler.default_config ()) with
      Scheduler.workers = 2;
      jobs_per_request = 1;
      queue_capacity = 16;
      default_wall_s = 0.25;
    }
  in
  let t = Scheduler.create ~config ~emit () in
  let requests = 200 in
  let instances =
    Gen.Generator.batch ~seed:44 ~count:(requests / 4)
      (Gen.Generator.default ~n:10 ~m:(Gen.Generator.Fixed_m 5) ~tmax:7)
  in
  let burst_until = ref (-1) in
  (* The checks below run only if [serve] drains the queue and returns. *)
  Fun.protect ~finally:Resilience.Failpoint.reset (fun () ->
      Scheduler.serve t @@ fun () ->
      for i = 0 to requests - 1 do
        (let open Resilience.Failpoint in
         if i mod 50 = 25 then arm ~trigger:(Nth 1) "serve.request" (Raise Out_of_memory)
         else if i mod 83 = 40 then arm ~trigger:(Nth 1) "serve.request" (Delay 0.005));
        (* A closed loop with 8 requests in flight (half the queue),
           except during the 24-request bursts.  A lost response would
           stall the loop, so the wait is bounded. *)
        if i mod 97 = 0 then burst_until := i + 24;
        let deadline = Unix.gettimeofday () +. 30. in
        if i > !burst_until then
          while i - List.length (dump ()) >= 8 do
            if Unix.gettimeofday () > deadline then Alcotest.failf "s%d: responses stopped" i;
            Unix.sleepf 0.0005
          done;
        let id = Printf.sprintf "s%d" i in
        ignore
          (Scheduler.handle_line t ~fallback_id:id
             (solve_line ~id instances.(i mod Array.length instances)))
      done);
  let lines =
    List.map
      (fun l ->
        match Json.parse l with Ok v -> v | Error msg -> Alcotest.failf "bad line %S: %s" l msg)
      (dump ())
  in
  let ids = List.filter_map (fun v -> Option.bind (Json.member "id" v) Json.to_str) lines in
  Alcotest.(check (list string)) "one line per submitted id"
    (List.sort String.compare (List.init requests (Printf.sprintf "s%d")))
    (List.sort String.compare ids);
  let c = Scheduler.counters t in
  Alcotest.(check int) "received" requests c.Proto.received;
  Alcotest.(check int) "served + rejected = received" c.Proto.received
    (c.Proto.served + c.Proto.rejected);
  let code5 =
    List.length
      (List.filter (fun v -> Option.bind (Json.member "code" v) Json.to_int = Some 5) lines)
  in
  Alcotest.(check int) "crashed = code-5 lines" code5 c.Proto.crashed;
  Alcotest.(check bool) "a crash was contained" true (c.Proto.crashed >= 1)

let () =
  Alcotest.run "serve"
    [
      ( "fingerprint",
        [
          prop_fingerprint_reorder_invariant;
          prop_fingerprint_m_sensitive;
          Alcotest.test_case "relabel roundtrip" `Quick test_fingerprint_relabel_roundtrip;
        ] );
      ( "cache",
        [
          Alcotest.test_case "basics" `Quick test_cache_basics;
          Alcotest.test_case "eviction" `Quick test_cache_eviction;
        ] );
      ( "proto",
        [
          Alcotest.test_case "parse" `Quick test_proto_parse;
          Alcotest.test_case "response json" `Quick test_proto_response_json;
        ] );
      ( "scheduler",
        [
          prop_cache_hit_matches_fresh_solve;
          Alcotest.test_case "infeasible cache hit" `Quick test_cache_hit_infeasible;
          Alcotest.test_case "front door" `Quick test_front_door;
          Alcotest.test_case "error classification" `Quick test_error_classification;
          Alcotest.test_case "crash containment" `Quick test_crash_containment;
          Alcotest.test_case "handle_line end to end" `Quick test_handle_line_end_to_end;
          Alcotest.test_case "queue-full rejection" `Quick test_queue_full_rejection;
          Alcotest.test_case "wrapping supply is not infeasible" `Quick
            test_wrapping_supply_not_infeasible;
          Alcotest.test_case "failpoint soak" `Quick test_failpoint_soak;
          Alcotest.test_case "warm session spawns no domain" `Quick
            test_warm_session_spawns_no_domain;
        ] );
    ]
