(* Tests for the telemetry layer: the global switch, span/instant/counter
   recording, per-domain ring buffers under Domain.spawn, heartbeat rate
   limiting and the progress callback, ring overflow accounting, the Stats
   record, and the Chrome trace-event JSON export. *)

module T = Telemetry

let check = Alcotest.check

(* Recording state is global; every test starts from a clean slate and
   leaves recording off for the next one. *)
let fresh () =
  T.stop ();
  ignore (T.drain ());
  T.set_on_progress None;
  T.set_heartbeat_interval 0.5

let test_disabled_records_nothing () =
  fresh ();
  check Alcotest.bool "disabled by default" false (T.enabled ());
  T.with_span "quiet" (fun () -> ());
  T.instant "quiet";
  T.counter "quiet" 1;
  T.heartbeat ~name:"quiet" ~nodes:1 ~fails:0 ~depth:1;
  check Alcotest.int "no events" 0 (List.length (T.drain ()))

let test_span_capture () =
  fresh ();
  T.start ();
  let r =
    T.with_span "outer" ~cat:"test" (fun () ->
        T.with_span "inner" (fun () -> ());
        41 + 1)
  in
  T.stop ();
  check Alcotest.int "body result" 42 r;
  let events = T.drain () in
  check Alcotest.int "two spans" 2 (List.length events);
  let outer = List.find (fun (e : T.event) -> e.T.e_name = "outer") events in
  let inner = List.find (fun (e : T.event) -> e.T.e_name = "inner") events in
  check Alcotest.bool "span ph" true (outer.T.e_ph = `Span);
  check Alcotest.string "category" "test" outer.T.e_cat;
  check Alcotest.bool "nesting" true
    (inner.T.e_ts >= outer.T.e_ts && inner.T.e_dur <= outer.T.e_dur);
  check Alcotest.int "drained buffers stay drained" 0 (List.length (T.drain ()))

let test_span_records_on_exception () =
  fresh ();
  T.start ();
  (try T.with_span "raising" (fun () -> failwith "boom") with Failure _ -> ());
  T.stop ();
  check Alcotest.int "span recorded despite the raise" 1 (List.length (T.drain ()))

let test_counters_and_instants () =
  fresh ();
  T.start ();
  T.counter "nodes" 7;
  T.instant "marker" ~args:[ ("k", "v") ];
  T.stop ();
  let events = T.drain () in
  let c = List.find (fun (e : T.event) -> e.T.e_ph = `Counter) events in
  let i = List.find (fun (e : T.event) -> e.T.e_ph = `Instant) events in
  check Alcotest.int "counter value" 7 c.T.e_value;
  check Alcotest.string "counter name" "nodes" c.T.e_name;
  check Alcotest.bool "instant args" true (List.mem_assoc "k" i.T.e_args)

let test_per_domain_buffers () =
  (* Spawned domains record into their own rings; a single drain sees
     everything, tagged with distinct domain ids. *)
  fresh ();
  T.start ();
  T.instant "main-domain";
  let workers =
    List.init 3 (fun k ->
        Domain.spawn (fun () -> T.with_span (Printf.sprintf "worker-%d" k) (fun () -> ())))
  in
  List.iter Domain.join workers;
  T.stop ();
  let events = T.drain () in
  check Alcotest.int "all four events" 4 (List.length events);
  let tids = List.sort_uniq compare (List.map (fun (e : T.event) -> e.T.e_tid) events) in
  check Alcotest.bool "more than one recording domain" true (List.length tids >= 2)

let test_heartbeat_rate_limit_and_callback () =
  fresh ();
  let beats = ref [] in
  T.set_on_progress (Some (fun p -> beats := p :: !beats));
  T.set_heartbeat_interval 10.;
  T.start ();
  (* First call on this domain since [start] emits; the rest fall inside
     the 10 s window and must be swallowed. *)
  for i = 1 to 100 do
    T.heartbeat ~name:"solver" ~nodes:(i * 10) ~fails:i ~depth:i
  done;
  T.stop ();
  check Alcotest.int "one beat through a 10s window" 1 (List.length !beats);
  (match !beats with
  | [ p ] ->
    check Alcotest.string "name" "solver" p.T.p_name;
    check Alcotest.int "nodes" 10 p.T.p_nodes;
    check Alcotest.bool "elapsed sane" true (p.T.p_elapsed >= 0.)
  | _ -> Alcotest.fail "expected exactly one beat");
  (* Counter events carry the same sample. *)
  let events = T.drain () in
  check Alcotest.bool "nodes counter present" true
    (List.exists
       (fun (e : T.event) -> e.T.e_ph = `Counter && e.T.e_value = 10)
       events);
  T.set_on_progress None

let test_ring_overflow_drops_oldest () =
  fresh ();
  T.start ();
  (* Far more events than any plausible ring size: the drain must stay
     bounded and the drop counter must own up to the difference. *)
  let total = 200_000 in
  for i = 1 to total do
    T.counter "spin" i
  done;
  T.stop ();
  let events = T.drain () in
  let kept = List.length events in
  check Alcotest.bool "ring bounded" true (kept < total);
  check Alcotest.int "kept + dropped = recorded" total (kept + T.dropped ());
  (* The ring keeps the newest events. *)
  check Alcotest.bool "newest survive" true
    (List.exists (fun (e : T.event) -> e.T.e_value = total) events)

let test_stats_record () =
  let s = T.Stats.make ~backend:"csp2-opt" ~nodes:100 ~fails:7 ~memo_hits:3 ~memo_misses:9 () in
  check Alcotest.int "defaults stay zero" 0 s.T.Stats.steals;
  let line = T.Stats.summary s in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "summary nodes" true (contains "n=100" line);
  check Alcotest.bool "summary memo" true (contains "memo=" line);
  let json = Prelude.Json.to_string (T.Stats.to_json s) in
  check Alcotest.bool "json backend" true (contains "\"backend\": \"csp2-opt\"" json);
  check Alcotest.bool "json nodes" true (contains "\"nodes\": 100" json)

let test_chrome_json_shape () =
  fresh ();
  T.start ();
  T.with_span "phase" ~cat:"core" (fun () -> T.counter "nodes" 3);
  T.instant "mark";
  T.stop ();
  let events = T.drain () in
  let stats = [ T.Stats.make ~backend:"arm" ~nodes:3 () ] in
  let json = T.to_chrome_json ~stats events in
  let contains needle =
    let nl = String.length needle and hl = String.length json in
    let rec go i = i + nl <= hl && (String.sub json i nl = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "traceEvents array" true (contains "\"traceEvents\"");
  check Alcotest.bool "complete span" true (contains "\"ph\": \"X\"");
  check Alcotest.bool "instant" true (contains "\"ph\": \"i\"");
  check Alcotest.bool "counter" true (contains "\"ph\": \"C\"");
  check Alcotest.bool "metadata stats" true (contains "\"ph\": \"M\"");
  check Alcotest.bool "span name" true (contains "\"name\": \"phase\"");
  (* The export parses: one span, one counter, one instant, and the
     stats record as a metadata event. *)
  let module J = Prelude.Json in
  match Option.bind (Result.to_option (J.parse json)) (J.member "traceEvents") with
  | Some (J.Arr events) ->
    let phs = List.filter_map (fun e -> Option.bind (J.member "ph" e) J.to_str) events in
    check Alcotest.int "event count" 4 (List.length events);
    check Alcotest.(list string) "each event's ph" [ "C"; "M"; "X"; "i" ]
      (List.sort String.compare phs)
  | _ -> Alcotest.fail "export does not parse as an object with a traceEvents array"

let test_restart_discards_stale () =
  fresh ();
  T.start ();
  T.instant "stale";
  (* No stop: a second [start] re-zeroes the clock and invalidates the
     epoch, so the stale event must not leak into the new recording. *)
  T.start ();
  T.instant "fresh";
  T.stop ();
  let events = T.drain () in
  check Alcotest.int "only the fresh event" 1 (List.length events);
  check Alcotest.string "fresh survives" "fresh"
    (match events with [ e ] -> e.T.e_name | _ -> "?")

let () =
  Alcotest.run "telemetry"
    [
      ( "recording",
        [
          Alcotest.test_case "disabled records nothing" `Quick test_disabled_records_nothing;
          Alcotest.test_case "span capture" `Quick test_span_capture;
          Alcotest.test_case "span survives exceptions" `Quick test_span_records_on_exception;
          Alcotest.test_case "counters and instants" `Quick test_counters_and_instants;
          Alcotest.test_case "per-domain buffers" `Quick test_per_domain_buffers;
          Alcotest.test_case "restart discards stale events" `Quick test_restart_discards_stale;
          Alcotest.test_case "ring overflow" `Quick test_ring_overflow_drops_oldest;
        ] );
      ( "progress",
        [
          Alcotest.test_case "heartbeat rate limit + callback" `Quick
            test_heartbeat_rate_limit_and_callback;
        ] );
      ( "export",
        [
          Alcotest.test_case "stats record" `Quick test_stats_record;
          Alcotest.test_case "chrome json shape" `Quick test_chrome_json_shape;
        ] );
    ]
