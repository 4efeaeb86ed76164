(* The witness stage on the benchmark's three corpora (fresh, tight,
   repeat), over the instances past the serve front door (U <= m).  For
   each corpus the gate pins how many instances a verified global-LLF
   witness decides, checks that [Core.solve] answers those with exactly
   that witness, before any analysis or search, and pins how many the
   whole pipeline decides under the benchmark's node budget: all of them,
   as the analyzer's flow decides what the witness misses.  Every feasible
   answer is checked once: a witness by the witness stage itself, so
   [Core.solve] records no [verify] span for it, and any other schedule
   by [Core.solve]'s one [verify] span.  Every count is deterministic. *)

open Rt_model
module W = Mgrts_bench.Workload

let check = Alcotest.check

let past_front_door w =
  List.filter_map
    (fun (item : W.item) ->
      let ts = item.W.inst.W.ts and m = item.W.inst.W.m in
      if Analysis.utilization_exceeds ts ~m then None else Some (ts, m))
    (Array.to_list (W.corpus w))

let gate w ~reached ~witnesses ~decided () =
  let instances = past_front_door w in
  check Alcotest.int "past the front door" reached (List.length instances);
  let found = ref 0 and solved = ref 0 in
  List.iter
    (fun (ts, m) ->
      Telemetry.start ();
      let verdict, _ =
        Fun.protect ~finally:Telemetry.stop (fun () ->
            Core.solve ~budget:(Prelude.Timer.budget ~nodes:W.nodes ()) ts ~m)
      in
      let checks =
        List.length
          (List.filter
             (fun (e : Telemetry.event) -> e.e_ph = `Span && e.e_name = "verify")
             (Telemetry.drain ()))
      in
      (match (Sched.Sim.llf_witness ~budget:Prelude.Timer.unlimited ts ~m, verdict) with
      | Some witness, Core.Feasible answer ->
        incr found;
        Alcotest.(check bool) "witness verifies" true (Verify.check ts witness = Ok ());
        Alcotest.(check bool) "answered with the witness" true (Schedule.equal witness answer);
        check Alcotest.int "a witness is not checked again" 0 checks
      | Some _, (Core.Infeasible | Core.Limit | Core.Memout _) ->
        Alcotest.fail "a witnessed instance was not answered feasible"
      | None, Core.Feasible _ -> check Alcotest.int "any other schedule is checked once" 1 checks
      | None, (Core.Infeasible | Core.Limit | Core.Memout _) ->
        check Alcotest.int "no schedule" 0 checks);
      match verdict with
      | Core.Feasible _ | Core.Infeasible -> incr solved
      | Core.Limit | Core.Memout _ -> ())
    instances;
  check Alcotest.int "witnesses" witnesses !found;
  check Alcotest.int "left to the analyzer" (reached - witnesses) (reached - !found);
  check Alcotest.int "decided" decided !solved

let () =
  Alcotest.run "witness"
    [
      ( "benchmark corpora",
        [
          Alcotest.test_case "fresh" `Quick (gate W.Fresh ~reached:32 ~witnesses:27 ~decided:32);
          Alcotest.test_case "tight" `Quick (gate W.Tight ~reached:64 ~witnesses:42 ~decided:64);
          Alcotest.test_case "repeat" `Quick (gate W.Repeat ~reached:32 ~witnesses:32 ~decided:32);
        ] );
    ]
