open Prelude

type spec =
  | Csp2 of Csp2.Heuristic.t
  | Csp2_opt of Csp2.Heuristic.t
  | Csp1_sat
  | Local_search

let spec_name = function
  | Csp2 h -> "csp2+" ^ Csp2.Heuristic.to_string h
  | Csp2_opt h -> "csp2-opt+" ^ Csp2.Heuristic.to_string h
  | Csp1_sat -> "csp1-sat"
  | Local_search -> "local-search"

(* Complementarity first: the memoized search under the paper's best
   heuristic, then the heuristics that win on other instances, then the two
   different solver families; the memo-free D−C search rides at the tail
   as a cross-check arm.  With [jobs] below the list length the
   prefix runs first and the tail backfills as arms finish or lose. *)
let default_specs =
  [
    Csp2_opt Csp2.Heuristic.DC;
    Csp2 Csp2.Heuristic.RM;
    Csp1_sat;
    Local_search;
    Csp2 Csp2.Heuristic.DM;
    Csp2 Csp2.Heuristic.TC;
    Csp2 Csp2.Heuristic.DC;
  ]

type arm_status =
  | Ran
  | Crashed of string
  | Stalled
  | Not_started

type backend_stats = {
  name : string;
  outcome : Encodings.Outcome.t option;
  stats : Telemetry.Stats.t;
  winner : bool;
  status : arm_status;
}

exception All_arms_crashed of (string * string) list

type result = {
  verdict : Encodings.Outcome.t;
  winner : string option;
  time_s : float;
  backends : backend_stats list;
}

(* The unified {!Telemetry.Stats} view of each backend's native stats:
   SAT decisions/conflicts and local-search iterations/restarts play the
   roles of nodes/fails.  [memo_mb] only reaches the memo-on arms — the
   degradation retry runs them with a reduced table.  Both CSP2 arms run
   the sequential engine on purpose: each arm owns one domain already, so
   subtree splitting inside an arm would oversubscribe the race. *)
let run_spec spec ~budget ~seed ?memo_mb ?domains ts ~m =
  let backend = spec_name spec in
  match spec with
  | Csp2 heuristic ->
    let outcome, st = Csp2.Opt.solve ~heuristic ~budget ~memo_mb:0 ?domains ts ~m in
    (outcome, Csp2.Opt.to_stats ~backend st)
  | Csp2_opt heuristic ->
    let outcome, st = Csp2.Opt.solve ~heuristic ~budget ?memo_mb ?domains ts ~m in
    (outcome, Csp2.Opt.to_stats ~backend st)
  | Csp1_sat ->
    let outcome, st = Encodings.Csp1_sat.solve ~budget ~seed ?domains ts ~m in
    let stats =
      match st with
      | Some s -> Sat.Solver.to_stats ~backend s
      | None -> Telemetry.Stats.make ~backend ()
    in
    (outcome, stats)
  | Local_search ->
    let outcome, st = Localsearch.Min_conflicts.solve ~seed ~budget ?domains ts ~m in
    (outcome, Localsearch.Min_conflicts.to_stats ~backend st)

let analysis_arm_name = "static-analysis"

(* A queued unit of race work.  Originals occupy report slots [0..n-1] in
   spec order; the (at most one) retry of the arm in slot [i] reports in
   slot [n+i], so retry reports never race their originals. *)
type arm_job = {
  j_spec : spec;
  j_slot : int;
  j_seed : int;
  j_memo_mb : int option;
  j_retry : bool;
}

let solve ?(specs = default_specs) ?jobs ?(budget = Timer.unlimited) ?(seed = 0)
    ?(stall_beats = 16.) ?domains ts ~m =
  if m < 1 then invalid_arg "Portfolio.solve: m must be >= 1";
  if specs = [] then invalid_arg "Portfolio.solve: empty backend list";
  (* Every arm would reject mismatched domains as a contained crash, and
     the race would report [All_arms_crashed] for a caller's mistake. *)
  (match domains with
  | Some d
    when not
           (Analysis.Domains.matches d ~n:(Rt_model.Taskset.size ts) ~m
              ~horizon:(Rt_model.Taskset.hyperperiod ts)) ->
    invalid_arg "Portfolio.solve: domains derived for a different instance"
  | Some _ | None -> ());
  let race_t0 = Timer.start () in
  let specs = Array.of_list specs in
  let n = Array.length specs in
  let never_started i =
    let name = spec_name specs.(i) in
    {
      name;
      outcome = None;
      stats = Telemetry.Stats.make ~backend:name ();
      winner = false;
      status = Not_started;
    }
  in
  let jobs =
    let requested =
      match jobs with Some j -> j | None -> Parallel.recommended_jobs ()
    in
    Intmath.clamp ~lo:1 ~hi:n requested
  in
  (* One shared race: the first decisive arm claims the winner slot and
     raises the stop flag; every other arm observes the flag through its
     budget poll and returns [Limit].  The arms otherwise inherit the
     caller's wall/node limits, and — because [Timer.with_stop] demotes
     the caller's own flag to a watched one — an external [Timer.cancel]
     on [budget] still stops every arm. *)
  let race = Race.create () in
  let arm_budget = Timer.with_stop budget (Race.flag race) in
  let reports = Array.make (2 * n) None in
  (* A mutex-protected queue instead of a bare fetch-and-add index: a
     crashed or stalled arm can re-enqueue its (single) degraded retry,
     and freed domains backfill from whatever work is left. *)
  let qlock = Mutex.create () in
  let queue = Queue.create () in
  Array.iteri
    (fun i spec ->
      Queue.add { j_spec = spec; j_slot = i; j_seed = seed + i; j_memo_mb = None; j_retry = false }
        queue)
    specs;
  let pop () =
    Mutex.protect qlock (fun () -> if Queue.is_empty queue then None else Some (Queue.pop queue))
  in
  let push j = Mutex.protect qlock (fun () -> Queue.add j queue) in
  let watchdog =
    if stall_beats > 0. then Some (Resilience.Watchdog.create ~stall_beats ()) else None
  in
  let job_name j = spec_name j.j_spec ^ if j.j_retry then "(retry)" else "" in
  (* Retry-with-degradation: one retry per arm, from the original attempt
     only.  A failing csp2-opt arm rides again with its memo budget
     halved (a further failure disables the arm — no third attempt); a
     crashed SAT arm rides again under a fresh seed.  The classic CSP2
     and local-search arms have nothing to degrade. *)
  let retry_of j =
    if j.j_retry then None
    else
      match j.j_spec with
      | Csp2_opt _ ->
        Some { j with j_slot = n + j.j_slot; j_retry = true;
               j_memo_mb = Some (Csp2.Opt.default_memo_mb / 2) }
      | Csp1_sat -> Some { j with j_slot = n + j.j_slot; j_retry = true; j_seed = j.j_seed + 7919 }
      | Csp2 _ | Local_search -> None
  in
  let maybe_retry j =
    if (not (Race.stopped race)) && not (Timer.cancelled arm_budget) then
      Option.iter push (retry_of j)
  in
  let run_job j =
    let name = job_name j in
    (* Each arm gets a private cancellation point on top of the shared
       race budget: the watchdog can cancel a stalled arm alone. *)
    let my_budget = Timer.fork arm_budget in
    let cell =
      Option.map
        (fun wd ->
          Resilience.Watchdog.watch wd ~name ~cancel:(fun () -> Timer.cancel my_budget))
        watchdog
    in
    let run () =
      Telemetry.with_span name ~cat:"arm" (fun () ->
          Resilience.Failpoint.hit "portfolio.arm_start";
          run_spec j.j_spec ~budget:my_budget ~seed:j.j_seed ?memo_mb:j.j_memo_mb ?domains ts
            ~m)
    in
    let protected =
      match cell with
      | Some c -> Resilience.Watchdog.with_cell c (fun () -> Resilience.Supervise.protect ~name run)
      | None -> Resilience.Supervise.protect ~name run
    in
    match protected with
    | Ok (outcome, stats) ->
      let stalled = match cell with Some c -> Resilience.Watchdog.stalled c | None -> false in
      let won = Encodings.Outcome.is_decided outcome && Race.claim race j.j_slot in
      (reports.(j.j_slot) <-
        Some
          {
            name;
            outcome = Some outcome;
            stats;
            winner = won;
            status = (if stalled then Stalled else Ran);
          })
      [@lint.racy_ok "slot is owned by this arm, read after the pool joins"];
      (* A memory-starved csp2-opt arm degrades like a crashed one. *)
      (match (outcome, j.j_spec) with
      | Encodings.Outcome.Memout _, Csp2_opt _ when not won -> maybe_retry j
      | _ -> ())
    | Error crash ->
      (reports.(j.j_slot) <-
        Some
          {
            name;
            outcome = None;
            stats = Telemetry.Stats.make ~backend:name ();
            winner = false;
            status = Crashed (Resilience.Supervise.crash_message crash);
          })
      [@lint.racy_ok "slot is owned by this arm, read after the pool joins"];
      maybe_retry j
  in
  let worker () =
    let rec loop () =
      if not (Race.stopped race) then
        match pop () with
        | None -> ()
        | Some j ->
          run_job j;
          loop ()
    in
    loop ()
  in
  Option.iter Resilience.Watchdog.start watchdog;
  (* Pooled domains, not per-race spawns: the portfolio is called in
     tight benchmark loops, and each arm supervises itself, so a warm
     worker carries no state across races beyond its domain-local engine
     caches — which are exactly what we want reused. *)
  Fun.protect
    ~finally:(fun () -> Option.iter Resilience.Watchdog.stop watchdog)
    (fun () -> Csp2.Pool.run ~jobs (fun _ -> worker ()));
  let originals =
    List.init n (fun i -> match reports.(i) with Some r -> r | None -> never_started i)
  in
  let retries = List.filter_map (fun i -> reports.(n + i)) (List.init n Fun.id) in
  (* Containment has a floor: when every arm that ran crashed (retries
     included) and none was even cut short by the budget, there is no
     honest verdict to report — surface the typed error instead of a
     fabricated [Limit]. *)
  let backends = originals @ retries in
  let crashes =
    List.filter_map
      (fun r -> match r.status with Crashed msg -> Some (r.name, msg) | _ -> None)
      backends
  in
  if List.length crashes = List.length backends then raise (All_arms_crashed crashes);
  (* Arms race on the same instance, so decisive verdicts must agree; a
     Feasible alongside an Infeasible is a solver soundness bug. *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          match (a.outcome, b.outcome) with
          | Some oa, Some ob when not (Encodings.Outcome.agree oa ob) ->
            failwith
              (Printf.sprintf "Portfolio.solve: %s and %s contradict each other" a.name b.name)
          | _ -> ())
        backends)
    backends;
  let verdict, winner_name =
    match Race.winner race with
    | -1 ->
      (* Nobody decided.  Prefer reporting [Limit] over a backend-specific
         [Memout]: some arm was cut short by the budget. *)
      let memouts =
        List.filter_map
          (fun b -> match b.outcome with Some (Encodings.Outcome.Memout _ as o) -> Some o | _ -> None)
          backends
      in
      let all_memout =
        List.for_all
          (fun b ->
            match b.outcome with
            | Some (Encodings.Outcome.Memout _) | None -> true
            | Some _ -> false)
          backends
      in
      ((match memouts with o :: _ when all_memout -> o | _ -> Encodings.Outcome.Limit), None)
    | slot ->
      let r = Option.get reports.(slot) in
      (Option.get r.outcome, Some r.name)
  in
  { verdict; winner = winner_name; time_s = Timer.elapsed race_t0; backends }

let summary r =
  let outcome_tag = function
    | Encodings.Outcome.Feasible _ -> "feasible"
    | Encodings.Outcome.Infeasible -> "infeasible"
    | Encodings.Outcome.Limit -> "limit"
    | Encodings.Outcome.Memout _ -> "memout"
  in
  let backend b =
    match b.status with
    | Crashed msg -> Printf.sprintf "%s !crashed(%s)" b.name msg
    | Not_started -> Printf.sprintf "%s -" b.name
    | Ran | Stalled -> (
      let stalled = if b.status = Stalled then " ~stalled" else "" in
      match b.outcome with
      | None -> Printf.sprintf "%s -%s" b.name stalled
      | Some o ->
        Printf.sprintf "%s%s %s %s%s"
          b.name (if b.winner then "*" else "") (outcome_tag o)
          (Telemetry.Stats.summary b.stats) stalled)
  in
  Printf.sprintf "portfolio: %s in %.4fs (winner %s) | %s"
    (outcome_tag r.verdict) r.time_s
    (match r.winner with Some w -> w | None -> "none")
    (String.concat " | " (List.map backend r.backends))
