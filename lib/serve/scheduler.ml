open Rt_model

type config = {
  workers : int;
  jobs_per_request : int;
  queue_capacity : int;
  default_wall_s : float;
  max_wall_s : float;
  cache_capacity : int;
}

let default_config () =
  let total = Prelude.Parallel.recommended_jobs () in
  (* Shard the machine: half the domains become concurrent workers, the
     other half intra-request parallelism — so two tenants solving at once
     split the cores instead of oversubscribing them 2x. *)
  let workers = max 1 (total / 2) in
  let jobs_per_request = max 1 (total / workers) in
  {
    workers;
    jobs_per_request;
    queue_capacity = 64;
    default_wall_s = 5.;
    max_wall_s = 30.;
    cache_capacity = 512;
  }

(* ------------------------------------------------------------------ *)
(* Bounded admission queue.  All mutation happens in these helpers,
   rooted at their queue parameter, so worker closures stay free of
   captured-root writes (tool/lint racy-mutable rule 3). *)

type queue = {
  mu : Mutex.t;
  nonempty : Condition.t;
  items : (Proto.solve_request * float) Queue.t;
  mutable closed : bool;
}

let queue_create () =
  { mu = Mutex.create (); nonempty = Condition.create (); items = Queue.create (); closed = false }

let queue_push q ~capacity item =
  Mutex.lock q.mu;
  let r =
    if q.closed || Queue.length q.items >= capacity then `Rejected (Queue.length q.items)
    else begin
      Queue.push item q.items;
      Condition.signal q.nonempty;
      `Accepted
    end
  in
  Mutex.unlock q.mu;
  r

let queue_pop q =
  Mutex.lock q.mu;
  let rec wait () =
    if not (Queue.is_empty q.items) then Some (Queue.pop q.items)
    else if q.closed then None
    else begin
      Condition.wait q.nonempty q.mu;
      wait ()
    end
  in
  let item = wait () in
  Mutex.unlock q.mu;
  item

let queue_close q =
  Mutex.lock q.mu;
  q.closed <- true;
  Condition.broadcast q.nonempty;
  Mutex.unlock q.mu

let queue_depth q =
  Mutex.lock q.mu;
  let n = Queue.length q.items in
  Mutex.unlock q.mu;
  n

(* ------------------------------------------------------------------ *)

type t = {
  config : config;
  emit : string -> unit;
  cache : Cache.t;
  queue : queue;
  started : float;
  received : int Atomic.t;
  served : int Atomic.t;
  decided : int Atomic.t;
  undecided : int Atomic.t;
  errors : int Atomic.t;
  rejected : int Atomic.t;
  crashed : int Atomic.t;
  front_door : int Atomic.t;
  in_flight : int Atomic.t;
}

(* ------------------------------------------------------------------ *)
(* The per-request pipeline. *)

(* Exact necessary-condition check, U > m over the hyperperiod: answers
   structurally infeasible requests without queueing any search. *)
let front_door_infeasible ts ~m = Analysis.utilization_exceeds ts ~m

let decided_response (req : Proto.solve_request) ~verdict ~cached ~solver ~winner ~time_s
    ~stats ~schedule =
  {
    Proto.r_id = req.Proto.id;
    r_status = Proto.Decided;
    r_code = 0;
    r_verdict = Some verdict;
    r_cached = cached;
    r_solver = solver;
    r_winner = winner;
    r_time_s = time_s;
    r_queue_s = 0.;
    r_stats = stats;
    r_error = None;
    r_schedule = (if req.Proto.want_schedule then schedule else None);
  }

let undecided_response (req : Proto.solve_request) ~verdict ~solver ~time_s ~stats ~error =
  {
    Proto.r_id = req.Proto.id;
    r_status = Proto.Undecided;
    r_code = 2;
    r_verdict = Some verdict;
    r_cached = false;
    r_solver = solver;
    r_winner = None;
    r_time_s = time_s;
    r_queue_s = 0.;
    r_stats = stats;
    r_error = error;
    r_schedule = None;
  }

let run t (req : Proto.solve_request) =
  if req.Proto.m < 1 then
    invalid_arg (Printf.sprintf "m must be >= 1 (got %d)" req.Proto.m);
  let ts = Taskset.of_tuples req.Proto.tuples in
  let m = req.Proto.m in
  if front_door_infeasible ts ~m then begin
    Atomic.incr t.front_door;
    decided_response req ~verdict:"infeasible" ~cached:false ~solver:(Some "front-door")
      ~winner:None ~time_s:0. ~stats:None ~schedule:None
  end
  else begin
    let fp = Fingerprint.of_taskset ts ~m in
    let key = Fingerprint.key fp in
    let cached_entry = if req.Proto.no_cache then None else Cache.find t.cache ~key in
    match cached_entry with
    | Some (Cache.Feasible_entry { schedule; stored_by }) ->
      (* A request that lists its tasks as the storing one did reads the
         stored grid itself; any other order needs a grid in its own ids,
         its answer. *)
      let sched =
        match Fingerprint.relabeling ~stored:stored_by fp with
        | None -> schedule
        | Some map -> Schedule.relabel map schedule
      in
      (* Verify-on-hit: the cache is sound by construction (DESIGN.md
         §11), but verifying the witness costs O((m + n)·H) time, and on
         a warm worker O(n) words, against a search that cost orders
         more — cheap insurance.  A violation here is a bug, surfaced as
         a contained crash, never as a wrong verdict.  The hit's [time_s]
         stays 0, as it reports solve time and a hit solves nothing; the
         span shows the check in traces. *)
      Telemetry.with_span "verify-hit" ~cat:"serve" (fun () ->
          match Verify.check_cyclic ts sched with
          | Ok () -> ()
          | Error _ -> failwith ("serve cache returned an infeasible schedule for " ^ req.Proto.id));
      decided_response req ~verdict:"feasible" ~cached:true ~solver:None ~winner:None
        ~time_s:0. ~stats:None ~schedule:(Some sched)
    | Some Cache.Infeasible_entry ->
      decided_response req ~verdict:"infeasible" ~cached:true ~solver:None ~winner:None
        ~time_s:0. ~stats:None ~schedule:None
    | None ->
      let wall_s =
        Float.min t.config.max_wall_s
          (match req.Proto.wall_s with Some w -> w | None -> t.config.default_wall_s)
      in
      let budget = Prelude.Timer.budget ~wall_s ?nodes:req.Proto.nodes () in
      let solver =
        match req.Proto.solver with
        | Some (Core.Portfolio _) -> Core.Portfolio t.config.jobs_per_request
        | Some s -> s
        | None -> Core.default_solver
      in
      let verdict, time_s, winner, stats =
        match solver with
        | Core.Portfolio jobs ->
          let r = Core.solve_portfolio ~jobs ~budget ~seed:req.Proto.seed ts ~m in
          let winner_stats =
            match
              List.find_opt (fun (b : Portfolio.backend_stats) -> b.winner) r.Portfolio.backends
            with
            | Some b -> Some b.Portfolio.stats
            | None -> None
          in
          (r.Portfolio.verdict, r.Portfolio.time_s, r.Portfolio.winner, winner_stats)
        | s ->
          let v, time_s = Core.solve ~solver:s ~budget ~seed:req.Proto.seed ts ~m in
          (v, time_s, None, None)
      in
      let solver_name = Some (Core.solver_name solver) in
      (match verdict with
      | Core.Feasible sched ->
        if not req.Proto.no_cache then
          Cache.store t.cache ~key (Cache.Feasible_entry { schedule = sched; stored_by = fp });
        decided_response req ~verdict:"feasible" ~cached:false ~solver:solver_name ~winner
          ~time_s ~stats ~schedule:(Some sched)
      | Core.Infeasible ->
        if not req.Proto.no_cache then Cache.store t.cache ~key Cache.Infeasible_entry;
        decided_response req ~verdict:"infeasible" ~cached:false ~solver:solver_name ~winner
          ~time_s ~stats ~schedule:None
      | Core.Limit ->
        undecided_response req ~verdict:"limit" ~solver:solver_name ~time_s ~stats ~error:None
      | Core.Memout msg ->
        undecided_response req ~verdict:"memout" ~solver:solver_name ~time_s ~stats
          ~error:(Some msg))
  end

(* Outcome accounting lives here, not in the worker loop, so counters
   stay coherent for synchronous [process] callers (tests) too. *)
let account t (resp : Proto.response) =
  Atomic.incr t.served;
  match resp.Proto.r_code with
  | 0 -> Atomic.incr t.decided
  | 2 -> Atomic.incr t.undecided
  | 5 -> Atomic.incr t.crashed
  | _ -> Atomic.incr t.errors

let process t ~queue_s (req : Proto.solve_request) =
  let id = req.Proto.id in
  let outcome =
    Resilience.Supervise.protect ~name:("request:" ^ id) (fun () ->
        Resilience.Failpoint.hit "serve.request";
        match run t req with
        | resp -> resp
        | exception e -> (
          match Core.error_of_exn e with
          | Some err -> Proto.error_response ~id ~queue_s:0. err
          | None -> raise e))
  in
  let resp =
    match outcome with
    | Ok resp -> { resp with Proto.r_queue_s = queue_s }
    | Error crash ->
      {
        Proto.r_id = id;
      r_status = Proto.Error;
      r_code = 5;
      r_verdict = None;
      r_cached = false;
      r_solver = None;
      r_winner = None;
      r_time_s = 0.;
      r_queue_s = queue_s;
      r_stats = None;
        r_error =
          Some ("request crashed (contained): " ^ Resilience.Supervise.crash_message crash);
        r_schedule = None;
      }
  in
  account t resp;
  resp

(* ------------------------------------------------------------------ *)
(* Serving: worker loops and the stats ticker, as jobs of one pool run. *)

let rec worker_loop t =
  match queue_pop t.queue with
  | None -> ()
  | Some (req, enqueued_at) ->
    Atomic.incr t.in_flight;
    let queue_s = Prelude.Timer.now () -. enqueued_at in
    let resp = process t ~queue_s req in
    t.emit (Proto.response_json resp);
    Atomic.decr t.in_flight;
    worker_loop t

let create ?config ~emit () =
  let config = match config with Some c -> c | None -> default_config () in
  {
    config;
    emit;
    cache = Cache.create ~capacity:config.cache_capacity;
    queue = queue_create ();
    started = Prelude.Timer.now ();
    received = Atomic.make 0;
    served = Atomic.make 0;
    decided = Atomic.make 0;
    undecided = Atomic.make 0;
    errors = Atomic.make 0;
    rejected = Atomic.make 0;
    crashed = Atomic.make 0;
    front_door = Atomic.make 0;
    in_flight = Atomic.make 0;
  }

let counters t =
  {
    Proto.uptime_s = Prelude.Timer.now () -. t.started;
    received = Atomic.get t.received;
    served = Atomic.get t.served;
    decided = Atomic.get t.decided;
    undecided = Atomic.get t.undecided;
    errors = Atomic.get t.errors;
    rejected = Atomic.get t.rejected;
    crashed = Atomic.get t.crashed;
    front_door_infeasible = Atomic.get t.front_door;
    cache = Cache.stats t.cache;
    in_flight = Atomic.get t.in_flight;
    queue_depth = queue_depth t.queue;
    workers = t.config.workers;
    jobs_per_request = t.config.jobs_per_request;
  }

let emit_stats t = t.emit (Proto.counters_json (counters t))

let handle_line t ~fallback_id line =
  match Proto.parse_request ~fallback_id line with
  | Proto.Malformed (id, msg) ->
    Atomic.incr t.received;
    Atomic.incr t.errors;
    t.emit (Proto.response_json (Proto.error_response ~id ~queue_s:0. (Core.Invalid_input msg)));
    `Continue
  | Proto.Stats_request ->
    emit_stats t;
    `Continue
  | Proto.Shutdown_request -> `Shutdown
  | Proto.Solve req ->
    Atomic.incr t.received;
    (match
       queue_push t.queue ~capacity:t.config.queue_capacity (req, Prelude.Timer.now ())
     with
    | `Accepted -> ()
    | `Rejected depth ->
      Atomic.incr t.rejected;
      t.emit
        (Proto.response_json (Proto.rejected_response ~id:req.Proto.id ~queue_depth:depth)));
    `Continue

let shutdown t = queue_close t.queue

(* The stats ticker polls a stop flag at a fine grain so shutdown never
   waits out a long stats interval; state lives in the loop's accumulator
   parameter (no captured mutable state on a pooled domain). *)
let ticker_loop t ~stop ~every =
  let tick = 0.05 in
  let rec go acc =
    if not (Atomic.get stop) then begin
      Unix.sleepf tick;
      let acc = acc +. tick in
      if acc >= every then begin
        emit_stats t;
        go 0.
      end
      else go acc
    end
  in
  go 0.

(* Job 0 is [f] on the calling domain, jobs 1..workers drain the queue,
   and the last job, when asked for, is the ticker.  The pool hands out
   every job before [f] starts and returns once all of them have. *)
let serve ?stats_every_s t f =
  let workers = t.config.workers in
  let stop = Atomic.make false in
  let ticker = match stats_every_s with Some every when every > 0. -> 1 | Some _ | None -> 0 in
  Csp2.Pool.run ~jobs:(1 + workers + ticker) (fun i ->
      if i = 0 then
        Fun.protect
          ~finally:(fun () ->
            shutdown t;
            Atomic.set stop true)
          f
      else if i <= workers then worker_loop t
      else ticker_loop t ~stop ~every:(Option.get stats_every_s))
