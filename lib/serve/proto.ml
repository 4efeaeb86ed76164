open Rt_model
module Json = Prelude.Json

type solve_request = {
  id : string;
  tuples : (int * int * int * int) list;
  m : int;
  solver : Core.solver option;
  wall_s : float option;
  nodes : int option;
  seed : int;
  want_schedule : bool;
  no_cache : bool;
}

type request =
  | Solve of solve_request
  | Stats_request
  | Shutdown_request
  | Malformed of string * string

(* ------------------------------------------------------------------ *)
(* Request parsing.                                                    *)

exception Bad of string

let field_int name v =
  match Json.to_int v with
  | Some i -> i
  | None -> raise (Bad (Printf.sprintf "field %S must be an integer" name))

let tuples_of_json rows =
  List.mapi
    (fun i row ->
      match Json.to_list row with
      | Some [ o; c; d; t ] ->
        let g v = field_int "taskset" v in
        (g o, g c, g d, g t)
      | Some _ | None ->
        raise (Bad (Printf.sprintf "taskset row %d must be an [O, C, D, T] quadruple" i)))
    rows

let tuples_of_text text =
  (* Reuse the CLI text format; [taskset_of_string] validates per line. *)
  Array.to_list
    (Array.map
       (fun (t : Task.t) -> (t.Task.offset, t.Task.wcet, t.Task.deadline, t.Task.period))
       (Taskset.tasks (Io.taskset_of_string text)))

let parse_request ~fallback_id line =
  match Json.parse line with
  | Error msg -> Malformed (fallback_id, msg)
  | Ok json ->
    let id =
      match Json.member "id" json with
      | Some (Json.Str s) -> s
      | Some (Json.Num _ as n) -> (
        match Json.to_int n with
        | Some i -> string_of_int i
        | None -> fallback_id)
      | Some _ | None -> fallback_id
    in
    (try
       match
         match Json.member "cmd" json with
         | None -> `Solve
         | Some c -> (
           match Json.to_str c with
           | Some "solve" -> `Solve
           | Some "stats" -> `Stats
           | Some "shutdown" -> `Shutdown
           | Some other -> raise (Bad (Printf.sprintf "unknown cmd %S" other))
           | None -> raise (Bad "field \"cmd\" must be a string"))
       with
       | `Stats -> Stats_request
       | `Shutdown -> Shutdown_request
       | `Solve ->
      let tuples =
        match (Json.member "taskset" json, Json.member "taskset_text" json) with
        | Some rows, None -> (
          match Json.to_list rows with
          | Some rows -> tuples_of_json rows
          | None -> raise (Bad "field \"taskset\" must be an array of [O, C, D, T] rows"))
        | None, Some text -> (
          match Json.to_str text with
          | Some text -> (
            try tuples_of_text text with Failure msg -> raise (Bad msg))
          | None -> raise (Bad "field \"taskset_text\" must be a string"))
        | Some _, Some _ -> raise (Bad "give either \"taskset\" or \"taskset_text\", not both")
        | None, None -> raise (Bad "missing field \"taskset\" (or \"taskset_text\")")
      in
      let m =
        match Json.member "m" json with
        | Some v -> field_int "m" v
        | None -> raise (Bad "missing field \"m\"")
      in
      let solver =
        match Json.member "solver" json with
        | None -> None
        | Some v -> (
          match Json.to_str v with
          | None -> raise (Bad "field \"solver\" must be a string")
          | Some name -> (
            match Core.solver_of_string name with
            | Some s -> Some s
            | None -> raise (Bad (Printf.sprintf "unknown solver %S" name))))
      in
      let opt_float name =
        match Json.member name json with
        | None -> None
        | Some v -> (
          match Json.to_float v with
          | Some f -> Some f
          | None -> raise (Bad (Printf.sprintf "field %S must be a number" name)))
      in
      let opt_int name =
        match Json.member name json with None -> None | Some v -> Some (field_int name v)
      in
      let opt_bool name =
        match Json.member name json with
        | None -> false
        | Some v -> (
          match Json.to_bool v with
          | Some b -> b
          | None -> raise (Bad (Printf.sprintf "field %S must be a boolean" name)))
      in
         Solve
           {
             id;
             tuples;
             m;
             solver;
             wall_s = opt_float "wall_s";
             nodes = opt_int "nodes";
             seed = (match opt_int "seed" with Some s -> s | None -> 0);
             want_schedule = opt_bool "schedule";
             no_cache = opt_bool "no_cache";
           }
     with Bad msg -> Malformed (id, msg))

(* ------------------------------------------------------------------ *)
(* Responses.                                                          *)

type status = Decided | Undecided | Error | Rejected

type response = {
  r_id : string;
  r_status : status;
  r_code : int;
  r_verdict : string option;
  r_cached : bool;
  r_solver : string option;
  r_winner : string option;
  r_time_s : float;
  r_queue_s : float;
  r_stats : Telemetry.Stats.t option;
  r_error : string option;
  r_schedule : Rt_model.Schedule.t option;
}

let status_string = function
  | Decided -> "decided"
  | Undecided -> "undecided"
  | Error -> "error"
  | Rejected -> "rejected"

let response_json r =
  let opt name f = function Some v -> [ (name, f v) ] | None -> [] in
  let str v = Json.Str v in
  let head =
    Json.Obj
      ([
         ("id", Json.Str r.r_id);
         ("status", Json.Str (status_string r.r_status));
         ("code", Json.int r.r_code);
       ]
      @ opt "verdict" str r.r_verdict
      @ [ ("cached", Json.Bool r.r_cached) ]
      @ opt "solver" str r.r_solver
      @ opt "winner" str r.r_winner
      @ [ ("time_s", Json.Num r.r_time_s); ("queue_s", Json.Num r.r_queue_s) ]
      @ opt "stats" Telemetry.Stats.to_json r.r_stats
      @ opt "error" str r.r_error)
  in
  (* Cells print 1-based, idle as 0. *)
  match r.r_schedule with
  | None -> Json.to_string head
  | Some sched ->
    Json.to_string_with_rows head ~name:"schedule"
      ~cell:(fun v -> if v = Schedule.idle then 0 else v + 1)
      (Schedule.rows sched)

let error_response ~id ~queue_s err =
  {
    r_id = id;
    r_status = Error;
    r_code = Core.error_exit_code err;
    r_verdict = None;
    r_cached = false;
    r_solver = None;
    r_winner = None;
    r_time_s = 0.;
    r_queue_s = queue_s;
    r_stats = None;
    r_error = Some (Core.error_message err);
    r_schedule = None;
  }

let rejected_response ~id ~queue_depth =
  {
    r_id = id;
    r_status = Rejected;
    r_code = 6;
    r_verdict = None;
    r_cached = false;
    r_solver = None;
    r_winner = None;
    r_time_s = 0.;
    r_queue_s = 0.;
    r_stats = None;
    r_error =
      Some
        (Printf.sprintf "rejected: queue full (%d requests deep); retry later" queue_depth);
    r_schedule = None;
  }

(* ------------------------------------------------------------------ *)
(* Live counters.                                                      *)

type counters = {
  uptime_s : float;
  received : int;
  served : int;
  decided : int;
  undecided : int;
  errors : int;
  rejected : int;
  crashed : int;
  front_door_infeasible : int;
  cache : Cache.stats;
  in_flight : int;
  queue_depth : int;
  workers : int;
  jobs_per_request : int;
}

let counters_json c =
  let int = Json.int in
  Json.to_string
    (Json.Obj
       [
         ("event", Json.Str "stats");
         ("uptime_s", Json.Num c.uptime_s);
         ("received", int c.received);
         ("served", int c.served);
         ("decided", int c.decided);
         ("undecided", int c.undecided);
         ("errors", int c.errors);
         ("rejected", int c.rejected);
         ("crashed", int c.crashed);
         ("front_door_infeasible", int c.front_door_infeasible);
         ("cache_hits", int c.cache.Cache.hits);
         ("cache_misses", int c.cache.Cache.misses);
         ("cache_stores", int c.cache.Cache.stores);
         ("cache_evictions", int c.cache.Cache.evictions);
         ("cache_entries", int c.cache.Cache.entries);
         ("in_flight", int c.in_flight);
         ("queue_depth", int c.queue_depth);
         ("workers", int c.workers);
         ("jobs_per_request", int c.jobs_per_request);
       ])
