(* The fields of a serve response line the bench reads. *)

module Json = Serve.Json

type t = {
  id : string;
  code : int;
  verdict : string option;
  cached : bool;
  solver : string option;
  time_s : float;
  queue_s : float;
  schedule : Rt_model.Schedule.t option;
      (** Wire cells are 1-based task ids with 0 for idle. *)
  bytes : int;
}

let schedule_of_json rows =
  let cell v =
    match Json.to_int v with
    | Some 0 -> Rt_model.Schedule.idle
    | Some id when id > 0 -> id - 1
    | Some _ | None -> failwith "schedule cell is not a task id"
  in
  let row r =
    match Json.to_list r with
    | Some cells -> Array.of_list (List.map cell cells)
    | None -> failwith "schedule row is not an array"
  in
  match Json.to_list rows with
  | Some rows -> Rt_model.Schedule.of_cells (Array.of_list (List.map row rows))
  | None -> failwith "schedule is not an array"

let parse line =
  match Json.parse line with
  | Error e -> Error e
  | Ok j -> (
    let str k = Option.bind (Json.member k j) Json.to_str in
    let num k = Option.value ~default:0. (Option.bind (Json.member k j) Json.to_float) in
    match (str "id", Option.bind (Json.member "code" j) Json.to_int) with
    | Some id, Some code -> (
      match Option.map schedule_of_json (Json.member "schedule" j) with
      | schedule ->
        Ok
          {
            id;
            code;
            verdict = str "verdict";
            cached = Option.bind (Json.member "cached" j) Json.to_bool = Some true;
            solver = str "solver";
            time_s = num "time_s";
            queue_s = num "queue_s";
            schedule;
            bytes = String.length line;
          }
      | exception (Failure e | Invalid_argument e) -> Error e)
    | _ -> Error "response without id or code")

(* A decisive verdict: what the cache may store and the checks compare. *)
let decisive r =
  match (r.code, r.verdict) with
  | 0, Some ("feasible" | "infeasible") -> r.verdict
  | _ -> None

(* Code 3/4/5/6: invalid input, overflow, contained crash, rejection. *)
let failed r = List.mem r.code [ 3; 4; 5; 6 ]
