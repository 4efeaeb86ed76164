open Prelude
open Rt_model

type step =
  | Utilization of { demand : int; supply : int }
  | Forced of { task : int; k : int }
  | Saturated of { time : int }
  | Slot_overload of { time : int }
  | Starved of { task : int; k : int; allowed : int; wcet : int }
  | Supply_shortfall of { demand : int; supply : int }
  | Hall of { jobs : (int * int) list; demand : int; supply : int }

type t = { m : int; steps : step list }

let is_terminal = function
  | Utilization _ | Slot_overload _ | Starved _ | Supply_shortfall _ | Hall _ -> true
  | Forced _ | Saturated _ -> false

(* Replay state: which in-window cells are still usable, and which tasks
   are forced per slot.  Built lazily so a bare utilization certificate
   never materializes the (potentially large) window tables. *)
type state = {
  ts : Taskset.t;
  m : int;
  windows : Windows.t;
  allowed : bool array array; (* [task].(slot) *)
  forced : Bitset.t array; (* per slot *)
}

let make_state ts ~m =
  let windows = Windows.build ts in
  let n = Taskset.size ts in
  let horizon = Windows.horizon windows in
  let allowed = Array.make_matrix n horizon false in
  Array.iter
    (fun (job : Windows.job) -> Array.iter (fun s -> allowed.(job.task).(s) <- true) job.slots)
    (Windows.jobs windows);
  { ts; m; windows; allowed; forced = Array.init horizon (fun _ -> Bitset.create n) }

let job_of st ~task ~k =
  if task < 0 || task >= Taskset.size st.ts then None
  else if k < 0 || k >= Taskset.jobs_per_hyperperiod st.ts task then None
  else Some (Windows.jobs st.windows).(Windows.global_index st.windows ~task ~index:k)

let allowed_slots st (job : Windows.job) =
  Array.fold_left (fun acc s -> if st.allowed.(job.task).(s) then acc + 1 else acc) 0 job.slots

(* The supply of a utilization step is m·T itself, never a product that
   wrapped past [max_int]. *)
let utilization_holds ts ~m ~demand ~supply =
  let num, den = Taskset.utilization_num_den ts in
  demand = num && m <= max_int / den && supply = m * den && demand > supply

let check_step st step =
  let horizon = Windows.horizon st.windows in
  let valid_slot time = time >= 0 && time < horizon in
  match step with
  | Utilization { demand; supply } -> utilization_holds st.ts ~m:st.m ~demand ~supply
  | Forced { task; k } -> (
    match job_of st ~task ~k with
    | None -> false
    | Some job ->
      let wcet = (Taskset.task st.ts task).wcet in
      allowed_slots st job = wcet
      && begin
           Array.iter
             (fun s -> if st.allowed.(task).(s) then Bitset.add st.forced.(s) task)
             job.slots;
           true
         end)
  | Saturated { time } ->
    valid_slot time
    && Bitset.cardinal st.forced.(time) = st.m
    && begin
         for task = 0 to Taskset.size st.ts - 1 do
           if not (Bitset.mem st.forced.(time) task) then st.allowed.(task).(time) <- false
         done;
         true
       end
  | Slot_overload { time } -> valid_slot time && Bitset.cardinal st.forced.(time) > st.m
  | Starved { task; k; allowed; wcet } -> (
    match job_of st ~task ~k with
    | None -> false
    | Some job ->
      (Taskset.task st.ts task).wcet = wcet
      && allowed_slots st job = allowed
      && allowed < wcet)
  | Supply_shortfall { demand; supply } ->
    let total = Taskset.total_demand st.ts in
    let cap = ref 0 in
    for time = 0 to horizon - 1 do
      let avail = ref 0 in
      for task = 0 to Taskset.size st.ts - 1 do
        if st.allowed.(task).(time) then incr avail
      done;
      cap := !cap + Int.min st.m !avail
    done;
    demand = total && supply = !cap && supply < demand
  | Hall { jobs; demand; supply } ->
    (* Distinct jobs; each adds its C to the demand and one to the count
       of every unblocked slot of its window. *)
    let seen = Array.make (Windows.job_count st.windows) false in
    let count = Array.make horizon 0 in
    let rec recount acc = function
      | [] -> Some acc
      | (task, k) :: rest -> (
        match job_of st ~task ~k with
        | None -> None
        | Some job ->
          let g = Windows.global_index st.windows ~task ~index:k in
          if seen.(g) then None
          else begin
            seen.(g) <- true;
            Array.iter
              (fun s -> if st.allowed.(task).(s) then count.(s) <- count.(s) + 1)
              job.slots;
            recount (acc + (Taskset.task st.ts task).wcet) rest
          end)
    in
    (match recount 0 jobs with
    | None -> false
    | Some total ->
      let cap = Array.fold_left (fun acc c -> acc + Int.min st.m c) 0 count in
      demand = total && supply = cap && supply < demand)

let validate ts platform (cert : t) =
  Platform.is_identical platform
  && Platform.processors platform = cert.m
  && cert.m >= 1
  && Taskset.is_constrained ts
  && cert.steps <> []
  &&
  let st = lazy (make_state ts ~m:cert.m) in
  let rec go = function
    | [] -> false
    | [ last ] -> is_terminal last && check_step (Lazy.force st) last
    | step :: rest -> (not (is_terminal step)) && check_step (Lazy.force st) step && go rest
  in
  (* A bare utilization argument is checked without building windows. *)
  match cert.steps with
  | [ Utilization { demand; supply } ] -> utilization_holds ts ~m:cert.m ~demand ~supply
  | steps -> go steps

(* A job set, task by task: "τ1 {1, 2}, τ3 {1}", job numbers 1-based. *)
let pp_jobs ppf jobs =
  let by_task = Hashtbl.create 8 in
  List.iter
    (fun (task, k) ->
      Hashtbl.replace by_task task (k :: Option.value ~default:[] (Hashtbl.find_opt by_task task)))
    jobs;
  let tasks = List.sort_uniq Int.compare (List.map fst jobs) in
  let pp_task ppf task =
    let ks = List.sort Int.compare (Hashtbl.find by_task task) in
    Format.fprintf ppf "τ%d {%a}" (task + 1)
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         (fun ppf k -> Format.pp_print_int ppf (k + 1)))
      ks
  in
  Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ") pp_task ppf tasks

let pp_step ppf = function
  | Utilization { demand; supply } ->
    Format.fprintf ppf "total demand %d exceeds the platform supply m·T = %d (utilization ratio r > 1)"
      demand supply
  | Forced { task; k } ->
    Format.fprintf ppf
      "job %d of τ%d has zero slack: every feasible schedule runs it in each of its remaining slots"
      (k + 1) (task + 1)
  | Saturated { time } ->
    Format.fprintf ppf "slot %d is saturated by m forced tasks; every other task is shut out of it"
      time
  | Slot_overload { time } ->
    Format.fprintf ppf "slot %d forces more than m tasks to run simultaneously" time
  | Starved { task; k; allowed; wcet } ->
    Format.fprintf ppf "job %d of τ%d retains only %d usable slot(s) for its %d execution unit(s)"
      (k + 1) (task + 1) allowed wcet
  | Supply_shortfall { demand; supply } ->
    Format.fprintf ppf
      "summed over the hyperperiod, the slot supply Σ min(m, available) = %d cannot cover the total demand %d"
      supply demand
  | Hall { jobs; demand; supply } ->
    Format.fprintf ppf
      "the %d job(s) %a need %d unit(s), but their windows offer only %d (Σ over slots of \
       min(m, how many of them hold the slot))"
      (List.length jobs) pp_jobs jobs demand supply

let pp ppf (cert : t) =
  Format.fprintf ppf "@[<v>infeasible on %d processor(s):@," cert.m;
  List.iteri (fun i step -> Format.fprintf ppf "  %d. %a@," (i + 1) pp_step step) cert.steps;
  Format.fprintf ppf "@]"
