open Rt_model

type step =
  | Utilization of { demand : int; supply : int }
  | Supply_shortfall of { demand : int; supply : int }
  | Hall of { jobs : (int * int) list; demand : int; supply : int }

type t = { m : int; step : step }

(* The supply of a utilization step is m·T itself, never a product that
   wrapped past [max_int]. *)
let utilization_holds ts ~m ~demand ~supply =
  let num, den = Taskset.utilization_num_den ts in
  demand = num && m <= max_int / den && supply = m * den && demand > supply

(* [count] holds, per slot, how many of the charged jobs' windows hold
   it: the claimed numbers must be the recount's, and fall short. *)
let shortfall ~m count ~demand ~total ~supply =
  demand = total
  && supply = Array.fold_left (fun acc c -> acc + Int.min m c) 0 count
  && supply < demand

(* Distinct jobs of the task set; each adds its C to the demand and one
   to the count of every slot of its window.  [None] on a job the task
   set does not have, or one listed twice. *)
let hall_count ts jobs =
  let windows = Windows.build ts in
  let seen = Array.make (Windows.job_count windows) false in
  let count = Array.make (Windows.horizon windows) 0 in
  let rec go acc = function
    | [] -> Some (acc, count)
    | (task, k) :: rest ->
      if task < 0 || task >= Taskset.size ts || k < 0 || k >= Taskset.jobs_per_hyperperiod ts task
      then None
      else begin
        let g = Windows.global_index windows ~task ~index:k in
        if seen.(g) then None
        else begin
          seen.(g) <- true;
          Array.iter (fun s -> count.(s) <- count.(s) + 1) (Windows.jobs windows).(g).slots;
          go (acc + (Taskset.task ts task).wcet) rest
        end
      end
  in
  go 0 jobs

let validate ts platform (cert : t) =
  Platform.is_identical platform
  && Platform.processors platform = cert.m
  && cert.m >= 1
  && Taskset.is_constrained ts
  &&
  match cert.step with
  | Utilization { demand; supply } -> utilization_holds ts ~m:cert.m ~demand ~supply
  | Supply_shortfall { demand; supply } ->
    shortfall ~m:cert.m
      (Windows.slot_load (Windows.build ts))
      ~demand ~total:(Taskset.total_demand ts) ~supply
  | Hall { jobs; demand; supply } -> (
    match hall_count ts jobs with
    | None -> false
    | Some (total, count) -> shortfall ~m:cert.m count ~demand ~total ~supply)

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
  | Supply_shortfall { demand; supply } ->
    Format.fprintf ppf
      "summed over the hyperperiod, the slot supply Σ min(m, tasks whose window holds the slot) = \
       %d cannot cover the total demand %d"
      supply demand
  | Hall { jobs; demand; supply } ->
    Format.fprintf ppf
      "the %d job(s) %a need %d unit(s), but their windows offer only %d (Σ over slots of \
       min(m, how many of them hold the slot))"
      (List.length jobs) pp_jobs jobs demand supply

let pp ppf (cert : t) =
  Format.fprintf ppf "@[<v>infeasible on %d processor(s):@,  %a@]" cert.m pp_step cert.step
