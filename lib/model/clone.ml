type t = {
  original : Taskset.t;
  cloned : Taskset.t;
  origin : int array;  (* clone id -> original id *)
  clones : int list array;  (* original id -> clone ids *)
}

let transform ts =
  let n = Taskset.size ts in
  let clone_tasks = ref [] in
  let origin_rev = ref [] in
  for i = 0 to n - 1 do
    let task = Taskset.task ts i in
    let k = Prelude.Intmath.cdiv task.deadline task.period in
    let k = Int.max k 1 in
    for i' = 0 to k - 1 do
      let clone =
        Task.make
          ~offset:(task.offset + (i' * task.period))
          ~wcet:task.wcet ~deadline:task.deadline
          ~period:(k * task.period)
          ()
      in
      clone_tasks := clone :: !clone_tasks;
      origin_rev := i :: !origin_rev
    done
  done;
  let cloned = Taskset.of_tasks (List.rev !clone_tasks) in
  let origin = Array.of_list (List.rev !origin_rev) in
  let clones = Array.make n [] in
  Array.iteri (fun c i -> clones.(i) <- c :: clones.(i)) origin;
  Array.iteri (fun i l -> clones.(i) <- List.rev l) clones;
  { original = ts; cloned; origin; clones }

let cloned t = t.cloned
let original t = t.original
let origin t c = t.origin.(c)
let clone_count t i = List.length t.clones.(i)
let clones_of t i = t.clones.(i)

let map_schedule t sched =
  let horizon = Taskset.hyperperiod t.cloned in
  if Schedule.horizon sched <> horizon then
    invalid_arg "Clone.map_schedule: horizon differs from the clone hyperperiod";
  Schedule.relabel t.origin sched

let map_platform t platform =
  if Platform.is_identical platform then platform
  else
    let m = Platform.processors platform in
    let rates =
      Array.init (Array.length t.origin) (fun c ->
          Array.init m (fun proc -> Platform.rate platform ~task:t.origin.(c) ~proc))
    in
    Platform.heterogeneous ~rates
