(* Shared helpers for the test suites: QCheck generators for task systems
   and instances, and glue to register QCheck properties as alcotest
   cases. *)

open Rt_model

let qtest ?(count = 100) ?print name gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ?print gen law)

(* A small task: parameters bounded so hyperperiods stay tiny and
   exhaustive cross-checks remain fast. *)
let task_gen ~tmax =
  let open QCheck2.Gen in
  int_range 1 tmax >>= fun period ->
  int_range 1 period >>= fun deadline ->
  int_range 1 deadline >>= fun wcet ->
  int_range 0 (period - 1) >>= fun offset ->
  return (Task.make ~offset ~wcet ~deadline ~period ())

let taskset_gen ?(nmax = 5) ?(tmax = 5) () =
  let open QCheck2.Gen in
  int_range 1 nmax >>= fun n ->
  list_size (return n) (task_gen ~tmax) >>= fun tasks ->
  return (Taskset.of_tasks tasks)

(* An instance pairs a task set with a processor count 1 <= m <= n+1. *)
let instance_gen ?(nmax = 5) ?(tmax = 5) () =
  let open QCheck2.Gen in
  taskset_gen ~nmax ~tmax () >>= fun ts ->
  int_range 1 (Taskset.size ts + 1) >>= fun m ->
  return (ts, m)

let print_taskset ts = Taskset.to_string ts
let print_instance (ts, m) = Printf.sprintf "m=%d %s" m (Taskset.to_string ts)

(* An arbitrary-deadline task (D may exceed T). *)
let loose_task_gen ~tmax =
  let open QCheck2.Gen in
  int_range 1 tmax >>= fun period ->
  int_range 1 (2 * tmax) >>= fun deadline ->
  int_range 1 deadline >>= fun wcet ->
  int_range 0 (period - 1) >>= fun offset ->
  return (Task.make ~offset ~wcet ~deadline ~period ())

let loose_taskset_gen ?(nmax = 4) ?(tmax = 4) () =
  let open QCheck2.Gen in
  int_range 1 nmax >>= fun n ->
  list_size (return n) (loose_task_gen ~tmax) >>= fun tasks ->
  return (Taskset.of_tasks tasks)

(* A heterogeneous platform for [n] tasks: every task keeps at least one
   positive rate. *)
let platform_gen ~n =
  let open QCheck2.Gen in
  int_range 1 3 >>= fun m ->
  let row =
    list_size (return m) (int_range 0 2) >>= fun rates ->
    if List.for_all (fun r -> r = 0) rates then
      int_range 0 (m - 1) >>= fun lucky ->
      return (List.mapi (fun j r -> if j = lucky then 1 else r) rates)
    else return rates
  in
  list_size (return n) row >>= fun rows ->
  return (Platform.heterogeneous ~rates:(Array.of_list (List.map Array.of_list rows)))

(* One pinned n = 10, m = 5, H = 420 instance of the paper's regime (U =
   3.67), the one bench/micro.ml times: the allocation gates measure on it. *)
let pinned_5x420 =
  Taskset.of_tuples
    [
      (2, 2, 2, 4); (3, 3, 6, 7); (3, 1, 4, 5); (5, 3, 6, 6); (2, 1, 4, 4);
      (1, 1, 1, 6); (3, 4, 7, 7); (0, 4, 7, 7); (3, 1, 5, 5); (0, 2, 7, 7);
    ]

(* Words one call of [f] allocates, minor and major heap together.  A
   minor collection on each side flushes the allocation counters. *)
let allocated_words f =
  Gc.minor ();
  let before = Gc.quick_stat () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor ();
  let after = Gc.quick_stat () in
  let total (s : Gc.stat) = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words in
  total after -. total before

(* Domains spawned while [f] runs, pooled or not.  Domain ids grow by one
   per [Domain.spawn], so the gap between the ids of two probe domains,
   one spawned on each side of [f], counts the spawns made between them. *)
let spawns_during f =
  let probe () =
    let d = Domain.spawn ignore in
    let id = (Domain.get_id d :> int) in
    Domain.join d;
    id
  in
  let before = probe () in
  f ();
  probe () - before - 1
