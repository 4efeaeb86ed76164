open Rt_model

type t = {
  key : string;
  canon_of_orig : int array;  (* original task id -> canonical (sorted) id *)
  orig_of_canon : int array;
}

(* Field-wise order on (T, D, C, O); any fixed total order over (O, C, D,
   T) gives a canonical form — ties (identical tuples) make the
   permutation non-unique, but interchangeable tasks make any tie-break
   sound. *)
let compare_tasks (a : Task.t) (b : Task.t) =
  let c = Int.compare a.Task.period b.Task.period in
  if c <> 0 then c
  else
    let c = Int.compare a.Task.deadline b.Task.deadline in
    if c <> 0 then c
    else
      let c = Int.compare a.Task.wcet b.Task.wcet in
      if c <> 0 then c else Int.compare a.Task.offset b.Task.offset

let of_taskset ts ~m =
  let tasks = Taskset.tasks ts in
  let n = Array.length tasks in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> compare_tasks tasks.(a) tasks.(b)) order;
  let canon_of_orig = Array.make n 0 and orig_of_canon = Array.make n 0 in
  Array.iteri
    (fun canon orig ->
      canon_of_orig.(orig) <- canon;
      orig_of_canon.(canon) <- orig)
    order;
  (* "m=<m>;H=<H>", then ";<O>,<C>,<D>,<T>" per task in canonical order. *)
  let buf = Buffer.create (32 + (n * 12)) in
  let int = Prelude.Json.add_int buf in
  Buffer.add_string buf "m=";
  int m;
  Buffer.add_string buf ";H=";
  int (Taskset.hyperperiod ts);
  Array.iter
    (fun orig ->
      let t : Task.t = tasks.(orig) in
      Buffer.add_char buf ';';
      int t.Task.offset;
      Buffer.add_char buf ',';
      int t.Task.wcet;
      Buffer.add_char buf ',';
      int t.Task.deadline;
      Buffer.add_char buf ',';
      int t.Task.period)
    order;
  { key = Buffer.contents buf; canon_of_orig; orig_of_canon }

let key fp = fp.key

(* Task a of the stored request has canonical id canon_of_orig.(a),
   which names task orig_of_canon.(that) of [fp]'s request. *)
let relabeling ~stored fp =
  let n = Array.length fp.orig_of_canon in
  let map = Array.init n (fun a -> fp.orig_of_canon.(stored.canon_of_orig.(a))) in
  let rec identity a = a >= n || (map.(a) = a && identity (a + 1)) in
  if identity 0 then None else Some map
