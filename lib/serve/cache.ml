type entry =
  | Feasible_entry of { schedule : Rt_model.Schedule.t; stored_by : Fingerprint.t }
  | Infeasible_entry

type slot = { value : entry; mutable last_used : int }

type t = {
  lock : Mutex.t;
  table : (string, slot) Hashtbl.t;
  capacity : int;
  mutable tick : int;  (* recency clock; bumped under [lock] *)
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable evictions : int;
}

type stats = {
  hits : int;
  misses : int;
  stores : int;
  evictions : int;
  entries : int;
}

let create ~capacity =
  let capacity = if capacity < 1 then 1 else capacity in
  {
    lock = Mutex.create ();
    table = Hashtbl.create 256;
    capacity;
    tick = 0;
    hits = 0;
    misses = 0;
    stores = 0;
    evictions = 0;
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let find t ~key =
  with_lock t @@ fun () ->
  match Hashtbl.find_opt t.table key with
  | Some slot ->
    t.tick <- t.tick + 1;
    slot.last_used <- t.tick;
    t.hits <- t.hits + 1;
    Some slot.value
  | None ->
    t.misses <- t.misses + 1;
    None

(* One sweep evicting the least-recently-used quarter: collect (last_used,
   key), sort ascending, drop the oldest.  Runs only when the table spills
   past capacity, so the O(n log n) cost is amortized over >= capacity/4
   stores. *)
let evict_oldest t =
  let entries =
    Hashtbl.fold (fun key slot acc -> (slot.last_used, key) :: acc) t.table []
  in
  let entries =
    List.sort (fun (a, _) (b, _) -> Int.compare a b) entries
  in
  let to_drop = 1 + (t.capacity / 4) in
  List.iteri
    (fun i (_, key) ->
      if i < to_drop then begin
        Hashtbl.remove t.table key;
        t.evictions <- t.evictions + 1
      end)
    entries

let store t ~key entry =
  with_lock t @@ fun () ->
  t.tick <- t.tick + 1;
  t.stores <- t.stores + 1;
  (match Hashtbl.find_opt t.table key with
  | Some _ -> Hashtbl.remove t.table key
  | None -> ());
  if Hashtbl.length t.table >= t.capacity then evict_oldest t;
  Hashtbl.replace t.table key { value = entry; last_used = t.tick }

let stats t =
  with_lock t @@ fun () ->
  {
    hits = t.hits;
    misses = t.misses;
    stores = t.stores;
    evictions = t.evictions;
    entries = Hashtbl.length t.table;
  }
