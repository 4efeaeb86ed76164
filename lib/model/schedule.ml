type t = { cells : int array array; horizon : int }

let idle = -1

let create ~m ~horizon =
  if m < 1 || horizon < 1 then invalid_arg "Schedule.create";
  { cells = Array.make_matrix m horizon idle; horizon }

let m t = Array.length t.cells
let horizon t = t.horizon

let get t ~proc ~time =
  if proc < 0 || proc >= m t then invalid_arg "Schedule.get: bad processor";
  t.cells.(proc).(Prelude.Intmath.imod time t.horizon)

let set t ~proc ~time v =
  if proc < 0 || proc >= m t then invalid_arg "Schedule.set: bad processor";
  if v < idle then invalid_arg "Schedule.set: bad task id";
  t.cells.(proc).(Prelude.Intmath.imod time t.horizon) <- v

let copy t = { cells = Array.map Array.copy t.cells; horizon = t.horizon }

let rows t = t.cells

let relabel map t =
  let rename row =
    let out = Array.make t.horizon idle in
    for time = 0 to t.horizon - 1 do
      let v = row.(time) in
      if v <> idle then begin
        let v' = map.(v) in
        if v' < idle then invalid_arg "Schedule.relabel: bad task id";
        out.(time) <- v'
      end
    done;
    out
  in
  { cells = Array.map rename t.cells; horizon = t.horizon }

let of_cells c =
  let m = Array.length c in
  if m = 0 then invalid_arg "Schedule.of_cells: no processors";
  let horizon = Array.length c.(0) in
  if horizon = 0 then invalid_arg "Schedule.of_cells: empty horizon";
  Array.iter (fun row -> if Array.length row <> horizon then invalid_arg "Schedule.of_cells: ragged") c;
  { cells = c; horizon }

let tasks_at t ~time =
  let slot = Prelude.Intmath.imod time t.horizon in
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun row ->
      let v = row.(slot) in
      if v <> idle then Hashtbl.replace seen v ())
    t.cells;
  List.sort Int.compare (Hashtbl.fold (fun k () acc -> k :: acc) seen [])

let proc_of_task_at t ~task ~time =
  let slot = Prelude.Intmath.imod time t.horizon in
  let rec go j =
    if j >= m t then None else if t.cells.(j).(slot) = task then Some j else go (j + 1)
  in
  go 0

let units_of_task t ~task =
  let acc = ref 0 in
  Array.iter (fun row -> Array.iter (fun v -> if v = task then incr acc) row) t.cells;
  !acc

let busy_slots t =
  let acc = ref 0 in
  Array.iter (fun row -> Array.iter (fun v -> if v <> idle then incr acc) row) t.cells;
  !acc

let equal a b =
  a.horizon = b.horizon && m a = m b
  &&
  let rec go j = j >= m a || (a.cells.(j) = b.cells.(j) && go (j + 1)) in
  go 0

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "t   ";
  for s = 0 to t.horizon - 1 do
    Format.fprintf ppf "%3d" s
  done;
  Format.fprintf ppf "@,";
  Array.iteri
    (fun j row ->
      Format.fprintf ppf "P%-3d" (j + 1);
      Array.iter
        (fun v -> if v = idle then Format.fprintf ppf "  ." else Format.fprintf ppf "%3d" (v + 1))
        row;
      Format.fprintf ppf "@,")
    t.cells;
  Format.fprintf ppf "@]"

type segment = { task : int; proc : int; start : int; len : int }

let segments t =
  let acc = ref [] in
  for proc = 0 to m t - 1 do
    let current = ref None in
    let flush () =
      match !current with
      | Some seg -> (
        acc := seg :: !acc;
        current := None)
      | None -> ()
    in
    for time = 0 to t.horizon - 1 do
      let v = t.cells.(proc).(time) in
      (match !current with
      | Some seg when v = seg.task -> current := Some { seg with len = seg.len + 1 }
      | Some _ ->
        flush ();
        if v <> idle then current := Some { task = v; proc; start = time; len = 1 }
      | None -> if v <> idle then current := Some { task = v; proc; start = time; len = 1 })
    done;
    flush ()
  done;
  List.rev !acc

let pp_gantt ppf t =
  let segs = segments t in
  let tasks = List.sort_uniq Int.compare (List.map (fun s -> s.task) segs) in
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun task ->
      Format.fprintf ppf "τ%-3d" (task + 1);
      List.iter
        (fun s ->
          if s.task = task then
            Format.fprintf ppf " [P%d %d-%d]" (s.proc + 1) s.start (s.start + s.len - 1))
        (List.sort
           (fun a b ->
             match Int.compare a.start b.start with 0 -> Int.compare a.proc b.proc | c -> c)
           segs);
      Format.fprintf ppf "@,")
    tasks;
  Format.fprintf ppf "@]"
