open Prelude

(* A cell is only ever touched by the domain its arm runs on: the beat
   hook fires there, and the portfolio reads [stalled] there once the arm
   returns.  Plain mutable fields suffice. *)
type cell = {
  c_name : string;
  c_stall_s : float;
  mutable last : float;
  mutable stalled_flag : bool;
  cancel : unit -> unit;
}

type t = { stall_s : float }

let create ?(stall_beats = 16.) () =
  { stall_s = Float.max 1e-3 (stall_beats *. Telemetry.heartbeat_interval ()) }

let watch t ~name ~cancel =
  { c_name = name; c_stall_s = t.stall_s; last = Timer.now (); stalled_flag = false; cancel }

let stalled c = c.stalled_flag

(* Beats are emitted under backend family names, not arm identities, so
   the hook maps beat -> cell through domain-local state: an arm occupies
   exactly one domain while it runs. *)
let dls_cell : cell option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let with_cell c f =
  let r = Domain.DLS.get dls_cell in
  let saved = !r in
  r := Some c;
  Fun.protect ~finally:(fun () -> r := saved) f

(* Every backend polls its budget right after its heartbeat checkpoint,
   so a cancel issued here takes effect at once — as early as any other
   cancel could. *)
let beat_hook () =
  match !(Domain.DLS.get dls_cell) with
  | None -> ()
  | Some c ->
    let now = Timer.now () in
    if (not c.stalled_flag) && now -. c.last > c.c_stall_s then begin
      c.stalled_flag <- true;
      Telemetry.instant "watchdog.stall" ~cat:"resilience"
        ~args:[ ("arm", c.c_name); ("stall_s", Printf.sprintf "%.3f" c.c_stall_s) ];
      c.cancel ()
    end;
    c.last <- now

(* The telemetry hook is global; a count keeps it installed exactly while
   some watchdog is live, so with none the heartbeat disabled path stays
   one atomic load.  Count and hook change under one lock: a race
   stopping while another starts cannot remove the hook the new one just
   installed. *)
let hook_lock = Mutex.create ()
let live = ref 0

let start _ =
  Mutex.protect hook_lock (fun () ->
      incr live;
      if !live = 1 then Telemetry.set_on_beat (Some beat_hook))

let stop _ =
  Mutex.protect hook_lock (fun () ->
      decr live;
      if !live = 0 then Telemetry.set_on_beat None)
