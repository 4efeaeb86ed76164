open Prelude

(* Re-export: [telemetry.ml] is the library's entry module, so sibling
   modules are invisible outside unless aliased here. *)
module Ringcore = Ringcore

(* ------------------------------------------------------------------ *)
(* Unified per-backend statistics. *)

module Stats = struct
  type t = {
    backend : string;
    nodes : int;
    fails : int;
    depth : int;
    propagations : int;
    restarts : int;
    memo_hits : int;
    memo_misses : int;
    memo_stores : int;
    nogood_hits : int;
    nogood_misses : int;
    nogood_stores : int;
    subtrees : int;
    pulls : int;
    steals : int;
    parks : int;
    time_s : float;
  }

  let make ~backend ?(nodes = 0) ?(fails = 0) ?(depth = 0) ?(propagations = 0) ?(restarts = 0)
      ?(memo_hits = 0) ?(memo_misses = 0) ?(memo_stores = 0) ?(nogood_hits = 0)
      ?(nogood_misses = 0) ?(nogood_stores = 0) ?(subtrees = 0) ?(pulls = 0) ?(steals = 0)
      ?(parks = 0) ?(time_s = 0.) () =
    {
      backend;
      nodes;
      fails;
      depth;
      propagations;
      restarts;
      memo_hits;
      memo_misses;
      memo_stores;
      nogood_hits;
      nogood_misses;
      nogood_stores;
      subtrees;
      pulls;
      steals;
      parks;
      time_s;
    }

  let summary s =
    let b = Buffer.create 48 in
    Buffer.add_string b (Printf.sprintf "n=%d f=%d %.4fs" s.nodes s.fails s.time_s);
    if s.memo_hits + s.memo_misses + s.memo_stores > 0 then
      Buffer.add_string b
        (Printf.sprintf " memo=%d/%d/%d" s.memo_hits s.memo_misses s.memo_stores);
    if s.nogood_hits + s.nogood_misses + s.nogood_stores > 0 then
      Buffer.add_string b
        (Printf.sprintf " ng=%d/%d/%d" s.nogood_hits s.nogood_misses s.nogood_stores);
    if s.subtrees > 0 then Buffer.add_string b (Printf.sprintf " sub=%d" s.subtrees);
    if s.pulls > 0 then Buffer.add_string b (Printf.sprintf " pull=%d" s.pulls);
    if s.steals > 0 then Buffer.add_string b (Printf.sprintf " steal=%d" s.steals);
    if s.parks > 0 then Buffer.add_string b (Printf.sprintf " park=%d" s.parks);
    Buffer.contents b

  let to_json s =
    let int = Json.int in
    Json.Obj
      [
        ("backend", Json.Str s.backend);
        ("nodes", int s.nodes);
        ("fails", int s.fails);
        ("depth", int s.depth);
        ("propagations", int s.propagations);
        ("restarts", int s.restarts);
        ("memo_hits", int s.memo_hits);
        ("memo_misses", int s.memo_misses);
        ("memo_stores", int s.memo_stores);
        ("nogood_hits", int s.nogood_hits);
        ("nogood_misses", int s.nogood_misses);
        ("nogood_stores", int s.nogood_stores);
        ("subtrees", int s.subtrees);
        ("pulls", int s.pulls);
        ("steals", int s.steals);
        ("parks", int s.parks);
        ("time_s", Json.Num s.time_s);
      ]
end

(* ------------------------------------------------------------------ *)
(* Global switch and trace clock. *)

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag

(* Trace origin, seconds since the epoch.  Written only by [start] (single
   writer by contract: instrumentation is armed before domains spawn). *)
let t_zero = Atomic.make 0.

type event = {
  e_name : string;
  e_cat : string;
  e_ph : [ `Span | `Instant | `Counter ];
  e_ts : float;
  e_dur : float;
  e_tid : int;
  e_value : int;
  e_args : (string * string) list;
}

(* ------------------------------------------------------------------ *)
(* Per-domain ring buffers.

   Each domain records into its own fixed-capacity ring (single writer, no
   atomics on the write path beyond the [enabled] load), claimed lazily
   through domain-local storage.  Buffers register themselves once in a
   global lock-free list (CAS cons); [drain] walks the list after the
   recording domains are joined.  An [epoch] stamp lets [start] invalidate
   old buffers without touching other domains' state.

   The registry/epoch/ring protocol itself lives in Ringcore, functorized
   over the atomics so the model checker can explore it; this module owns
   only the domain-local claiming, which is inherently native. *)

module Rings = Ringcore.Make (Prelude.Sync.Atomic)

let ring_capacity = 1 lsl 14
let rings : event Rings.t = Rings.create ~capacity:ring_capacity ()

let fresh_buffer () = Rings.fresh_buffer rings ~tid:(Domain.self () :> int)

let dls_buffer : event Rings.buffer Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let b = fresh_buffer () in
      Rings.register rings b;
      b)

(* A domain that lives across [start] calls re-registers a fresh ring the
   first time it records in the new epoch. *)
let my_buffer () =
  let b = Domain.DLS.get dls_buffer in
  if not (Rings.stale rings b) then b
  else begin
    let fresh = fresh_buffer () in
    Domain.DLS.set dls_buffer fresh;
    Rings.register rings fresh;
    fresh
  end

let record ev =
  let b = my_buffer () in
  Rings.record b { ev with e_tid = b.Rings.tid }

(* [hb_active] (defined with the heartbeat machinery below) must track
   [enabled_flag]; forward through a mutable hook to keep definition
   order simple. *)
let refresh_hb_hook = ref (fun () -> ())

let start () =
  Rings.new_epoch rings;
  Atomic.set t_zero (Timer.now ());
  Atomic.set enabled_flag true;
  !refresh_hb_hook ()

let stop () =
  Atomic.set enabled_flag false;
  !refresh_hb_hook ()

let rel t = t -. Atomic.get t_zero

let dropped () = Rings.dropped rings
let drain () = List.sort (fun a b -> Float.compare a.e_ts b.e_ts) (Rings.drain rings)

(* ------------------------------------------------------------------ *)
(* Recording entry points. *)

let with_span ?(cat = "solver") ?(args = []) name f =
  if not (enabled ()) then f ()
  else begin
    let t0 = Timer.now () in
    let emit args =
      record
        {
          e_name = name;
          e_cat = cat;
          e_ph = `Span;
          e_ts = rel t0;
          e_dur = Timer.now () -. t0;
          e_tid = (Domain.self () :> int);
          e_value = 0;
          e_args = args;
        }
    in
    match f () with
    | v ->
      emit args;
      v
    | exception e ->
      emit (("exception", Printexc.to_string e) :: args);
      raise e
  end

let instant ?(cat = "solver") ?(args = []) name =
  if enabled () then
    record
      {
        e_name = name;
        e_cat = cat;
        e_ph = `Instant;
        e_ts = rel (Timer.now ());
        e_dur = 0.;
        e_tid = (Domain.self () :> int);
        e_value = 0;
        e_args = args;
      }

let counter name value =
  if enabled () then
    record
      {
        e_name = name;
        e_cat = "counter";
        e_ph = `Counter;
        e_ts = rel (Timer.now ());
        e_dur = 0.;
        e_tid = (Domain.self () :> int);
        e_value = value;
        e_args = [];
      }

(* ------------------------------------------------------------------ *)
(* Progress heartbeats. *)

type progress = {
  p_name : string;
  p_nodes : int;
  p_fails : int;
  p_depth : int;
  p_rate : float;
  p_elapsed : float;
}

let on_progress : (progress -> unit) option Atomic.t = Atomic.make None
let set_on_progress f = Atomic.set on_progress f

let hb_interval = Atomic.make 0.5
let set_heartbeat_interval s = Atomic.set hb_interval (Float.max 1e-6 s)
let heartbeat_interval () = Atomic.get hb_interval

(* The liveness hook (the resilience watchdog): called on every
   rate-limited beat emission, whether or not event recording is on.
   [hb_active] is the combined gate — recording enabled OR a beat hook
   installed — kept as a single derived atomic so the heartbeat disabled
   path stays one atomic load. *)
let on_beat : (unit -> unit) option Atomic.t = Atomic.make None
let hb_active = Atomic.make false
let refresh_hb () = Atomic.set hb_active (Atomic.get enabled_flag || Atomic.get on_beat <> None)

let set_on_beat f =
  Atomic.set on_beat f;
  refresh_hb ()

let () = refresh_hb_hook := refresh_hb

type beat_state = { mutable last_t : float; mutable last_nodes : int }

let dls_beat : beat_state Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { last_t = 0.; last_nodes = 0 })

let heartbeat ~name ~nodes ~fails ~depth =
  if Atomic.get hb_active then begin
    let st = Domain.DLS.get dls_beat in
    let t = Timer.now () in
    if t -. st.last_t >= Atomic.get hb_interval then begin
      let rate =
        if st.last_t = 0. || t <= st.last_t then 0.
        else float_of_int (nodes - st.last_nodes) /. (t -. st.last_t)
      in
      st.last_t <- t;
      st.last_nodes <- nodes;
      (match Atomic.get on_beat with None -> () | Some f -> f ());
      if enabled () then begin
        counter (name ^ ".nodes") nodes;
        counter (name ^ ".depth") depth;
        counter (name ^ ".rate") (int_of_float rate);
        match Atomic.get on_progress with
        | None -> ()
        | Some f ->
          f
            {
              p_name = name;
              p_nodes = nodes;
              p_fails = fails;
              p_depth = depth;
              p_rate = rate;
              p_elapsed = rel t;
            }
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export. *)

let to_chrome_json ?(stats = []) events =
  let str_args args = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) args) in
  let event e =
    let name = ("name", Json.Str e.e_name) and cat = ("cat", Json.Str e.e_cat) in
    let ts = ("ts", Json.Num (e.e_ts *. 1e6)) and pid = ("pid", Json.int 1) in
    let tid = ("tid", Json.int e.e_tid) and args = ("args", str_args e.e_args) in
    Json.Obj
      (match e.e_ph with
      | `Span ->
        let dur = ("dur", Json.Num (e.e_dur *. 1e6)) in
        [ name; cat; ("ph", Json.Str "X"); ts; dur; pid; tid; args ]
      | `Instant -> [ name; cat; ("ph", Json.Str "i"); ("s", Json.Str "t"); ts; pid; tid; args ]
      | `Counter ->
        let value = ("args", Json.Obj [ ("value", Json.int e.e_value) ]) in
        [ name; cat; ("ph", Json.Str "C"); ts; pid; tid; value ])
  in
  let backend_stats s =
    Json.Obj
      [
        ("name", Json.Str "backend_stats");
        ("ph", Json.Str "M");
        ("pid", Json.int 1);
        ("tid", Json.int 0);
        ("args", Stats.to_json s);
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.Arr (List.map event events @ List.map backend_stats stats));
         ("displayTimeUnit", Json.Str "ms");
       ])
  ^ "\n"
