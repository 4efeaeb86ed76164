(* The traced run: the workload's requests replayed in-process, one at a
   time, through [Serve.Scheduler.process] with the e2e daemon's config
   and telemetry on.  Sequential replay means [Telemetry.drain] after a
   request returns exactly that request's spans.  The bench times the
   protocol and fingerprint calls itself, around the same request. *)

module Proto = Serve.Proto
module Scheduler = Serve.Scheduler

type span = { name : string; start : float; dur : float; tid : int }

(* Layer of a span the program records: [static-pass], [search:<engine>]
   and [verify] / [verify-mapped] in [Core.solve]. *)
type layer = Analysis | Search | Verify | Other

let layer_of name =
  if name = "static-pass" then Analysis
  else if String.starts_with ~prefix:"search:" name then Search
  else if String.starts_with ~prefix:"verify" name then Verify
  else Other

(* Self time of each span: its duration minus the part its direct
   children cover.  A span's children are the spans nested inside it on
   the same domain; a span of no named layer counts toward its parent's. *)
let self_times spans =
  let a =
    Array.of_list
      (List.sort
         (fun x y ->
           if x.start = y.start then Float.compare y.dur x.dur
           else Float.compare x.start y.start)
         spans)
  in
  let children = Array.make (Array.length a) 0.
  and layer = Array.make (Array.length a) Other in
  let inside p s = s.tid = p.tid && s.start >= p.start && s.start +. s.dur <= p.start +. p.dur in
  (* Walk in start order, keeping the stack of spans still open. *)
  ignore
    (Array.fold_left
       (fun (i, stack) s ->
         let rec pop = function j :: js when not (inside a.(j) s) -> pop js | st -> st in
         let stack = pop stack in
         (match stack with
         | j :: _ ->
           children.(j) <- children.(j) +. s.dur;
           layer.(i) <- (match layer_of s.name with Other -> layer.(j) | l -> l)
         | [] -> layer.(i) <- layer_of s.name);
         (i + 1, i :: stack))
       (0, []) a);
  Array.to_list (Array.mapi (fun i s -> (layer.(i), s.dur -. children.(i))) a)

type sample = {
  parse_us : float;
  fingerprint_us : float;
  render_us : float;
  process_ms : float;
  response : Proto.response;
  analysis : float list;  (** Self time of each static pass, ms. *)
  search : float list;
  verify : float list;
}

(* Microsecond calls are timed over [reps] repetitions to rise above the
   clock's resolution. *)
let reps = 16

let time_us f =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  1e6 *. (Unix.gettimeofday () -. t0) /. float_of_int reps

let span_of (e : Telemetry.event) =
  match e.Telemetry.e_ph with
  | `Span ->
    Some
      {
        name = e.Telemetry.e_name;
        start = e.Telemetry.e_ts;
        dur = e.Telemetry.e_dur;
        tid = e.Telemetry.e_tid;
      }
  | `Instant | `Counter -> None

let replay_one sched line =
  let parse () = Proto.parse_request ~fallback_id:"replay" line in
  let parse_us = time_us parse in
  match parse () with
  | Proto.Solve req ->
    let ts = Rt_model.Taskset.of_tuples req.Proto.tuples in
    let fingerprint_us =
      time_us (fun () -> Serve.Fingerprint.key (Serve.Fingerprint.of_taskset ts ~m:req.Proto.m))
    in
    ignore (Telemetry.drain ());
    let t0 = Unix.gettimeofday () in
    let response = Scheduler.process sched ~queue_s:0. req in
    let process_ms = 1000. *. (Unix.gettimeofday () -. t0) in
    let spans = List.filter_map span_of (Telemetry.drain ()) in
    let render_us = time_us (fun () -> Proto.response_json response) in
    let selfs = self_times spans in
    let of_layer l =
      List.filter_map (fun (l', s) -> if l = l' then Some (1000. *. s) else None) selfs
    in
    Some
      {
        parse_us;
        fingerprint_us;
        render_us;
        process_ms;
        response;
        analysis = of_layer Analysis;
        search = of_layer Search;
        verify = of_layer Verify;
      }
  | Proto.Stats_request | Proto.Shutdown_request | Proto.Malformed _ -> None

(* Replay [lines] in order until they run out or [seconds] have passed. *)
let run ~config ~seconds lines =
  let sched = Scheduler.create ~config ~emit:(fun _ -> ()) () in
  Telemetry.start ();
  let t_end = Unix.gettimeofday () +. seconds in
  let rec go acc = function
    | line :: rest when Unix.gettimeofday () < t_end -> (
      match replay_one sched line with Some s -> go (s :: acc) rest | None -> go acc rest)
    | _ -> List.rev acc
  in
  Fun.protect
    ~finally:(fun () ->
      Telemetry.stop ();
      Scheduler.shutdown sched)
    (fun () -> go [] lines)
