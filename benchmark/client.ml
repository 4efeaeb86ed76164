(* Drives a real [mgrts serve] process over a pipe: a closed loop with a
   fixed number of requests in flight, one writer (the caller's domain)
   and one reader domain.  The writer sleeps on a condition until the
   reader frees a slot; nothing busy-polls. *)

let now = Unix.gettimeofday

type daemon = { pid : int; to_d : out_channel; from_d : in_channel }

(* Daemons spawned and not yet reaped.  Should the bench leave by an
   exception or a signal, [at_exit] kills and reaps them, so no daemon
   outlives it. *)
let live = Hashtbl.create 4

let () =
  at_exit (fun () ->
      Hashtbl.iter
        (fun pid () ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        live)

let spawn ~mgrts ~args =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process mgrts (Array.of_list (mgrts :: "serve" :: args)) in_r out_w Unix.stderr
  in
  Hashtbl.replace live pid ();
  Unix.close in_r;
  Unix.close out_w;
  { pid; to_d = Unix.out_channel_of_descr in_w; from_d = Unix.in_channel_of_descr out_r }

let close_quietly d = try close_out d.to_d with Sys_error _ -> ()

let rec drain_to_eof ic acc =
  match input_line ic with line -> drain_to_eof ic (line :: acc) | exception End_of_file -> acc

let reap d =
  close_in_noerr d.from_d;
  let rec wait () =
    match Unix.waitpid [] d.pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let status = wait () in
  Hashtbl.remove live d.pid;
  status

let is_event line = String.starts_with ~prefix:"{\"event\":" line

(* One cold start: spawn to the reply to a stats command.  The daemon is
   then shut down by end of input and reaped, outside the timing. *)
let cold_start ~mgrts ~args =
  let t0 = now () in
  let d = spawn ~mgrts ~args in
  output_string d.to_d "{\"cmd\": \"stats\"}\n";
  flush d.to_d;
  let reply = try Some (input_line d.from_d) with End_of_file -> None in
  let dt = now () -. t0 in
  close_quietly d;
  ignore (drain_to_eof d.from_d []);
  match (reap d, reply) with
  | Unix.WEXITED 0, Some line when is_event line -> Ok dt
  | _ -> Error "daemon failed to answer a stats command"

(* Peak resident set of a live process, from /proc (Linux); 0 where
   unavailable. *)
let peak_rss_mb pid =
  match open_in (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> 0.
  | ic ->
    let lines = drain_to_eof ic [] in
    close_in ic;
    List.fold_left
      (fun acc line ->
        match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb) with
        | kb -> float_of_int kb /. 1024.
        | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> acc)
      0. lines

type reply = { line : string; at : float }

type run = {
  sent_at : float array;  (** Write time of request [i]. *)
  replies : reply list;  (** Response lines in arrival order. *)
  final_stats : string option;  (** The daemon's last stats event. *)
  peak_rss_mb : float;
  lost : int;  (** Requests written that got no response line. *)
  daemon_ok : bool;  (** The daemon exited 0. *)
}

type shared = {
  mu : Mutex.t;
  changed : Condition.t;
  mutable answered : int;
  mutable eof : bool;
  mutable replies : reply list;
  mutable stats : string option;
}

let reader sh ic =
  let rec loop () =
    match input_line ic with
    | exception End_of_file ->
      Mutex.lock sh.mu;
      sh.eof <- true;
      Condition.broadcast sh.changed;
      Mutex.unlock sh.mu
    | line ->
      let at = now () in
      Mutex.lock sh.mu;
      if is_event line then sh.stats <- Some line
      else begin
        sh.replies <- { line; at } :: sh.replies;
        sh.answered <- sh.answered + 1
      end;
      Condition.broadcast sh.changed;
      Mutex.unlock sh.mu;
      loop ()
  in
  loop ()

(* Wait (on the condition) until [ready] holds or the daemon closed its
   output; true when [ready] holds. *)
let await sh ready =
  Mutex.lock sh.mu;
  while not (ready sh || sh.eof) do
    Condition.wait sh.changed sh.mu
  done;
  let ok = ready sh in
  Mutex.unlock sh.mu;
  ok

(* [next i] makes request line [i]; [more ~sent ~elapsed] says whether to
   send another one, checked once a slot is free, with [elapsed] counted
   from the first write. *)
let run ~mgrts ~args ~window ~next ~more =
  let d = spawn ~mgrts ~args in
  let sh =
    {
      mu = Mutex.create ();
      changed = Condition.create ();
      answered = 0;
      eof = false;
      replies = [];
      stats = None;
    }
  in
  let rd = Domain.spawn (fun () -> reader sh d.from_d) in
  let sent_at = ref [] and t_first = ref Float.nan in
  let rec send i =
    if not (await sh (fun sh -> i - sh.answered < window)) then i
    else
      let elapsed = if i = 0 then 0. else now () -. !t_first in
      if not (more ~sent:i ~elapsed) then i
      else
        let line = next i in
        let t = now () in
        if i = 0 then t_first := t;
        match
          output_string d.to_d line;
          output_char d.to_d '\n';
          flush d.to_d
        with
        | () ->
          sent_at := t :: !sent_at;
          send (i + 1)
        | exception Sys_error _ -> i
  in
  let sent = send 0 in
  ignore (await sh (fun sh -> sh.answered >= sent));
  let peak_rss_mb = peak_rss_mb d.pid in
  close_quietly d;
  Domain.join rd;
  let status = reap d in
  {
    sent_at = Array.of_list (List.rev !sent_at);
    replies = List.rev sh.replies;
    final_stats = sh.stats;
    peak_rss_mb;
    lost = sent - sh.answered;
    daemon_ok = status = Unix.WEXITED 0;
  }
