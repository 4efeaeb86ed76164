let run ?config ?stats_every_s ?(input = stdin) ?(output = stdout) () =
  let out_mu = Mutex.create () in
  let emit line =
    Mutex.lock out_mu;
    output_string output line;
    output_char output '\n';
    flush output;
    Mutex.unlock out_mu
  in
  let sched = Scheduler.create ?config ~emit () in
  let rec loop n =
    match input_line input with
    | exception End_of_file -> ()
    | line ->
      let line = String.trim line in
      if line = "" then loop (n + 1)
      else begin
        match Scheduler.handle_line sched ~fallback_id:(Printf.sprintf "line-%d" n) line with
        | `Continue -> loop (n + 1)
        | `Shutdown -> ()
      end
  in
  Scheduler.serve ?stats_every_s sched (fun () -> loop 1);
  Scheduler.emit_stats sched;
  0
