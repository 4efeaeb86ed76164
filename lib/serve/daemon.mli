(** [mgrts serve]: the long-running NDJSON solve daemon.

    Reads one request per line from [input] (see {!Proto} for the
    grammar), answers one response per line on [output], in completion
    order — concurrent requests finish out of submission order, so
    clients correlate by [id].  Runs until end-of-file or a
    [{"cmd": "shutdown"}] line; either way the queue is drained (every
    admitted request still gets its response), a final stats event is
    emitted, and the daemon returns 0.  Per-request failures — malformed
    lines, invalid task sets, contained solver crashes, queue-full
    rejections — are {e responses}, never daemon exits.

    The read loop runs on the calling domain inside
    {!Scheduler.serve}; the worker loops and the stats ticker are the
    other jobs of that call's pool run. *)

val run :
  ?config:Scheduler.config ->
  ?stats_every_s:float ->
  ?input:in_channel ->
  ?output:out_channel ->
  unit ->
  int
(** [stats_every_s] enables the periodic [{"event": "stats", ...}] line
    (off by default, keeping test output deterministic).  Returns the
    process exit code (always 0: reaching EOF cleanly {e is} the daemon's
    success). *)
