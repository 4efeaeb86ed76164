(** Solver-wide instrumentation: spans, counters, progress heartbeats and a
    unified per-backend statistics record.

    The paper's whole evaluation (Section VII, Tables I–IV) is about where
    solver time goes under a wall-clock limit, yet each backend used to
    report its own ad-hoc [(nodes, fails)] pair and the portfolio race was
    a black box.  This module is the single observability layer:

    - {b spans}: named monotonic intervals ({!with_span}) recorded into
      {e per-domain} ring buffers — each domain writes only its own buffer,
      so recording is lock-free and safe under [Domain.spawn];
    - {b counters / instants}: point samples ({!counter}, {!instant}) in
      the same buffers;
    - {b heartbeats}: rate-limited progress samples emitted from the
      solvers' existing budget-poll checkpoints ({!heartbeat}), surfaced
      both as counter events and through a user callback
      ({!set_on_progress}) — this is [mgrts solve --progress];
    - {b {!Stats}}: the unified record every backend fills in place of its
      ad-hoc tuples;
    - {b Chrome trace export}: {!to_chrome_json} renders everything
      recorded as trace-event JSON loadable in [chrome://tracing] /
      Perfetto — this is [mgrts solve --trace].

    {b Overhead when disabled} (the default): every entry point first reads
    one [bool Atomic.t] and returns; solvers only reach these entry points
    from checkpoints they already own (every 256 search nodes), so the
    disabled cost on the hot paths is one atomic load per checkpoint —
    measured by the [telemetry] Bechamel micro-bench and the CSP2OPT bench
    guard (see DESIGN.md §8).

    Buffers are bounded: when a domain's ring fills, the oldest events are
    overwritten and the drop is counted ({!dropped}). *)

module Ringcore = Ringcore
(** The ring/registry protocol core, re-exported for the model checker
    ([lib/check]), which instantiates it over instrumented atomics. *)

(** The unified per-backend statistics record.  Fields that a backend does
    not track stay [0] ({!Stats.make} defaults): SAT reports decisions as
    [nodes] and conflicts as [fails]; local search reports iterations and
    restarts; the portfolio's static-analysis entry reports statically
    forced cells as [nodes] and blocked cells as [fails]. *)
module Stats : sig
  type t = {
    backend : string;  (** Reporting backend, e.g. ["csp2-opt+D-C"]. *)
    nodes : int;  (** Search nodes / SAT decisions / LS iterations. *)
    fails : int;  (** Dead ends / SAT conflicts / LS restarts. *)
    depth : int;  (** Deepest slot (or depth) reached; 0 when untracked. *)
    propagations : int;
    restarts : int;
    memo_hits : int;
    memo_misses : int;
    memo_stores : int;
    nogood_hits : int;  (** Dominance-nogood prunes (csp2-opt only). *)
    nogood_misses : int;
    nogood_stores : int;
    subtrees : int;
    pulls : int;  (** Parallel work items taken from the worker's own queue. *)
    steals : int;  (** Parallel work items taken from {e another} worker's queue. *)
    parks : int;  (** Idle-worker sleeps while waiting for stealable work. *)
    time_s : float;
  }

  val make :
    backend:string ->
    ?nodes:int ->
    ?fails:int ->
    ?depth:int ->
    ?propagations:int ->
    ?restarts:int ->
    ?memo_hits:int ->
    ?memo_misses:int ->
    ?memo_stores:int ->
    ?nogood_hits:int ->
    ?nogood_misses:int ->
    ?nogood_stores:int ->
    ?subtrees:int ->
    ?pulls:int ->
    ?steals:int ->
    ?parks:int ->
    ?time_s:float ->
    unit ->
    t
  (** All counters default to 0, [time_s] to 0. *)

  val summary : t -> string
  (** Compact one-cell rendering: ["n=<nodes> f=<fails> <time>s"] plus the
      non-zero extras ([memo=h/m/s], [ng=h/m/s], [sub=], [pull=],
      [steal=], [park=]). *)

  val to_json : t -> Prelude.Json.t
  (** One flat JSON object. *)
end

(** {1 Global switch} *)

val enabled : unit -> bool
(** One atomic load — the only cost the solvers pay when tracing is off. *)

val start : unit -> unit
(** Enable recording and (re)zero the trace clock.  Events recorded before
    [start] are discarded by the next {!drain}. *)

val stop : unit -> unit
(** Disable recording.  Already-recorded events remain drainable. *)

(** {1 Recording}

    All of these are no-ops (one atomic load) when disabled.  Each domain
    records into its own ring buffer; no locks are taken anywhere. *)

val with_span : ?cat:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] and records a complete span around it
    (also on exception).  [cat] is the Chrome trace category (default
    ["solver"]). *)

val instant : ?cat:string -> ?args:(string * string) list -> string -> unit
(** A zero-duration marker event. *)

val counter : string -> int -> unit
(** A named point sample, rendered as a Chrome counter track. *)

(** {1 Progress heartbeats} *)

type progress = {
  p_name : string;  (** Reporting solver, e.g. ["csp2-opt"]. *)
  p_nodes : int;
  p_fails : int;
  p_depth : int;  (** Best-slot watermark / current depth. *)
  p_rate : float;  (** Nodes per second since this domain's last beat. *)
  p_elapsed : float;  (** Seconds since {!start}. *)
}

val set_on_progress : (progress -> unit) option -> unit
(** Install the heartbeat listener ([mgrts solve --progress] prints one
    line per beat).  The callback runs on the {e solver's} domain — keep it
    short and re-entrant (e.g. a single [Printf.eprintf]). *)

val heartbeat : name:string -> nodes:int -> fails:int -> depth:int -> unit
(** Called by every solver at its budget-poll checkpoint.  Rate-limited
    per domain (at most one emission per {!set_heartbeat_interval}
    seconds): an emission records [nodes]/[depth]/rate counter events and
    invokes the {!set_on_progress} callback. *)

val set_heartbeat_interval : float -> unit
(** Default 0.5 s; clamped to be positive. *)

val heartbeat_interval : unit -> float
(** The current rate-limit interval — the resilience watchdog derives its
    stall window from it. *)

val set_on_beat : (unit -> unit) option -> unit
(** Install a liveness hook invoked on {e every} rate-limited beat
    emission, even when event recording is off — heartbeats become active
    whenever recording is enabled {e or} a beat hook is installed, at the
    cost of one (combined) atomic load on the disabled path.  The hook
    runs on the solver's domain: keep it tiny and re-entrant.  This is
    the resilience watchdog's progress signal; it installs the hook only
    while a watchdog is live. *)

(** {1 Draining and export} *)

type event = {
  e_name : string;
  e_cat : string;
  e_ph : [ `Span | `Instant | `Counter ];
  e_ts : float;  (** Seconds since {!start}. *)
  e_dur : float;  (** Span duration in seconds; 0 otherwise. *)
  e_tid : int;  (** Recording domain id. *)
  e_value : int;  (** Counter value; 0 otherwise. *)
  e_args : (string * string) list;
}

val drain : unit -> event list
(** Collect every recorded event from every domain's buffer, sorted by
    start time, and clear the buffers.  Call it after the recording
    domains have been joined (the portfolio and the CLI do): draining
    while another domain is still recording can miss — but never tear —
    that domain's in-flight events. *)

val dropped : unit -> int
(** Events overwritten by ring-buffer wrap-around since {!start}. *)

val to_chrome_json : ?stats:Stats.t list -> event list -> string
(** Chrome trace-event JSON: [{"traceEvents": [...], ...}] with one ["X"]
    (complete) event per span, ["i"] per instant, ["C"] per counter;
    timestamps in microseconds since {!start}, [tid] = recording domain.
    [stats] records are attached as metadata events so Perfetto shows the
    final per-backend counters next to the timeline. *)
