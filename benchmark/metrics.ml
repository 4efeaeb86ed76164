(* The benchmark's metric catalogue.  BENCHMARK.json lists the same names,
   units and directions (a test keeps the two equal); the final JSON line
   of a run carries exactly the end-to-end set, or with tracing exactly
   the per-layer set. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit : string;
  better : better;
  bound : float;  (** Allowed relative worsening; per-layer metrics have none. *)
}

let e2e name unit better bound = { name; unit; better; bound }
let layer name unit better = { name; unit; better; bound = Float.nan }

let end_to_end =
  [
    e2e "latency_p50_ms" "ms" Lower 0.25;
    e2e "latency_p90_ms" "ms" Lower 0.25;
    e2e "throughput_rps" "1/s" Higher 0.2;
    e2e "decided_ratio" "ratio" Higher 0.02;
    e2e "setup_s" "s" Lower 0.25;
  ]

let per_layer =
  [
    layer "analysis.calls" "count" Lower;
    layer "analysis.decided" "count" Higher;
    layer "analysis.decided_ratio" "ratio" Higher;
    layer "analysis.ms_p50" "ms" Lower;
    layer "analysis.ms_p90" "ms" Lower;
    layer "analysis.ms_total" "ms" Lower;
    layer "search.calls" "count" Lower;
    layer "search.limit" "count" Lower;
    layer "search.ms_p50" "ms" Lower;
    layer "search.ms_p90" "ms" Lower;
    layer "search.ms_total" "ms" Lower;
    layer "verify.ms_total" "ms" Lower;
    layer "cache.hits" "count" Higher;
    layer "cache.misses" "count" Lower;
    layer "cache.stores" "count" Lower;
    layer "cache.evictions" "count" Lower;
    layer "cache.hit_ratio" "ratio" Higher;
    layer "cache.duplicate_solves" "count" Lower;
    layer "cache.hit_ms_p50" "ms" Lower;
    layer "scheduler.queue_ms_p50" "ms" Lower;
    layer "scheduler.queue_ms_p90" "ms" Lower;
    layer "scheduler.process_ms_p50" "ms" Lower;
    layer "scheduler.process_ms_p90" "ms" Lower;
    layer "scheduler.process_ms_total" "ms" Lower;
    layer "scheduler.overhead_ms_p50" "ms" Lower;
    layer "scheduler.front_door" "count" Higher;
    layer "scheduler.front_door_ratio" "ratio" Higher;
    layer "scheduler.rejected" "count" Lower;
    layer "scheduler.crashed" "count" Lower;
    layer "fingerprint.us_p50" "us" Lower;
    layer "proto.parse_us_p50" "us" Lower;
    layer "proto.render_us_p50" "us" Lower;
    layer "proto.response_bytes_mean" "bytes" Lower;
    layer "daemon.peak_rss_mb" "MB" Lower;
    layer "host.canary_ms" "ms" Lower;
    layer "host.factor" "ratio" Lower;
    layer "trace.overhead_pct" "%" Lower;
    layer "trace.coverage_pct" "%" Higher;
    layer "check.unchecked_verdicts" "count" Lower;
  ]

let better_string = function Lower -> "lower" | Higher -> "higher"

let valid_name s =
  s <> ""
  && String.length s <= 64
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s
