(** The serve daemon's verdict cache, keyed on canonical fingerprints.

    Only {e decisive} verdicts are cached: [Feasible] (the schedule the
    storing request was answered with, not a copy, next to that
    request's fingerprint — see {!Fingerprint}) and [Infeasible].  [Limit]/[Memout] depend on the request's budget, so
    caching them would let one tenant's tight budget answer another
    tenant's generous one.

    Thread-safe (one mutex — lookups are string-key hashtable probes, far
    off any search hot path).  Bounded: past [capacity] entries, the
    least-recently-used quarter is evicted in one sweep, keeping eviction
    O(n) but amortized O(1) per store. *)

type entry =
  | Feasible_entry of { schedule : Rt_model.Schedule.t; stored_by : Fingerprint.t }
      (** [schedule] in the task ids of the request [stored_by] was made
          for; a hit maps them to its own through
          {!Fingerprint.relabeling}.  The schedule is shared with the
          storing response and with every hit whose permutation composes
          to the identity, so nobody may write to it: verify-on-hit turns
          a corrupted entry into a contained crash, never a verdict. *)
  | Infeasible_entry

type t

val create : capacity:int -> t
(** [capacity >= 1] (clamped). *)

val find : t -> key:string -> entry option
(** Bumps recency and the hit/miss counters. *)

val store : t -> key:string -> entry -> unit
(** Last writer wins on a duplicate key (both writers hold equal verdicts
    by soundness of the solvers, so the race is benign). *)

type stats = {
  hits : int;
  misses : int;
  stores : int;
  evictions : int;
  entries : int;
}

val stats : t -> stats
