open Prelude
open Rt_model

type stats = {
  nodes : int;
  fails : int;
  memo_hits : int;
  memo_misses : int;
  memo_stores : int;
  nogood_hits : int;
  nogood_misses : int;
  nogood_stores : int;
  nogood_evicted : int;
  subtrees : int;
  pulls : int;
  steals : int;
  parks : int;
  max_time_reached : int;
  time_s : float;
}

let hit_rate_pct ~hits ~misses =
  let lookups = hits + misses in
  if lookups = 0 then 0. else 100. *. float_of_int hits /. float_of_int lookups

let default_memo_mb = 64
let default_probe_nodes = 4096

(* ------------------------------------------------------------------ *)
(* Transposition table.

   A slot state is (time, remaining-execution vector); the exploration
   below a state is a deterministic function of it, so a state once
   exhaustively refuted can be pruned on every later visit.  The table is
   a fixed-capacity direct-mapped cache (replace on collision): memory is
   bounded by construction, and pruning compares the *full* rem vector —
   the incremental hash only picks the slot, so a hash collision costs a
   missed prune, never a wrong one.

   Entries carry an epoch stamp: an entry is live only while its stamp
   equals the table's current epoch, and [reset] — used when a pooled
   engine is rebound to a new instance — just bumps the epoch.  This is
   O(1) invalidation of a table that may have grown to tens of MB, and
   it is what makes engine reuse across back-to-back solves safe: a
   stale entry from a previous task set can never satisfy a lookup. *)

module Memo = struct
  type t = {
    key_len : int;  (* bytes per rem vector *)
    wide : bool;  (* two bytes per job (any wcet > 255) *)
    cap_mask : int;  (* final entry count - 1 allowed by the MB cap *)
    mutable mask : int;  (* current entry count - 1, power of two *)
    mutable epoch : int;  (* entries are live iff their stamp matches *)
    mutable stamps : int array;
    mutable times : int array;
    mutable hashes : int array;
    mutable keys : Bytes.t;  (* flat (mask+1) * key_len buffer: no per-entry alloc *)
    mutable occupied : int;  (* live entries, drives geometric growth *)
    mutable hits : int;
    mutable lookups : int;
    mutable stores : int;
  }

  (* Three int-array cells per entry, on top of the key bytes. *)
  let entry_overhead = 24

  (* Start tiny and double toward the cap: eager full-cap allocation
     (zeroing tens of MB) would dominate the wall clock of the many
     instances that are decided in a few hundred nodes. *)
  let initial_size = 4096

  (* No table at all when even 64 entries would break the byte cap: a
     floor above the cap would let one large key blow through it. *)
  let create ~job_count ~max_rem ~cap_bytes =
    let wide = max_rem > 0xFF in
    let key_len = Int.max 1 (job_count * if wide then 2 else 1) in
    let slots = if cap_bytes <= 0 then 0 else cap_bytes / (key_len + entry_overhead) in
    if slots < 64 || max_rem > 0xFFFF then None
    else begin
      let rec pow2 p = if 2 * p > slots || 2 * p <= 0 then p else pow2 (2 * p) in
      let cap_size = pow2 64 in
      let size = Int.min initial_size cap_size in
      Some
        {
          key_len;
          wide;
          cap_mask = cap_size - 1;
          mask = size - 1;
          epoch = 1;
          stamps = Array.make size 0;
          times = Array.make size 0;
          hashes = Array.make size 0;
          keys = Bytes.create (size * key_len);
          occupied = 0;
          hits = 0;
          lookups = 0;
          stores = 0;
        }
    end

  (* O(1) wholesale invalidation: stale entries fail the stamp check and
     are overwritten by later stores.  Counters restart with the solve
     they now describe. *)
  let reset t =
    t.epoch <- t.epoch + 1;
    t.occupied <- 0;
    t.hits <- 0;
    t.lookups <- 0;
    t.stores <- 0

  let slot_index t ~time ~hash =
    let h = hash lxor (time * 0x9E3779B1) in
    let h = (h lxor (h lsr 33)) * 0xFF51AFD7 in
    let h = h lxor (h lsr 15) in
    h land t.mask

  let key_matches t idx rem =
    let off = idx * t.key_len in
    let jn = Array.length rem in
    if t.wide then begin
      let rec go g =
        g >= jn
        || Char.code (Bytes.unsafe_get t.keys (off + (2 * g)))
           lor (Char.code (Bytes.unsafe_get t.keys (off + (2 * g) + 1)) lsl 8)
           = rem.(g)
           && go (g + 1)
      in
      go 0
    end
    else begin
      let rec go g =
        g >= jn || (Char.code (Bytes.unsafe_get t.keys (off + g)) = rem.(g) && go (g + 1))
      in
      go 0
    end

  let write_key t idx rem =
    let off = idx * t.key_len in
    if t.wide then
      for g = 0 to Array.length rem - 1 do
        Bytes.unsafe_set t.keys (off + (2 * g)) (Char.unsafe_chr (rem.(g) land 0xFF));
        Bytes.unsafe_set t.keys (off + (2 * g) + 1) (Char.unsafe_chr ((rem.(g) lsr 8) land 0xFF))
      done
    else
      for g = 0 to Array.length rem - 1 do
        Bytes.unsafe_set t.keys (off + g) (Char.unsafe_chr rem.(g))
      done

  let known_infeasible t ~time ~hash rem =
    t.lookups <- t.lookups + 1;
    let idx = slot_index t ~time ~hash in
    if
      t.stamps.(idx) = t.epoch
      && t.times.(idx) = time
      && t.hashes.(idx) = hash
      && key_matches t idx rem
    then begin
      t.hits <- t.hits + 1;
      true
    end
    else false

  (* Double the table and reinsert the live entries: times/hashes carry
     everything the slot function needs, keys are blitted wholesale.
     Rehash collisions just overwrite (direct-mapped replacement either
     way); stale-epoch entries are dropped. *)
  let grow t =
    Resilience.Failpoint.hit "csp2opt.memo_grow";
    let old_mask = t.mask
    and old_stamps = t.stamps
    and old_times = t.times
    and old_hashes = t.hashes in
    let old_keys = t.keys in
    let size = 2 * (old_mask + 1) in
    t.mask <- size - 1;
    t.stamps <- Array.make size 0;
    t.times <- Array.make size 0;
    t.hashes <- Array.make size 0;
    t.keys <- Bytes.create (size * t.key_len);
    t.occupied <- 0;
    for idx = 0 to old_mask do
      if old_stamps.(idx) = t.epoch then begin
        let time = old_times.(idx) in
        let hash = old_hashes.(idx) in
        let idx' = slot_index t ~time ~hash in
        if t.stamps.(idx') <> t.epoch then t.occupied <- t.occupied + 1;
        t.stamps.(idx') <- t.epoch;
        t.times.(idx') <- time;
        t.hashes.(idx') <- hash;
        Bytes.blit old_keys (idx * t.key_len) t.keys (idx' * t.key_len) t.key_len
      end
    done

  let store t ~time ~hash rem =
    t.stores <- t.stores + 1;
    if t.occupied * 2 > t.mask + 1 && t.mask < t.cap_mask then grow t;
    let idx = slot_index t ~time ~hash in
    if t.stamps.(idx) <> t.epoch then t.occupied <- t.occupied + 1;
    t.stamps.(idx) <- t.epoch;
    t.times.(idx) <- time;
    t.hashes.(idx) <- hash;
    write_key t idx rem
end

(* ------------------------------------------------------------------ *)
(* Nogood store.

   The memo above answers "was exactly this (t, rem) refuted?".  The
   nogood store generalizes: an exhausted (t, rem₀) refutes every
   (t, rem) with rem ≥ rem₀ pointwise — a feasible completion for the
   harder state would, by deleting the extra units, yield one for rem₀
   (job windows don't move and slot capacity is monotone; see DESIGN.md
   §7c).  So each genuinely exhausted subtree root is recorded as a
   (slot, remaining-demand-vector) nogood, and entry pruning scans the
   slot's chain for a {e dominated} match.  This transfers pruning
   across sibling branches the exact-key table cannot connect, and —
   because chains are associative where the memo is direct-mapped — it
   also retains refutations the memo loses to slot collisions.

   Memory model: remainder vectors live in one {!Prelude.Arena} (flat
   ints, bump-allocated), per-slot chain heads in a
   {!Prelude.Epoch_dict}, per-entry metadata in parallel int arrays.
   Rebinding a pooled engine clears everything in O(1): arena reset +
   dict epoch bump.  The store shares the [--memo-mb] budget with the
   memo (one eighth of the byte budget, see [make_search]); overflowing
   the entry cap triggers deterministic activity-based eviction, never
   unbounded growth.

   Lookup cost is bounded: at most [max_scan] chain entries are
   examined (a longer chain costs missed prunes, never unsoundness),
   each gated by a total-demand quick reject before the pointwise
   compare, and a hit moves its entry to the chain head so hot nogoods
   stay inside the scan window. *)

module Nogood = struct
  type t = {
    jn : int;  (* words per remainder vector *)
    cap_entries : int;  (* eviction threshold from the byte budget *)
    heads : Epoch_dict.t;  (* slot -> head entry id (absent = empty chain) *)
    rems : Arena.t;  (* entry id -> jn words at [off.(id)] *)
    mutable next : int array;  (* chain link, -1 terminates *)
    mutable off : int array;  (* offset of the rem vector in [rems] *)
    mutable time : int array;  (* the slot, for eviction rebuild *)
    mutable total : int array;  (* sum of the rem vector: quick reject *)
    mutable activity : int array;  (* hits since last eviction halving *)
    mutable live : bool array;  (* false once subsumed or evicted *)
    mutable n_entries : int;  (* ids 0 .. n_entries-1 are allocated *)
    mutable hits : int;
    mutable lookups : int;
    mutable stores : int;
    mutable evicted : int;
  }

  (* 6 int-array cells (48 bytes) per entry on top of the 8-byte words
     of its rem vector. *)
  let entry_overhead = 48

  (* Chain-scan bound for both lookup and store-time subsumption. *)
  let max_scan = 32

  (* Only subtrees that cost at least this many nodes are worth a chain
     entry: shallow exhaustions are cheaper to re-derive than to scan
     for, and they would swamp the chains (and churn eviction) —
     measured on the bench's hard instances, 4 keeps the node reduction
     of unconditional recording at roughly half the store traffic. *)
  let min_subtree = 4

  (* Like [Memo.create]: no store when 32 entries do not fit the share. *)
  let create ~job_count ~cap_bytes =
    let jn = Int.max 1 job_count in
    let cap_entries = if cap_bytes <= 0 then 0 else cap_bytes / ((8 * jn) + entry_overhead) in
    if cap_entries < 32 then None
    else begin
      let size = Int.min 256 cap_entries in
      Some
        {
          jn;
          cap_entries;
          heads = Epoch_dict.create ();
          rems = Arena.create ~capacity:(size * jn) ();
          next = Array.make size (-1);
          off = Array.make size 0;
          time = Array.make size 0;
          total = Array.make size 0;
          activity = Array.make size 0;
          live = Array.make size false;
          n_entries = 0;
          hits = 0;
          lookups = 0;
          stores = 0;
          evicted = 0;
        }
    end

  (* O(1) wholesale invalidation, mirroring [Memo.reset]: the dict epoch
     bump orphans every chain, the arena rewind reclaims every vector.
     Counters restart with the solve they now describe. *)
  let reset t =
    Epoch_dict.clear t.heads;
    Arena.reset t.rems;
    t.n_entries <- 0;
    t.hits <- 0;
    t.lookups <- 0;
    t.stores <- 0;
    t.evicted <- 0

  (* rem ≥ vector at [off] pointwise? *)
  let dominates t ~off rem =
    let data = Arena.data t.rems in
    let rec go g = g >= t.jn || (Array.unsafe_get rem g >= Array.unsafe_get data (off + g) && go (g + 1)) in
    go 0

  (* vector at [off] ≥ rem pointwise? *)
  let dominated_by t ~off rem =
    let data = Arena.data t.rems in
    let rec go g = g >= t.jn || (Array.unsafe_get data (off + g) >= Array.unsafe_get rem g && go (g + 1)) in
    go 0

  let known_infeasible t ~time:tm ~total rem =
    t.lookups <- t.lookups + 1;
    let head = Epoch_dict.get t.heads ~default:(-1) tm in
    let rec scan prev e steps =
      if e < 0 || steps >= max_scan then false
      else if t.total.(e) <= total && dominates t ~off:t.off.(e) rem then begin
        t.hits <- t.hits + 1;
        t.activity.(e) <- t.activity.(e) + 1;
        (* Move to front so hot nogoods stay inside the scan window. *)
        if prev >= 0 then begin
          t.next.(prev) <- t.next.(e);
          t.next.(e) <- head;
          Epoch_dict.set t.heads tm e
        end;
        true
      end
      else scan e t.next.(e) (steps + 1)
    in
    scan (-1) head 0

  let grow t =
    let size = Int.min t.cap_entries (2 * Array.length t.next) in
    let extend a fill =
      let b = Array.make size fill in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    t.next <- extend t.next (-1);
    t.off <- extend t.off 0;
    t.time <- extend t.time 0;
    t.total <- extend t.total 0;
    t.activity <- extend t.activity 0;
    t.live <- extend t.live false

  (* Deterministic activity-based eviction: keep the most-hit half
     (ties to the older entry), compact the arena in id order, rebuild
     the chains in id order, halve survivor activities so formerly hot
     entries cannot become immortal.  Everything is a pure function of
     the store's state, so reruns evict identically. *)
  let evict t =
    let ids = Array.init t.n_entries Fun.id in
    let alive = Array.of_list (List.filter (fun i -> t.live.(i)) (Array.to_list ids)) in
    Array.sort
      (fun a b ->
        let c = Int.compare t.activity.(b) t.activity.(a) in
        if c <> 0 then c else Int.compare a b)
      alive;
    let keep = Int.min (Array.length alive) (Int.max 16 (t.cap_entries / 2)) in
    t.evicted <- t.evicted + (t.n_entries - keep);
    let kept = Array.sub alive 0 keep in
    Array.sort Int.compare kept;
    let data = Arena.data t.rems in
    Array.iteri
      (fun nid oid ->
        let noff = nid * t.jn in
        Array.blit data t.off.(oid) data noff t.jn;
        t.off.(nid) <- noff;
        t.time.(nid) <- t.time.(oid);
        t.total.(nid) <- t.total.(oid);
        t.activity.(nid) <- t.activity.(oid) lsr 1;
        t.live.(nid) <- true;
        t.next.(nid) <- -1)
      kept;
    t.n_entries <- keep;
    (* Compaction rewound in place: survivors occupy exactly [keep * jn]. *)
    Arena.truncate t.rems (keep * t.jn);
    Epoch_dict.clear t.heads;
    for nid = keep - 1 downto 0 do
      let tm = t.time.(nid) in
      t.next.(nid) <- Epoch_dict.get t.heads ~default:(-1) tm;
      Epoch_dict.set t.heads tm nid
    done

  let store t ~time:tm ~total rem =
    (* Store-time subsumption, bounded like lookups: skip the new nogood
       when a chained one already dominates it, and splice out chained
       ones the new one strictly strengthens. *)
    let head = Epoch_dict.get t.heads ~default:(-1) tm in
    let subsumed = ref false in
    let prev = ref (-1) in
    let e = ref head in
    let steps = ref 0 in
    while (not !subsumed) && !e >= 0 && !steps < max_scan do
      let cur = !e in
      let nxt = t.next.(cur) in
      if t.total.(cur) <= total && dominates t ~off:t.off.(cur) rem then subsumed := true
      else if t.total.(cur) >= total && dominated_by t ~off:t.off.(cur) rem then begin
        (* [cur] is weaker than the new nogood: unlink and mark dead. *)
        if !prev >= 0 then t.next.(!prev) <- nxt else Epoch_dict.set t.heads tm nxt;
        t.live.(cur) <- false;
        e := nxt
      end
      else begin
        prev := cur;
        e := nxt
      end;
      incr steps
    done;
    if not !subsumed then begin
      if t.n_entries >= Array.length t.next then
        if t.n_entries >= t.cap_entries then evict t else grow t;
      let id = t.n_entries in
      t.n_entries <- id + 1;
      let off = Arena.alloc t.rems t.jn in
      let data = Arena.data t.rems in
      Array.blit rem 0 data off t.jn;
      t.off.(id) <- off;
      t.time.(id) <- tm;
      t.total.(id) <- total;
      t.activity.(id) <- 0;
      t.live.(id) <- true;
      t.next.(id) <- Epoch_dict.get t.heads ~default:(-1) tm;
      Epoch_dict.set t.heads tm id;
      t.stores <- t.stores + 1
    end
end

(* ------------------------------------------------------------------ *)
(* Shared read-only context: everything derivable from the instance
   alone, built once and shared by every subtree worker. *)

type ctx = {
  jm : Jobmap.t;
  m : int;
  horizon : int;
  n : int;
  by_rank : int array;  (* rank -> task id (heuristic order) *)
  rank_of : int array;  (* task id -> rank *)
  deadline : int array;
  wcet : int array;
  offset : int array;  (* per task: O_i mod T_i *)
  period : int array;
  first : int array;  (* [i]: global id of task i's job 0; [n]: job count *)
  last : int array;  (* per global job: un-folded last window slot *)
  elig : Ibits.t array;  (* per slot, rank space: in-window tasks *)
  elig_built : bool array;  (* lazy build; forced before going parallel *)
}

(* [classify] asks the next two for every available task at every node,
   so they read flat per-task and per-job arrays and no task record. *)

(* The global job of task [i] at slot [t], for a task available at [t]:
   job (t - O_i) / T_i when [t] falls in that job's window, and otherwise
   the task's last job, the only one whose window wraps past T. *)
let job_at cx ~i ~t =
  let rel = t - cx.offset.(i) in
  if rel >= 0 then begin
    let k = rel / cx.period.(i) in
    if rel - (k * cx.period.(i)) < cx.deadline.(i) then cx.first.(i) + k
    else cx.first.(i + 1) - 1
  end
  else cx.first.(i + 1) - 1

(* Remaining window slots of job [g] of task [i] at sweep position [t].
   A wrapped window's head [0, last - T] is swept before its tail
   [release, T - 1], so in the head the job has D - t slots left and in
   the tail T - t. *)
let remaining_slots cx ~i ~g ~t =
  let last = cx.last.(g) in
  if last < cx.horizon then last - t + 1
  else if t <= last - cx.horizon then cx.deadline.(i) - t
  else cx.horizon - t

(* Per-domain context scratch: the eligibility bitsets are the one
   per-slot allocation [make_ctx] pays, and they are a pure function of
   the instance — so a batch campaign rebuilds their {e contents} but can
   reuse their {e storage}.  The bitset array is kept as long as the task
   count matches exactly (word counts must agree) and the horizon fits.
   A context built from scratch storage is only ever consumed by solves
   issued from this domain before the next [make_ctx] here, which is
   exactly the lifetime of a solve: the parallel phase shares the context
   with pooled workers, but [Pool.run] joins them before the caller can
   rebuild. *)
type ctx_scratch = {
  mutable sc_n : int;  (* task count the cached bitsets were sized for *)
  mutable sc_elig : Ibits.t array;
  mutable sc_elig_built : bool array;
}

let new_ctx_scratch () = { sc_n = -1; sc_elig = [||]; sc_elig_built = [||] }
let ctx_scratch_slot : ctx_scratch Domain.DLS.key = Domain.DLS.new_key new_ctx_scratch

let make_ctx ~heuristic ts ~m =
  if m < 1 then invalid_arg "Csp2.Opt.solve: m must be >= 1";
  let jm = Jobmap.create ts in
  let n = Taskset.size ts in
  let horizon = Jobmap.horizon jm in
  let task i = Taskset.task ts i in
  let wcet = Array.init n (fun i -> (task i).wcet) in
  let deadline = Array.init n (fun i -> (task i).deadline) in
  let first =
    Array.init (n + 1) (fun i -> if i = n then Jobmap.job_count jm else Jobmap.first_of_task jm i)
  in
  let last = Array.make first.(n) 0 in
  for i = 0 to n - 1 do
    for k = 0 to Jobmap.jobs_of_task jm i - 1 do
      last.(first.(i) + k) <- Jobmap.window_last jm ~task:i ~k
    done
  done;
  let sc = Domain.DLS.get ctx_scratch_slot in
  if sc.sc_n <> n || Array.length sc.sc_elig < horizon then begin
    sc.sc_n <- n;
    sc.sc_elig <- Array.init horizon (fun _ -> Ibits.create n);
    sc.sc_elig_built <- Array.make horizon false
  end
  else Array.fill sc.sc_elig_built 0 horizon false;
  {
    jm;
    m;
    horizon;
    n;
    by_rank = Heuristic.order heuristic ts;
    rank_of = Heuristic.rank heuristic ts;
    deadline;
    wcet;
    offset = Array.init n (fun i -> Jobmap.release jm ~task:i ~k:0);
    period = Array.init n (fun i -> (task i).period);
    first;
    last;
    elig = sc.sc_elig;
    elig_built = sc.sc_elig_built;
  }

(* The root state: every job owes its task's full WCET. *)
let fill_rem cx rem =
  for i = 0 to cx.n - 1 do
    Array.fill rem (Jobmap.first_of_task cx.jm i) (Jobmap.jobs_of_task cx.jm i) cx.wcet.(i)
  done

let root_total cx =
  let acc = ref 0 in
  for i = 0 to cx.n - 1 do
    acc := !acc + (cx.wcet.(i) * Jobmap.jobs_of_task cx.jm i)
  done;
  !acc

let build_elig cx t =
  let set = cx.elig.(t) in
  Ibits.clear set;
  for i = 0 to cx.n - 1 do
    if Jobmap.local_job_at cx.jm ~task:i ~time:t >= 0 then Ibits.set set cx.rank_of.(i)
  done;
  cx.elig_built.(t) <- true

(* The lazy build mutates shared arrays, so the parallel phase forces
   every slot it can reach up front: concurrent lazy builds of one slot
   would race on the word-level read-modify-writes. *)
let force_elig cx ~from =
  for t = from to cx.horizon - 1 do
    if not cx.elig_built.(t) then build_elig cx t
  done

(* Zobrist key of "job [g] owes [c] units": a fixed bijective mixer of
   the packed pair ([c <= 0xFFFF] whenever a memo exists), so equal
   instances hash identically run to run and no per-solve key table is
   built — on a Table IV instance that table alone took seconds. *)
let zobrist g c =
  let h = (g lsl 16) lor c in
  let h = (h lxor (h lsr 33)) * 0x3F51AFD7ED558CCD in
  let h = (h lxor (h lsr 29)) * 0x04CEB9FE1A85EC53 in
  h lxor (h lsr 32)

let init_hash cx =
  let h = ref 0 in
  for i = 0 to cx.n - 1 do
    let base = Jobmap.first_of_task cx.jm i in
    for k = 0 to Jobmap.jobs_of_task cx.jm i - 1 do
      h := !h lxor zobrist (base + k) cx.wcet.(i)
    done
  done;
  !h

(* ------------------------------------------------------------------ *)
(* Per-engine mutable state.  All buffers are reused: a search node
   allocates nothing.  Engines themselves are pooled per domain (see
   [acquire]) so back-to-back solves reuse the frames, the rem buffer and
   the — epoch-invalidated — memo table.  The frame stack grows as the
   search descends, so a solve pays only for the depths it reaches. *)

type frame = {
  mutable time : int;
  applied : int array;  (* global job ids served at this slot *)
  mutable applied_n : int;
  combo : int array;  (* cursor into the slot's free list; first [combo_k] cells live *)
  mutable combo_k : int;
  mutable fresh : bool;
  mutable entry_nodes : int;  (* engine node count at frame activation *)
}

(* A slot schedules at most [m] tasks, so [m] cells hold both the applied
   set and the combination cursor. *)
let new_frame cap =
  {
    time = 0;
    applied = Array.make cap 0;
    applied_n = 0;
    combo = Array.make cap 0;
    combo_k = 0;
    fresh = true;
    entry_nodes = 0;
  }

let reset_frame f time ~nodes =
  f.time <- time;
  f.applied_n <- 0;
  f.combo_k <- 0;
  f.fresh <- true;
  f.entry_nodes <- nodes

type search = {
  mutable cx : ctx;
  mutable rem : int array;  (* per global job: units still owed *)
  mutable total_rem : int;
  mutable hash : int;  (* Zobrist hash of [rem], maintained while a memo exists *)
  mutable memo : Memo.t option;
  mutable nogood : Nogood.t option;
  mutable memo_on : bool;  (* memo_mb > 0; gates the capacity bound *)
  mutable nogoods_on : bool;  (* gates nogood lookups and stores *)
  mutable memo_cap_mb : int;  (* the cap memo + nogood were created under *)
  mutable memo_store : bool;  (* stores gated off during frontier expansion *)
  mutable urgency : bool;  (* forced inclusion of zero-laxity tasks (Section V-C3) *)
  mutable budget : Timer.budget;
  mutable frames : frame array;
  mutable frame_cap : int;  (* cells in each frame's buffers *)
  (* The slot being advanced, classified afresh on every visit (O(n) to
     derive; one set per frame would cost O(n·T) on Table IV instances). *)
  mutable free : int array;  (* jobs of the available, non-urgent tasks, rank order *)
  mutable free_n : int;
  mutable urgent : int array;
  mutable urgent_n : int;
  mutable closing : int array;  (* urgency off: jobs in their last usable slot *)
  mutable closing_n : int;
  mutable in_use : bool;
  mutable nodes : int;
  mutable fails : int;
  mutable max_time : int;
}

(* One [--memo-mb] budget covers both tables: the nogood store takes an
   eighth of the bytes (its associative chains prune more per byte, but
   the direct-mapped memo answers in one probe and should stay large),
   the memo the rest.  [memo_mb <= 0] disables both, and the capacity
   bound with them.  The split does NOT depend on the [nogoods] flag:
   toggling learning off merely gates use of the store, so a pooled
   engine alternating between on and off solves (the bench ablation does
   exactly that) keeps both tables' storage instead of reallocating the
   memo at a different size on every rebind — and the ablation compares
   equal memo capacities. *)
let split_budget ~memo_mb =
  let total = memo_mb * 1024 * 1024 in
  let ng = total / 8 in
  (total - ng, ng)

(* Bind an engine to a (possibly different) instance: reuse every buffer
   that still fits, bump the memo epoch instead of freeing the table, and
   zero the per-solve counters.  [memo_mb <= 0] builds neither table. *)
let rebind s cx ~budget ~memo_mb ~nogoods ~urgency =
  let jn = Jobmap.job_count cx.jm in
  if Array.length s.rem <> jn then s.rem <- Array.make jn 0;
  fill_rem cx s.rem;
  s.total_rem <- root_total cx;
  if Array.length s.free < cx.n then begin
    s.free <- Array.make cx.n 0;
    s.urgent <- Array.make cx.n 0;
    s.closing <- Array.make cx.n 0
  end;
  if s.frame_cap < cx.m then begin
    s.frames <- [||];
    s.frame_cap <- cx.m
  end;
  let max_rem = Array.fold_left Int.max 0 cx.wcet in
  let wide = max_rem > 0xFF in
  let key_len = Int.max 1 (jn * if wide then 2 else 1) in
  let memo_bytes, ng_bytes = split_budget ~memo_mb in
  (match s.memo with
  | Some m
    when memo_mb = s.memo_cap_mb && memo_mb > 0 && max_rem <= 0xFFFF
         && m.Memo.key_len = key_len && m.Memo.wide = wide ->
    Memo.reset m
  | _ -> s.memo <- Memo.create ~job_count:jn ~max_rem ~cap_bytes:memo_bytes);
  (match s.nogood with
  | Some ng when memo_mb = s.memo_cap_mb && ng.Nogood.jn = Int.max 1 jn ->
    Nogood.reset ng
  | _ -> s.nogood <- Nogood.create ~job_count:jn ~cap_bytes:ng_bytes);
  s.memo_on <- memo_mb > 0;
  s.nogoods_on <- nogoods;
  s.memo_cap_mb <- memo_mb;
  s.hash <- (match s.memo with Some _ -> init_hash cx | None -> 0);
  s.memo_store <- true;
  s.urgency <- urgency;
  s.budget <- budget;
  s.cx <- cx;
  s.nodes <- 0;
  s.fails <- 0;
  s.max_time <- 0

let make_search cx ~budget ~memo_mb ~nogoods ~urgency =
  let s =
    {
      cx;
      rem = [||];
      total_rem = 0;
      hash = 0;
      memo = None;
      nogood = None;
      memo_on = false;
      nogoods_on = false;
      memo_cap_mb = 0;
      memo_store = true;
      urgency;
      budget;
      frames = [||];
      frame_cap = 0;
      free = [||];
      free_n = 0;
      urgent = [||];
      urgent_n = 0;
      closing = [||];
      closing_n = 0;
      in_use = false;
      nodes = 0;
      fails = 0;
      max_time = 0;
    }
  in
  rebind s cx ~budget ~memo_mb ~nogoods ~urgency;
  s

(* One cached engine per domain.  The cache survives across solves —
   that is the point — so acquisition marks it busy and a nested acquire
   (never taken on purpose, but cheap to keep correct) falls back to a
   fresh transient engine. *)
let engine_slot : search option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let acquire cx ~budget ~memo_mb ~nogoods ~urgency =
  let cell = Domain.DLS.get engine_slot in
  match !cell with
  | Some s when not s.in_use ->
    s.in_use <- true;
    rebind s cx ~budget ~memo_mb ~nogoods ~urgency;
    s
  | cached ->
    let s = make_search cx ~budget ~memo_mb ~nogoods ~urgency in
    s.in_use <- true;
    (match cached with None -> cell := Some s | Some _ -> ());
    s

let release s = s.in_use <- false

(* Drop this domain's warm engine and context scratch, so the next solve
   here pays the full allocation cost.  Pooled worker domains keep their
   own caches — this only affects the calling domain, which is exactly
   what the batch-reuse bench needs: its sequential solves all run on
   the caller, so fresh-vs-reuse is an honest comparison there. *)
let reset_caches () =
  Domain.DLS.get engine_slot := None;
  Domain.DLS.set ctx_scratch_slot (new_ctx_scratch ())

(* The frame at [depth], doubling the stack when the search first gets
   there. *)
let frame_at s depth =
  let have = Array.length s.frames in
  if depth >= have then begin
    let len = Int.max (depth + 1) (Int.min (Int.max 16 (2 * have)) (s.cx.horizon + 1)) in
    let old = s.frames in
    s.frames <- Array.init len (fun d -> if d < have then old.(d) else new_frame s.frame_cap)
  end;
  s.frames.(depth)

let undo s f =
  if f.applied_n > 0 then begin
    for idx = 0 to f.applied_n - 1 do
      let g = f.applied.(idx) in
      let c = s.rem.(g) in
      s.rem.(g) <- c + 1;
      match s.memo with
      | Some _ -> s.hash <- s.hash lxor zobrist g c lxor zobrist g (c + 1)
      | None -> ()
    done;
    s.total_rem <- s.total_rem + f.applied_n;
    f.applied_n <- 0
  end

let apply_job s f g =
  let c = s.rem.(g) in
  s.rem.(g) <- c - 1;
  (match s.memo with
  | Some _ -> s.hash <- s.hash lxor zobrist g c lxor zobrist g (c - 1)
  | None -> ());
  s.total_rem <- s.total_rem - 1;
  f.applied.(f.applied_n) <- g;
  f.applied_n <- f.applied_n + 1

(* Entry checks for a state visited for the first time at this frame
   activation, all part of the memo-on configuration (off, the search is
   exactly the paper's).  All are functions of (t, rem) only, so pruning
   here can only shed states with no feasible completion:
   - aggregate capacity: the work still owed must fit in m units per
     remaining slot (urgency propagation guarantees every unfinished job's
     window is still open, so all of [total_rem] competes for them);
   - the transposition table: the state was exhaustively refuted before;
   - the dominance-nogood store (see the Nogood module above).
   A per-deadline demand bound (the EDF processor-demand criterion per
   slot) was prototyped here and measured: urgency propagation plus the
   aggregate check subsumed every prune it found on both the Table I
   regime and a small-m/long-horizon stream, while its scan cost 4x on
   the raw node rate — so it was dropped rather than windowed. *)
let prune_entry s t =
  (s.memo_on && s.total_rem > s.cx.m * (s.cx.horizon - t))
  || (match s.memo with
     | Some memo -> Memo.known_infeasible memo ~time:t ~hash:s.hash s.rem
     | None -> false)
  ||
  match s.nogood with
  | Some ng when s.nogoods_on -> Nogood.known_infeasible ng ~time:t ~total:s.total_rem s.rem
  | _ -> false

(* Availability in heuristic (= rank) order, straight off the packed
   eligibility word for the slot: out-of-window tasks never enter the
   loop, and the free/urgent split lands in reused buffers as the
   available tasks' current jobs. *)
let classify s t =
  s.free_n <- 0;
  s.urgent_n <- 0;
  s.closing_n <- 0;
  if not s.cx.elig_built.(t) then build_elig s.cx t;
  let words = (s.cx.elig.(t) :> int array) in
  for w = 0 to Array.length words - 1 do
    let bits = ref words.(w) in
    let base = w lsl 5 in
    while !bits <> 0 do
      let r = base + Ibits.lowest_bit_index !bits in
      bits := !bits land (!bits - 1);
      let i = s.cx.by_rank.(r) in
      let g = job_at s.cx ~i ~t in
      if s.rem.(g) > 0 then begin
        let slots_left = remaining_slots s.cx ~i ~g ~t in
        if not s.urgency then begin
          (* No urgency forcing: every available task is a free choice,
             and a job in its last usable slot must finish in it. *)
          s.free.(s.free_n) <- g;
          s.free_n <- s.free_n + 1;
          if slots_left <= 1 then begin
            s.closing.(s.closing_n) <- g;
            s.closing_n <- s.closing_n + 1
          end
        end
        else begin
          assert (s.rem.(g) <= slots_left);
          if s.rem.(g) = slots_left then begin
            s.urgent.(s.urgent_n) <- g;
            s.urgent_n <- s.urgent_n + 1
          end
          else begin
            s.free.(s.free_n) <- g;
            s.free_n <- s.free_n + 1
          end
        end
      end
    done
  done

(* Without urgency propagation the only failure signal is a window
   closing unfinished: every job in its last usable slot must have been
   completed by the applied subset. *)
let closing_ok s =
  let rec go j = j >= s.closing_n || (s.rem.(s.closing.(j)) = 0 && go (j + 1)) in
  go 0

type step = Applied | Exhausted | Stopped

(* Apply the slot's subsets in order until one passes.  Without urgency a
   subset can fail after it is applied (a window closed unfinished), so
   one call may reject up to C(free, k) subsets: each counts as a node
   and the budget is polled on every one — tested on each increment, so
   the every-256th wall check cannot be skipped over, plus a per-node
   atomic read of the stop flag for prompt cross-domain cancellation. *)
let rec try_subsets s f ~k =
  let next_ok =
    if f.fresh then begin
      for j = 0 to k - 1 do
        f.combo.(j) <- j
      done;
      f.combo_k <- k;
      f.fresh <- false;
      true
    end
    else f.combo_k > 0 && Combi.next_k ~n:s.free_n ~k:f.combo_k f.combo
  in
  if not next_ok then begin
    s.fails <- s.fails + 1;
    (* Every subset of this state was tried and every subtree failed
       through normal backtracking (a budget stop aborts the whole loop
       before reaching here), so (t, rem) is proven infeasible: record
       it.  [undo] restored rem/hash to the entry state.  Stores are
       gated off while a worker merely *enumerates* a slot's children for
       the work deque — exhausting a truncated sweep proves nothing about
       the full subtree. *)
    if s.memo_store then begin
      (match s.memo with
      | Some memo -> Memo.store memo ~time:f.time ~hash:s.hash s.rem
      | None -> ());
      (* The same exhaustion proof, generalized: record (t, rem) as a
         dominance nogood — but only when the refuted subtree cost enough
         nodes that scanning a chain for it can ever pay. *)
      match s.nogood with
      | Some ng when s.nogoods_on && s.nodes - f.entry_nodes >= Nogood.min_subtree ->
        Nogood.store ng ~time:f.time ~total:s.total_rem s.rem
      | _ -> ()
    end;
    Exhausted
  end
  else begin
    for j = 0 to s.urgent_n - 1 do
      apply_job s f s.urgent.(j)
    done;
    for j = 0 to f.combo_k - 1 do
      apply_job s f s.free.(f.combo.(j))
    done;
    s.nodes <- s.nodes + 1;
    if Timer.cancelled s.budget || (s.nodes land 255 = 0 && Timer.exceeded s.budget ~nodes:s.nodes)
    then begin
      undo s f;
      Stopped
    end
    else if s.urgency || closing_ok s then Applied
    else begin
      s.fails <- s.fails + 1;
      undo s f;
      try_subsets s f ~k
    end
  end

let advance s f =
  let t = f.time in
  undo s f;
  if f.fresh && prune_entry s t then begin
    f.fresh <- false;
    s.fails <- s.fails + 1;
    Exhausted
  end
  else begin
    classify s t;
    let q = Int.min s.cx.m (s.urgent_n + s.free_n) in
    if s.urgent_n > q then begin
      (* Urgency overload: no subset of this slot can work.  Cheap to
         rediscover (O(n), no search below), so not worth a memo entry. *)
      s.fails <- s.fails + 1;
      Exhausted
    end
    else try_subsets s f ~k:(q - s.urgent_n)
  end

type run_result = R_feasible | R_exhausted | R_stopped

(* Chronological loop over slots [start, stop_time).  [stop_time =
   horizon] decides the subtree: [R_feasible] leaves the assignment in
   the frames.  With [stop_time < horizon] the loop enumerates surviving
   prefixes instead: [on_frontier] fires for each, the prefix is then
   abandoned and the sweep continues with its next sibling — memo stores
   must be off in that mode (an ancestor exhausted by truncated subtrees
   is not refuted; lookups remain sound either way). *)
let search_loop s ~start ~stop_time ~on_frontier =
  assert (stop_time = s.cx.horizon || not s.memo_store);
  let depth = ref 1 in
  reset_frame (frame_at s 0) start ~nodes:s.nodes;
  let result = ref None in
  while !result = None do
    if !depth = 0 then result := Some R_exhausted
    else if
      (if s.nodes land 255 = 0 then begin
         Resilience.Failpoint.hit "csp2opt.node";
         Telemetry.heartbeat
           ~name:(if s.memo_on then "csp2-opt" else "csp2")
           ~nodes:s.nodes ~fails:s.fails ~depth:s.max_time;
         (* Memo hit-rate sample, an order of magnitude sparser than the
            heartbeat checkpoints so a fast search cannot flood the ring. *)
         match s.memo with
         | Some memo when s.nodes land 65535 = 0 && Telemetry.enabled () ->
           Telemetry.counter "csp2-opt.memo-hits" memo.Memo.hits;
           Telemetry.counter "csp2-opt.memo-lookups" memo.Memo.lookups
         | _ -> ()
       end;
       Timer.nodes_exceeded s.budget ~nodes:s.nodes
       || Timer.cancelled s.budget
       || (s.nodes land 255 = 0 && Timer.exceeded s.budget ~nodes:s.nodes))
    then result := Some R_stopped
    else begin
      let f = s.frames.(!depth - 1) in
      match advance s f with
      | Exhausted -> decr depth
      | Stopped -> result := Some R_stopped
      | Applied ->
        if f.time > s.max_time then s.max_time <- f.time;
        if f.time + 1 = stop_time then begin
          if stop_time = s.cx.horizon then result := Some R_feasible else on_frontier !depth
        end
        else begin
          reset_frame (frame_at s !depth) (f.time + 1) ~nodes:s.nodes;
          incr depth
        end
    end
  done;
  (match !result with Some r -> r | None -> assert false)

let no_frontier _ = assert false

(* The task of global job [g]: each task's jobs are one contiguous run. *)
let task_of_job cx g =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Jobmap.first_of_task cx.jm (mid + 1) <= g then go (mid + 1) hi else go lo mid
  in
  go 0 (cx.n - 1)

(* Symmetry rule (10): idle processors first, then tasks ascending (job
   ids ascend with task ids). *)
let place cx sched ~time jobs count =
  let jobs = Array.sub jobs 0 count in
  Array.sort Int.compare jobs;
  Array.iteri
    (fun pos g -> Schedule.set sched ~proc:(cx.m - count + pos) ~time (task_of_job cx g))
    jobs

let build_schedule s ~prefix ~depth =
  let sched = Schedule.create ~m:s.cx.m ~horizon:s.cx.horizon in
  Array.iteri (fun t jobs -> place s.cx sched ~time:t jobs (Array.length jobs)) prefix;
  for d = 0 to depth - 1 do
    let f = s.frames.(d) in
    place s.cx sched ~time:f.time f.applied f.applied_n
  done;
  sched

(* A per-engine counter snapshot: engines outlive solves (they are
   pooled), so stats are assembled from copies taken while the engine is
   still bound to this solve. *)
type slice = {
  sl_nodes : int;
  sl_fails : int;
  sl_hits : int;
  sl_lookups : int;
  sl_stores : int;
  sl_ng_hits : int;
  sl_ng_lookups : int;
  sl_ng_stores : int;
  sl_ng_evicted : int;
  sl_max_time : int;
}

let slice_of s =
  let hits, lookups, stores =
    match s.memo with
    | None -> (0, 0, 0)
    | Some m -> (m.Memo.hits, m.Memo.lookups, m.Memo.stores)
  in
  let ng_hits, ng_lookups, ng_stores, ng_evicted =
    match s.nogood with
    | None -> (0, 0, 0, 0)
    | Some ng -> (ng.Nogood.hits, ng.Nogood.lookups, ng.Nogood.stores, ng.Nogood.evicted)
  in
  {
    sl_nodes = s.nodes;
    sl_fails = s.fails;
    sl_hits = hits;
    sl_lookups = lookups;
    sl_stores = stores;
    sl_ng_hits = ng_hits;
    sl_ng_lookups = ng_lookups;
    sl_ng_stores = ng_stores;
    sl_ng_evicted = ng_evicted;
    sl_max_time = s.max_time;
  }

let stats_of ?(subtrees = 0) ?(pulls = 0) ?(steals = 0) ?(parks = 0) slices ~t0 =
  let nodes = ref 0
  and fails = ref 0
  and hits = ref 0
  and lookups = ref 0
  and stores = ref 0
  and ng_hits = ref 0
  and ng_lookups = ref 0
  and ng_stores = ref 0
  and ng_evicted = ref 0
  and max_time = ref 0 in
  List.iter
    (fun sl ->
      nodes := !nodes + sl.sl_nodes;
      fails := !fails + sl.sl_fails;
      hits := !hits + sl.sl_hits;
      lookups := !lookups + sl.sl_lookups;
      stores := !stores + sl.sl_stores;
      ng_hits := !ng_hits + sl.sl_ng_hits;
      ng_lookups := !ng_lookups + sl.sl_ng_lookups;
      ng_stores := !ng_stores + sl.sl_ng_stores;
      ng_evicted := !ng_evicted + sl.sl_ng_evicted;
      if sl.sl_max_time > !max_time then max_time := sl.sl_max_time)
    slices;
  {
    nodes = !nodes;
    fails = !fails;
    memo_hits = !hits;
    memo_misses = !lookups - !hits;
    memo_stores = !stores;
    nogood_hits = !ng_hits;
    nogood_misses = !ng_lookups - !ng_hits;
    nogood_stores = !ng_stores;
    nogood_evicted = !ng_evicted;
    subtrees;
    pulls;
    steals;
    parks;
    max_time_reached = !max_time;
    time_s = Timer.elapsed t0;
  }

let to_stats ~backend (st : stats) =
  Telemetry.Stats.make ~backend ~nodes:st.nodes ~fails:st.fails ~depth:st.max_time_reached
    ~memo_hits:st.memo_hits ~memo_misses:st.memo_misses ~memo_stores:st.memo_stores
    ~nogood_hits:st.nogood_hits ~nogood_misses:st.nogood_misses
    ~nogood_stores:st.nogood_stores ~subtrees:st.subtrees ~pulls:st.pulls ~steals:st.steals
    ~parks:st.parks ~time_s:st.time_s ()

(* ------------------------------------------------------------------ *)
(* Phase-0 probe: a static node-count estimate.

   Branching at slot [t] is at most C(|elig(t)|, min m |elig(t)|); the
   product over the horizon (saturating) bounds the tree size of the
   *unpruned* search.  When even that bound is small, parallel setup can
   never pay for itself and the solve stays on the sequential path.  The
   estimate errs on the large side (it ignores urgency propagation, the
   capacity bound and the memo), so the follow-up bounded sequential
   burst — not this number — is what keeps moderately sized instances
   sequential. *)

let est_saturated = 1 lsl 40

let choose_sat n k =
  let k = Int.min k (n - k) in
  if k <= 0 then 1
  else begin
    let acc = ref 1 in
    (try
       for i = 1 to k do
         acc := !acc * (n - k + i) / i;
         if !acc >= est_saturated then raise Exit
       done
     with Exit -> acc := est_saturated);
    !acc
  end

let estimate_nodes cx =
  let est = ref 1 in
  (try
     for t = 0 to cx.horizon - 1 do
       if not cx.elig_built.(t) then build_elig cx t;
       let e = Ibits.popcount cx.elig.(t) in
       let b = choose_sat e (Int.min cx.m e) in
       est := !est * Int.max 1 b;
       if !est >= est_saturated then raise Exit
     done
   with Exit -> est := est_saturated);
  !est

(* ------------------------------------------------------------------ *)
(* Entry points. *)

let run_sequential s =
  match search_loop s ~start:0 ~stop_time:s.cx.horizon ~on_frontier:no_frontier with
  | R_feasible -> Encodings.Outcome.Feasible (build_schedule s ~prefix:[||] ~depth:s.cx.horizon)
  | R_exhausted -> Encodings.Outcome.Infeasible
  | R_stopped -> Encodings.Outcome.Limit

let solve ?(heuristic = Heuristic.DC) ?(budget = Timer.unlimited)
    ?(memo_mb = default_memo_mb) ?(nogoods = true) ?(urgency = true) ts ~m =
  (* The memo and nogood soundness arguments (DESIGN §7b/§7c) rest on
     the urgency invariant rem <= remaining window slots. *)
  if (not urgency) && memo_mb > 0 then
    invalid_arg "Csp2.Opt.solve: urgency:false requires memo_mb <= 0";
  let t0 = Timer.start () in
  let cx = make_ctx ~heuristic ts ~m in
  let s = acquire cx ~budget ~memo_mb ~nogoods ~urgency in
  Fun.protect ~finally:(fun () -> release s) @@ fun () ->
  let outcome = run_sequential s in
  (outcome, stats_of [ slice_of s ] ~t0)

(* A unit of parallel work: the search state at the root of an
   unexplored subtree, plus the concrete slot assignments above it (for
   rebuilding a witness schedule). *)
type work_item = {
  w_time : int;  (* next slot to decide; < horizon by construction *)
  w_rem : int array;
  w_hash : int;
  w_total : int;
  w_prefix : int array array;  (* per slot 0 .. w_time-1: applied job ids *)
}

let load_item s it =
  Array.blit it.w_rem 0 s.rem 0 (Array.length s.rem);
  s.hash <- it.w_hash;
  s.total_rem <- it.w_total

let solve_parallel ?(heuristic = Heuristic.DC) ?(budget = Timer.unlimited)
    ?(memo_mb = default_memo_mb) ?(nogoods = true) ?jobs ?split_depth
    ?(probe_nodes = default_probe_nodes) ts ~m =
  let t0 = Timer.start () in
  let cx = make_ctx ~heuristic ts ~m in
  let jobs =
    match jobs with Some j -> Int.max 1 j | None -> Parallel.recommended_jobs ()
  in
  let split =
    let d = match split_depth with Some d -> d | None -> 2 in
    Intmath.clamp ~lo:0 ~hi:(cx.horizon - 1) d
  in
  let sequential () =
    let s = acquire cx ~budget ~memo_mb ~nogoods ~urgency:true in
    Fun.protect ~finally:(fun () -> release s) @@ fun () ->
    let outcome = run_sequential s in
    (outcome, stats_of [ slice_of s ] ~t0)
  in
  if jobs <= 1 || split = 0 then sequential ()
  else if probe_nodes > 0 && estimate_nodes cx <= probe_nodes then
    (* The whole tree is provably smaller than one probe burst: domain
       coordination can only add overhead. *)
    sequential ()
  else begin
    let workers = jobs in
    (* A memo-off solve stays memo-off in every worker. *)
    let per_worker_mb = if memo_mb <= 0 then 0 else Int.max 1 (memo_mb / workers) in
    let s0 = acquire cx ~budget ~memo_mb:per_worker_mb ~nogoods ~urgency:true in
    Fun.protect ~finally:(fun () -> release s0) @@ fun () ->
    (* Phase 0b: a bounded sequential burst.  The Table I population is
       dominated by instances a warm engine decides in a few hundred
       nodes; they must never pay for work distribution.  Node caps are
       exact and deterministic where wall clocks are not, and the burst's
       memo entries stay valid for worker 0's parallel phase, so at most
       [probe_nodes] of exploration is duplicated across workers. *)
    let probe_result =
      if probe_nodes <= 0 then R_stopped
      else begin
        let caller = s0.budget in
        s0.budget <-
          (match Timer.remaining_wall budget with
          | None -> Timer.sub ~nodes:probe_nodes budget
          | Some w -> Timer.sub ~wall_s:w ~nodes:probe_nodes budget);
        let r = search_loop s0 ~start:0 ~stop_time:cx.horizon ~on_frontier:no_frontier in
        s0.budget <- caller;
        r
      end
    in
    match probe_result with
    | R_feasible ->
      ( Encodings.Outcome.Feasible (build_schedule s0 ~prefix:[||] ~depth:cx.horizon),
        stats_of [ slice_of s0 ] ~t0 )
    | R_exhausted -> (Encodings.Outcome.Infeasible, stats_of [ slice_of s0 ] ~t0)
    | R_stopped
      when probe_nodes > 0
           && (Timer.cancelled budget || Timer.exceeded budget ~nodes:s0.nodes) ->
      (* The caller's own budget — not the probe cap — ran out. *)
      (Encodings.Outcome.Limit, stats_of [ slice_of s0 ] ~t0)
    | R_stopped ->
      (* Phase 1: depth-adaptive lazy splitting over work-stealing
         deques.  Every worker owns a deque; expanding an item pushes its
         children (the surviving assignments of one slot) onto the
         owner's deque, where idle workers steal them.  Splitting is
         adaptive: a worker only expands (rather than deep-solves) an
         item while it is shallow or the worker's own deque has run dry,
         so skewed subtrees keep shedding work exactly when someone needs
         it. *)
      force_elig cx ~from:0;
      let hard_split = Intmath.clamp ~lo:split ~hi:(cx.horizon - 1) (split + 4) in
      (* The stop/winner pair is a [Prelude.Race]: the first worker to
         find a schedule claims it (one CAS), raises the shared stop
         flag, and — being the unique claimant — writes [solution] as
         its sole writer. *)
      let race = Race.create () in
      let worker_budget = Timer.with_stop budget (Race.flag race) in
      s0.budget <- worker_budget;
      let solution : Schedule.t option Atomic.t = Atomic.make None in
      (* Items not yet fully processed; [Infeasible] requires it to reach
         zero with nobody limited.  Incremented for every child *before*
         the parent is retired, so it can never transiently hit zero
         while work is still outstanding. *)
      let pending = Atomic.make 1 in
      let deques = Array.init workers (fun _ -> Deque.create ()) in
      let root = Array.make (Array.length s0.rem) 0 in
      fill_rem cx root;
      Deque.push deques.(0)
        {
          w_time = 0;
          w_rem = root;
          w_hash = (match s0.memo with Some _ -> init_hash cx | None -> 0);
          w_total = root_total cx;
          w_prefix = [||];
        };
      let limited = Array.make workers false in
      let pulls = Array.make workers 0 in
      let steals = Array.make workers 0 in
      let parks = Array.make workers 0 in
      let subtrees = Array.make workers 0 in
      let slices = Array.make workers None in
      let worker wid =
        let s =
          if wid = 0 then s0
          else acquire cx ~budget:worker_budget ~memo_mb:per_worker_mb ~nogoods ~urgency:true
        in
        let my = deques.(wid) in
        let rng = Prng.create ~seed:(0x51ED2701 + (wid * 7919)) in
        let running = ref true in
        let process it =
          if
            it.w_time < hard_split
            && (it.w_time < split || Deque.size my = 0)
          then begin
            (* Expand: enumerate the surviving assignments of slot
               [w_time] and push each as a child item.  Memo stores off —
               the sweep truncates every child at depth one — but lookups
               stay on, so a state already refuted by any worker expands
               to nothing. *)
            load_item s it;
            let children = ref [] in
            let nchildren = ref 0 in
            let capture _depth =
              let f = s.frames.(0) in
              children :=
                {
                  w_time = it.w_time + 1;
                  w_rem = Array.copy s.rem;
                  w_hash = s.hash;
                  w_total = s.total_rem;
                  w_prefix =
                    Array.append it.w_prefix [| Array.sub f.applied 0 f.applied_n |];
                }
                :: !children;
              incr nchildren
            in
            s.memo_store <- false;
            let r =
              search_loop s ~start:it.w_time ~stop_time:(it.w_time + 1)
                ~on_frontier:capture
            in
            s.memo_store <- true;
            (match r with
            | R_exhausted ->
              if !nchildren > 0 then begin
                ignore (Atomic.fetch_and_add pending !nchildren);
                (* [children] holds the last-enumerated child first, so
                   this pushes in reverse order: the owner pops the
                   heuristically best child next (depth-first, like the
                   sequential engine) while thieves steal the tail. *)
                List.iter (Deque.push my) !children
              end
            | R_stopped ->
              (limited.(wid) <- true) [@lint.racy_ok "per-worker slot, read after join"];
              running := false
            | R_feasible -> assert false (* stop_time < horizon *));
            ignore (Atomic.fetch_and_add pending (-1))
          end
          else begin
            (subtrees.(wid) <- subtrees.(wid) + 1) [@lint.racy_ok "per-worker slot, read after join"];
            load_item s it;
            (match
               search_loop s ~start:it.w_time ~stop_time:cx.horizon
                 ~on_frontier:no_frontier
             with
            | R_feasible ->
              let sched =
                build_schedule s ~prefix:it.w_prefix ~depth:(cx.horizon - it.w_time)
              in
              if Race.claim race wid then Atomic.set solution (Some sched);
              running := false
            | R_exhausted -> ()
            | R_stopped ->
              (limited.(wid) <- true) [@lint.racy_ok "per-worker slot, read after join"];
              running := false);
            ignore (Atomic.fetch_and_add pending (-1))
          end
        in
        let backoff = ref 0 in
        Fun.protect
          ~finally:(fun () ->
            (slices.(wid) <- Some (slice_of s)) [@lint.racy_ok "per-worker slot, read after join"];
            if wid <> 0 then release s)
        @@ fun () ->
        try
          while !running do
            if Race.stopped race || Timer.cancelled worker_budget then running := false
            else
              match Deque.pop my with
              | Some it ->
                backoff := 0;
                (pulls.(wid) <- pulls.(wid) + 1) [@lint.racy_ok "per-worker slot, read after join"];
                process it
              | None ->
                if Atomic.get pending = 0 then running := false
                else begin
                  Resilience.Failpoint.hit "csp2opt.steal";
                  let victim =
                    let v = Prng.int rng (workers - 1) in
                    if v >= wid then v + 1 else v
                  in
                  match Deque.steal deques.(victim) with
                  | Some it ->
                    backoff := 0;
                    (steals.(wid) <- steals.(wid) + 1)
                    [@lint.racy_ok "per-worker slot, read after join"];
                    if Telemetry.enabled () then
                      Telemetry.instant "csp2-opt.steal"
                        ~args:
                          [
                            ("thief", string_of_int wid); ("victim", string_of_int victim);
                          ];
                    process it
                  | None ->
                    incr backoff;
                    if !backoff >= 2 * workers then begin
                      (* Nothing to steal anywhere right now: park.  An
                         actual sleep (not just a pause hint) matters on
                         oversubscribed boxes, where a spinning thief
                         would steal the OS slice from the worker it is
                         waiting on. *)
                      (parks.(wid) <- parks.(wid) + 1)
                      [@lint.racy_ok "per-worker slot, read after join"];
                      backoff := 0;
                      Unix.sleepf 5e-5
                    end
                    else Domain.cpu_relax ()
                end
          done
        with e ->
          (* A crashing worker (an armed failpoint, a genuine bug) must
             not leave its siblings spinning on [pending]: abort the
             race, then let {!Pool.run} re-raise on the caller. *)
          Race.cancel race;
          raise e
      in
      Pool.run ~jobs:workers worker;
      let sum a = Array.fold_left ( + ) 0 a in
      let slices = List.filter_map Fun.id (Array.to_list slices) in
      let stats =
        stats_of slices ~subtrees:(sum subtrees) ~pulls:(sum pulls) ~steals:(sum steals)
          ~parks:(sum parks) ~t0
      in
      let outcome =
        match Atomic.get solution with
        | Some sched -> Encodings.Outcome.Feasible sched
        | None ->
          if Array.exists Fun.id limited || Timer.cancelled budget then
            Encodings.Outcome.Limit
          else if Atomic.get pending = 0 then Encodings.Outcome.Infeasible
          else Encodings.Outcome.Limit
      in
      (outcome, stats)
  end
