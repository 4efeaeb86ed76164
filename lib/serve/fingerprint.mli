(** Canonical taskset fingerprints for the serve result cache.

    Feasibility of a task system on [m] identical processors depends only
    on the multiset of task parameters [(O, C, D, T)], the processor count
    and the hyperperiod — never on the order tasks happen to be listed in
    (renaming tasks renames schedule cells and nothing else; see
    DESIGN.md §11 for the full soundness argument).  The fingerprint is
    therefore the exact canonical form, not a hash: [m], the hyperperiod,
    and the task tuples sorted field-wise.  Two tasksets share a
    fingerprint iff one is a task-reordering of the other on the same
    [m] — no collisions, so cache soundness needs no probabilistic
    argument.

    A feasible schedule is cached as its storing request solved it, in
    that request's task ids, next to that request's fingerprint: the
    fingerprint carries the permutation between the request's task ids
    and the canonical (sorted) ones, so composing the storing request's
    permutation with a hit's ({!relabeling}) maps the stored schedule's
    ids to the hit's.  When both list their tasks in the same order the
    composition is the identity and the hit reads the stored grid as it
    is. *)

type t

val of_taskset : Rt_model.Taskset.t -> m:int -> t
(** Canonicalize.  O(n log n). *)

val key : t -> string
(** The exact canonical form as a string — the cache key.  Equal iff the
    [(taskset, m)] pairs are equal up to task reordering. *)

val relabeling : stored:t -> t -> int array option
(** [relabeling ~stored fp], for two fingerprints with equal keys: the
    map from task ids of [stored]'s task set to task ids of [fp]'s,
    [map.(a)] being the task of [fp]'s set that has task [a]'s canonical
    position, or [None] when that map is the identity. *)
