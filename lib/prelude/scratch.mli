(** Per-domain work arrays for the stages a serve request runs once each.

    A stage that needs large work arrays for the length of one call —
    the flat verification pass, the all-jobs cut, the flow network, the
    LLF witness's folded grid — takes them from slots of the calling
    domain instead of allocating them.  On a warm worker such a stage
    then allocates only what it returns.  The discipline:
    - {b per domain}: a slot is a [Domain.DLS] key, so two domains never
      share an array;
    - {b re-initialised}: {!take} fills the part it hands out, so nothing
      survives from an earlier call;
    - {b never aliased by a returned value}: a stage copies out whatever
      it returns, and its next call on the domain overwrites the arrays;
    - {b bounded}: a stage keeps its arrays only when they total at most
      {!limit} words ({!fits}); a larger instance gets fresh arrays that
      the slots do not keep, as if there were no scratch.
    A slot is not re-entrant: a stage holding a slot's array must not
    call itself, or another user of the same slot, on the same domain. *)

val limit : int
(** 32 768 words (256 KiB): the most one stage keeps on one domain per
    call.  Every request of the benchmark's corpora ([n = 10], [m = 5],
    hyperperiods up to 420) fits; Table IV's large instances do not. *)

val fits : int -> bool
(** [fits words]: whether a stage whose arrays total [words] words keeps
    them ([words <= limit]). *)

type 'a slot
(** One array per domain. *)

val slot : unit -> 'a slot
(** A new slot.  Create slots once, when a module is initialised. *)

val take : 'a slot -> keep:bool -> int -> 'a -> 'a array
(** [take s ~keep len v]: an array of at least [len] elements whose first
    [len] are [v]; the rest is unspecified, so callers index below [len]
    and never use [Array.length].  With [keep], it is the calling
    domain's array of [s], first replaced by one of exactly [len]
    elements if it is shorter; without, a fresh array that [s] does not
    keep. *)

type bytes_slot
(** One byte sequence per domain. *)

val bytes_slot : unit -> bytes_slot

val take_bytes : bytes_slot -> keep:bool -> int -> char -> Bytes.t
(** As {!take}, for bytes. *)

val retained_words : unit -> int
(** Words the calling domain's slots hold now, all slots together. *)
