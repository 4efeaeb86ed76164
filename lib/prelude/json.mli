(** The repo's JSON codec.

    The repo deliberately has no JSON dependency.  This module is the one
    place JSON is read or written: a parser (recursive descent, full value
    grammar, no streaming) for serve requests and the benchmark's files,
    and a one-line printer that renders every JSON artifact — serve
    responses and stats events, telemetry stats and Chrome traces, bench
    phase and CSP2OPT files.

    Numbers are held as [float]; every integer the repo writes or reads
    (task parameters, schedule cells, node counts, budgets) is far below
    2{^53}, so the round-trip is exact. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one complete JSON value; trailing non-whitespace is an error.
    The error string carries a character offset. *)

val to_string : t -> string
(** One line, no trailing newline (NDJSON-safe: newlines and every other
    control byte inside strings are escaped).  Objects print spaced as
    [{"k": v, "k2": v2}], arrays compact as [[1,2,3]].  Integral numbers
    below 10{^15} print as integers, other finite numbers with 12
    significant digits, and non-finite numbers as [null]. *)

val to_string_with_rows :
  t -> name:string -> cell:(int -> int) -> int array array -> string
(** [to_string_with_rows (Obj fields) ~name ~cell rows] is [to_string] of
    [Obj fields] with one more field [name], last, holding [rows] as an
    array of integer arrays whose entry for [x] is [int (cell x)].  It is
    printed straight from the arrays, without building a value per entry:
    a schedule grid in a serve response has thousands.  It prints into a
    buffer of the calling domain, kept while it holds at most
    {!Scratch.limit} words, so [cell] must not render with this function
    itself.
    @raise Invalid_argument if the value is not an [Obj]. *)

val int : int -> t
(** [Num] of an int. *)

val add_int : Buffer.t -> int -> unit
(** Append an int's decimal digits, as [string_of_int] spells them,
    without allocating.  Every integral number this module prints goes
    through it; it serves text that is not JSON too, such as cache keys. *)

(** {1 Accessors} — all total, returning [None] on a shape mismatch. *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] on missing field or non-object. *)

val to_str : t -> string option
val to_bool : t -> bool option
val to_float : t -> float option
val to_int : t -> int option
(** [None] when the number is not integral or out of [int] range. *)

val to_list : t -> t list option
