(* Order statistics used by the report and by [compare]. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest rank: the smallest sample with at least [p] percent of the
   sample at or below it.  [nan] on an empty sample. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile 50. xs
let sum xs = List.fold_left ( +. ) 0. xs

let mean xs =
  match xs with [] -> Float.nan | _ -> sum xs /. float_of_int (List.length xs)

(* Quartiles by the same rule as Python's [statistics.quantiles(xs, n=4)]
   (the "exclusive" method), so spreads read the same as the tools that
   judge the benchmark.  Needs at least two samples; one sample gives
   itself three times. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (Float.nan, Float.nan, Float.nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)
