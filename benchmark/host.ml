(* The host's speed, from two fixed pieces of CPU work that use no code of
   the repository, timed between passes while no daemon runs.

   The host is a share of a larger machine, and its speed moves with the
   load of its neighbours: for minutes at a time every timing of the
   benchmark, and the probes with it, reads 1.2 to 1.6 times slower.  The
   end-to-end timings are scaled by the run's [factor], so runs in a slow
   spell read close to runs in a quiet one.  The probes mix memory
   and compute: sorting an array through OCaml's polymorphic compare
   slows the most in a slow spell, digesting a buffer in the runtime's C
   code the least, and the daemon's work sits between the two. *)

let now = Unix.gettimeofday

let sort () =
  let a = Array.init 20_000 (fun i -> (i * 2_654_435_761) land 0xFFFFF) in
  Array.sort compare a;
  ignore (Sys.opaque_identity a)

let buffer = lazy (Bytes.make (1 lsl 20) 'x')
let digest () = ignore (Sys.opaque_identity (Digest.bytes (Lazy.force buffer)))

(* Each probe's median in milliseconds on a 2-vCPU Xeon VM at 2.0 GHz,
   with its neighbours quiet.  They set the scale of [factor] only:
   comparisons between commits on one host do not depend on them. *)
let probes = [ ("sort", sort, 5.8); ("digest", digest, 1.95) ]

let time f =
  let t0 = now () in
  f ();
  1000. *. (now () -. t0)

(* [probe n] times each probe [n] times: (name, milliseconds). *)
let probe n =
  List.concat_map (fun (name, f, _) -> List.init n (fun _ -> (name, time f))) probes

(* The geometric mean, over the probes, of each one's median time in
   [samples] relative to its reference: 1 on a quiet host, above 1 in a
   slow spell. *)
let factor samples =
  let logs =
    List.map
      (fun (name, _, reference) ->
        let own = List.filter_map (fun (n, ms) -> if n = name then Some ms else None) samples in
        Float.log (Stats.median own /. reference))
      probes
  in
  Float.exp (Stats.mean logs)
