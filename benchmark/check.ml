(* The correctness gate, run after the timed part of a workload:

   - every feasible answer's witness schedule re-verifies against the
     request's task set ([Verify.check_cyclic]);
   - every copy of one instance gets the same decisive verdict;
   - every decisive verdict agrees with a reference solve by a different
     engine and path than the serve default: csp2-opt with the static
     pass off.  A reference that runs out of budget leaves its verdicts
     unchecked, counted apart.  All references together get [total_wall_s],
     so a few instances that are hard for the reference cannot stretch a
     run past its time limit. *)

open Rt_model

type result = {
  wrong : int;  (** Responses whose verdict is refuted. *)
  unchecked : int;  (** Decisive responses whose reference did not resolve. *)
  notes : string list;  (** One line per refuted response. *)
}

let reference ~wall_s (inst : Workload.instance) =
  let budget = Prelude.Timer.budget ~wall_s () in
  match
    Core.solve_csp2_opt ~analyze:false ~jobs:1 ~budget inst.Workload.ts ~m:inst.Workload.m
  with
  | Core.Feasible _, _, _ -> Some "feasible"
  | Core.Infeasible, _, _ -> Some "infeasible"
  | (Core.Limit | Core.Memout _), _, _ -> None

(* [answers] pairs each request's stream item with its parsed response. *)
let run ~reference_wall_s ~total_wall_s (answers : (Workload.item * Response.t) list) =
  let deadline = Unix.gettimeofday () +. total_wall_s in
  let refuted = Hashtbl.create 8 and unchecked = ref 0 and notes = ref [] in
  let refute (r : Response.t) why =
    Hashtbl.replace refuted r.Response.id ();
    notes := Printf.sprintf "%s: %s" r.Response.id why :: !notes
  in
  (* Witnesses. *)
  List.iter
    (fun ((item : Workload.item), (r : Response.t)) ->
      if Response.decisive r = Some "feasible" then
        match r.Response.schedule with
        | None -> refute r "feasible without a schedule"
        | Some sched -> (
          match Verify.check_cyclic item.Workload.inst.Workload.ts sched with
          | Ok () -> ()
          | Error _ -> refute r "witness schedule fails verification"
          | exception Invalid_argument e -> refute r ("witness schedule malformed: " ^ e)))
    answers;
  (* Copies agree, and agree with the reference. *)
  let by_key = Hashtbl.create 256 in
  List.iter
    (fun ((item : Workload.item), r) ->
      if Response.decisive r <> None then
        Hashtbl.replace by_key item.Workload.key
          ((item, r) :: Option.value ~default:[] (Hashtbl.find_opt by_key item.Workload.key)))
    answers;
  let keys = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) by_key []) in
  List.iter
    (fun k ->
      let copies = List.rev (Hashtbl.find by_key k) in
      let item, first = List.hd copies in
      List.iter
        (fun (_, r) ->
          if Response.decisive r <> Response.decisive first then
            refute r (Printf.sprintf "disagrees with %s, an earlier copy" first.Response.id))
        (List.tl copies);
      let wall_s = Float.min reference_wall_s (deadline -. Unix.gettimeofday ()) in
      match if wall_s > 0. then reference ~wall_s item.Workload.inst else None with
      | None -> unchecked := !unchecked + List.length copies
      | Some expected ->
        List.iter
          (fun (_, r) ->
            if Response.decisive r <> Some expected then
              refute r (Printf.sprintf "reference says %s" expected))
          copies)
    keys;
  { wrong = Hashtbl.length refuted; unchecked = !unchecked; notes = List.rev !notes }
