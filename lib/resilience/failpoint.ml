type exn_kind = Out_of_memory | Stack_overflow | Failure_msg of string

type action =
  | Raise of exn_kind
  | Delay of float

type trigger =
  | Always
  | Nth of int
  | From of int

let catalogue =
  [
    "portfolio.arm_start";
    "portfolio.analysis";
    "csp2opt.node";
    "csp2opt.memo_grow";
    "csp2opt.steal";
    "sat.propagate";
    "localsearch.restart";
    "localsearch.iter";
    "serve.request";
  ]

type site = {
  s_name : string;
  s_action : action;
  s_trigger : trigger;
  s_hits : int Atomic.t;  (* in-scope hits since arming *)
  s_fired : bool Atomic.t;  (* one-shot latch for [Nth] *)
}

(* The whole armed configuration lives behind one immutable list in an
   atomic, plus a boolean fast-path gate.  Arming is rare (tests, program
   start); [hit] on the hot path reads [armed_flag] once and returns. *)
let sites : site list Atomic.t = Atomic.make []
let armed_flag = Atomic.make false

let publish l =
  Atomic.set sites l;
  Atomic.set armed_flag (l <> [])

let armed () = Atomic.get armed_flag

(* Injection scope: a per-domain depth counter.  Armed sites fire only
   when the calling domain is inside at least one scope. *)
let dls_scope : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let in_scope () = !(Domain.DLS.get dls_scope) > 0

let with_scope f =
  let d = Domain.DLS.get dls_scope in
  incr d;
  Fun.protect ~finally:(fun () -> decr d) f

let find name = List.find_opt (fun s -> s.s_name = name) (Atomic.get sites)

let hits name = match find name with Some s -> Atomic.get s.s_hits | None -> 0

let arm ?(trigger = Always) name action =
  let s =
    {
      s_name = name;
      s_action = action;
      s_trigger = trigger;
      s_hits = Atomic.make 0;
      s_fired = Atomic.make false;
    }
  in
  publish (s :: List.filter (fun s -> s.s_name <> name) (Atomic.get sites))

let disarm name = publish (List.filter (fun s -> s.s_name <> name) (Atomic.get sites))

let reset () = publish []

let fire s =
  Telemetry.instant ("failpoint:" ^ s.s_name) ~cat:"resilience";
  match s.s_action with
  | Delay d -> Unix.sleepf d
  | Raise Out_of_memory -> raise Stdlib.Out_of_memory
  | Raise Stack_overflow -> raise Stdlib.Stack_overflow
  | Raise (Failure_msg m) -> failwith m

let hit name =
  if Atomic.get armed_flag && in_scope () then
    match find name with
    | None -> ()
    | Some s -> (
      let n = 1 + Atomic.fetch_and_add s.s_hits 1 in
      match s.s_trigger with
      | Always -> fire s
      | From k -> if n >= k then fire s
      | Nth k ->
        (* One-shot even under concurrent hits: the CAS on [s_fired]
           elects a single firing domain. *)
        if n >= k && Atomic.compare_and_set s.s_fired false true then fire s)

(* ------------------------------------------------------------------ *)
(* Spec parsing: "site=raise:Out_of_memory@3,other=delay:50ms". *)

let parse_duration s =
  let num t =
    match float_of_string_opt t with
    | Some v when v >= 0. -> Ok v
    | _ -> Error (Printf.sprintf "bad duration %S" s)
  in
  if Filename.check_suffix s "ms" then
    Result.map (fun v -> v /. 1000.) (num (Filename.chop_suffix s "ms"))
  else if Filename.check_suffix s "s" then num (Filename.chop_suffix s "s")
  else num s

let parse_action s =
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "bad action %S (want raise:<exn> or delay:<duration>)" s)
  | Some i -> (
    let kind = String.sub s 0 i in
    let arg = String.sub s (i + 1) (String.length s - i - 1) in
    match kind with
    | "delay" -> Result.map (fun d -> Delay d) (parse_duration arg)
    | "raise" -> (
      match String.index_opt arg ':' with
      | Some j when String.sub arg 0 j = "Failure" ->
        Ok (Raise (Failure_msg (String.sub arg (j + 1) (String.length arg - j - 1))))
      | _ -> (
        match arg with
        | "Out_of_memory" -> Ok (Raise Out_of_memory)
        | "Stack_overflow" -> Ok (Raise Stack_overflow)
        | "Failure" -> Ok (Raise (Failure_msg "injected failure"))
        | _ ->
          Error
            (Printf.sprintf "unknown exception %S (want Out_of_memory, Stack_overflow or Failure)"
               arg)))
    | _ -> Error (Printf.sprintf "unknown action kind %S (want raise or delay)" kind))

let parse_trigger s =
  if s = "" then Ok Always
  else
    let from = Filename.check_suffix s "+" in
    let t = if from then Filename.chop_suffix s "+" else s in
    match int_of_string_opt t with
    | Some n when n >= 1 -> Ok (if from then From n else Nth n)
    | _ -> Error (Printf.sprintf "bad trigger %S (want @N or @N+, N >= 1)" s)

let parse_entry s =
  match String.index_opt s '=' with
  | None -> Error (Printf.sprintf "bad entry %S (want site=action)" s)
  | Some i ->
    let name = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    let action_s, trigger_s =
      match String.index_opt rest '@' with
      | None -> (rest, "")
      | Some j -> (String.sub rest 0 j, String.sub rest (j + 1) (String.length rest - j - 1))
    in
    Result.bind (parse_action action_s) (fun action ->
        Result.map (fun trigger -> (name, action, trigger)) (parse_trigger trigger_s))

let parse_spec s =
  let entries = String.split_on_char ',' (String.trim s) in
  let entries = List.filter (fun e -> String.trim e <> "") entries in
  List.fold_left
    (fun acc e ->
      Result.bind acc (fun l ->
          Result.map (fun entry -> entry :: l) (parse_entry (String.trim e))))
    (Ok []) entries
  |> Result.map List.rev

let arm_spec s =
  match parse_spec s with
  | Error msg -> invalid_arg ("Failpoint.arm_spec: " ^ msg)
  | Ok entries ->
    List.iter
      (fun (name, _, _) ->
        if not (List.mem name catalogue) then
          invalid_arg
            (Printf.sprintf "Failpoint.arm_spec: unknown site %S (catalogue: %s)" name
               (String.concat ", " catalogue)))
      entries;
    List.iter (fun (name, action, trigger) -> arm ~trigger name action) entries

(* Environment arming at program start: malformed input warns and is
   skipped entry by entry — injection must never crash the process by
   itself (and [hit] only ever fires inside a supervision scope). *)
let () =
  match Sys.getenv_opt "MGRTS_FAILPOINTS" with
  | None | Some "" -> ()
  | Some s ->
    List.iter
      (fun e ->
        let e = String.trim e in
        if e <> "" then
          match parse_entry e with
          | Ok (name, action, trigger) ->
            if not (List.mem name catalogue) then
              Printf.eprintf "mgrts: MGRTS_FAILPOINTS: unknown site %S (ignored)\n%!" name
            else arm ~trigger name action
          | Error msg -> Printf.eprintf "mgrts: MGRTS_FAILPOINTS: %s (ignored)\n%!" msg)
      (String.split_on_char ',' s)
