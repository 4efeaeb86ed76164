(* Hot-path / concurrency lint over lib/, on compiler-libs parsetrees.

   Four rule families, all syntactic (no typing pass — the rules are
   chosen so that a parsetree is enough):

   poly-compare   Any use of the polymorphic comparator family that the
                  flambda-less compiler cannot specialize through a
                  function argument: bare [compare], [Stdlib.compare],
                  [Hashtbl.hash] — anywhere under lib/, applied or
                  passed ([List.sort compare] is the classic).  Files
                  that define their own [compare] are exempt for the
                  bare name.  In the hot-path directories also an infix
                  [<], [<=], [>], [>=], [=] or [<>] with a tuple literal
                  operand: a tuple is a block, so the comparison walks it
                  through the polymorphic compare runtime.

   poly-minmax    Bare [min]/[max] (and [Stdlib.min]/[Stdlib.max]) in
                  the hot-path directories: these go through the
                  polymorphic compare runtime on every call unless the
                  compiler can prove the type, and on solver inner
                  loops they show up in profiles.  [Int.min] is the
                  fix.  Files defining their own min/max are exempt.

   racy-mutable   A write (record-field set, array set, [:=], [incr],
                  [decr]) inside a closure handed to a spawn-like
                  primitive (Domain.spawn, *.Thread.spawn, Pool.run,
                  *.assign) whose target is captured from an enclosing
                  scope and is not an Atomic/Mutex-mediated structure.
                  Local function names referenced from such closures
                  are chased through their let-bindings (the pool
                  worker bodies are named functions, not literals).
                  Genuinely safe sites (per-worker array slots indexed
                  by the worker id, single-writer refs read after join)
                  are annotated [@lint.racy_ok "reason"], which
                  suppresses the subtree and doubles as documentation.

   failpoint-catalogue
                  Three-way agreement between DESIGN.md's catalogue
                  (between <!-- failpoint-catalogue --> markers), the
                  [catalogue] value in lib/resilience/failpoint.ml, and
                  the actual [Failpoint.hit "site"] call sites under
                  lib/.  A drifting catalogue silently un-tests a
                  failure path, which is exactly what it exists to
                  prevent.

   Exit status 1 iff any finding; CI gates on it. *)

let hot_dirs =
  [ "prelude"; "model"; "csp2"; "sat"; "fd"; "analysis"; "localsearch"; "encodings" ]

type finding = { f_file : string; f_line : int; f_col : int; f_rule : string; f_msg : string }

let findings : finding list ref = ref []

let add ~file ~loc ~rule msg =
  let p = loc.Location.loc_start in
  findings :=
    {
      f_file = file;
      f_line = p.Lexing.pos_lnum;
      f_col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
      f_rule = rule;
      f_msg = msg;
    }
    :: !findings

let rec flatten_lid = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> flatten_lid l @ [ s ]
  | Longident.Lapply _ -> []

let lid_str lid = String.concat "." (flatten_lid lid)

let has_racy_ok attrs =
  List.exists (fun (a : Parsetree.attribute) -> a.attr_name.txt = "lint.racy_ok") attrs

(* ------------------------------------------------------------------ *)
(* Per-file context. *)

type ctx = {
  file : string;
  hot : bool;
  defines : (string, unit) Hashtbl.t;  (* names let-bound anywhere in the file *)
  bindings : (string, Parsetree.expression) Hashtbl.t;  (* name -> bound expr *)
  mutable hits : (string * Location.t) list;  (* Failpoint.hit string literals *)
}

let iter_patterns pat_f =
  {
    Ast_iterator.default_iterator with
    pat =
      (fun self p ->
        (match p.Parsetree.ppat_desc with
        | Parsetree.Ppat_var { txt; _ } -> pat_f txt
        | _ -> ());
        Ast_iterator.default_iterator.pat self p);
  }

let collect_defines str =
  let tbl = Hashtbl.create 64 in
  let it = iter_patterns (fun name -> Hashtbl.replace tbl name ()) in
  it.structure it str;
  tbl

let collect_bindings str =
  let tbl = Hashtbl.create 64 in
  let record_vb (vb : Parsetree.value_binding) =
    match vb.pvb_pat.ppat_desc with
    | Parsetree.Ppat_var { txt; _ } ->
      if not (has_racy_ok vb.pvb_attributes) then Hashtbl.replace tbl txt vb.pvb_expr
    | _ -> ()
  in
  let it =
    {
      Ast_iterator.default_iterator with
      value_binding =
        (fun self vb ->
          record_vb vb;
          Ast_iterator.default_iterator.value_binding self vb);
    }
  in
  it.structure it str;
  tbl

(* ------------------------------------------------------------------ *)
(* Rules 1+2: polymorphic comparator family. *)

let check_comparators ctx str =
  let check_ident lid loc =
    match flatten_lid lid with
    | [ "compare" ] when not (Hashtbl.mem ctx.defines "compare") ->
      add ~file:ctx.file ~loc ~rule:"poly-compare"
        "bare `compare` is the polymorphic comparator; use a specialized compare \
         (Int.compare, a per-type compare, or a key extraction)"
    | [ "Stdlib"; "compare" ] ->
      add ~file:ctx.file ~loc ~rule:"poly-compare"
        "Stdlib.compare is the polymorphic comparator; use a specialized compare"
    | [ "Hashtbl"; "hash" ] | [ "Stdlib"; "Hashtbl"; "hash" ] ->
      add ~file:ctx.file ~loc ~rule:"poly-compare"
        "Hashtbl.hash is the polymorphic hash; hash the fields explicitly"
    | [ ("min" | "max") as n ] when ctx.hot && not (Hashtbl.mem ctx.defines n) ->
      add ~file:ctx.file ~loc ~rule:"poly-minmax"
        (Printf.sprintf
           "bare `%s` is polymorphic and unspecialized on this hot path; use Int.%s / \
            Float.%s"
           n n n)
    | [ "Stdlib"; (("min" | "max") as n) ] when ctx.hot ->
      add ~file:ctx.file ~loc ~rule:"poly-minmax"
        (Printf.sprintf "Stdlib.%s is polymorphic; use Int.%s / Float.%s" n n n)
    | _ -> ()
  in
  let is_tuple (_, (arg : Parsetree.expression)) =
    match arg.pexp_desc with Parsetree.Pexp_tuple _ -> true | _ -> false
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.Parsetree.pexp_desc with
          | Parsetree.Pexp_ident { txt; loc } -> check_ident txt loc
          | Parsetree.Pexp_apply
              ( { pexp_desc = Parsetree.Pexp_ident { txt = Longident.Lident op; loc }; _ },
                args )
            when ctx.hot
                 && List.mem op [ "<"; "<="; ">"; ">="; "="; "<>" ]
                 && List.exists is_tuple args ->
            add ~file:ctx.file ~loc ~rule:"poly-compare"
              (Printf.sprintf
                 "`%s` on a tuple is the polymorphic comparator on this hot path; compare \
                  the components with Int.compare / Int.equal"
                 op)
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.structure it str

(* ------------------------------------------------------------------ *)
(* Rule 3: captured mutable writes inside spawn-like closures. *)

let spawn_like lid =
  match List.rev (flatten_lid lid) with
  | "spawn" :: _ :: _ -> true  (* Domain.spawn, Thread.spawn, T.spawn, ... *)
  | "run" :: owner :: _ -> owner = "Pool"  (* Pool.run, Csp2.Pool.run *)
  | "assign" :: _ :: _ -> true  (* Proto.assign / Pool_proto assign *)
  | _ -> false

let write_head lid =
  match flatten_lid lid with
  | [ "Array"; "set" ] | [ "Bytes"; "set" ] | [ ":=" ] | [ "incr" ] | [ "decr" ] -> true
  | _ -> false

(* The expression whose mutation we're attributing: strip field and
   array-read projections down to the root identifier. *)
let rec write_root (e : Parsetree.expression) =
  match e.pexp_desc with
  | Parsetree.Pexp_ident { txt; loc } -> Some (txt, loc)
  | Parsetree.Pexp_field (e', _) -> write_root e'
  | Parsetree.Pexp_apply
      ({ pexp_desc = Parsetree.Pexp_ident { txt = Longident.Ldot (Longident.Lident "Array", "get"); _ }; _ },
       (_, a) :: _) ->
    write_root a
  | _ -> None

(* Names bound anywhere under [e] (fun params, lets, match arms): an
   over-approximation of closure-local scope — good enough to separate
   captured targets from local bookkeeping. *)
let names_under_expr e =
  let tbl = Hashtbl.create 16 in
  let it = iter_patterns (fun name -> Hashtbl.replace tbl name ()) in
  it.expr it e;
  tbl

let check_closure ctx visited e0 =
  let rec walk_entry e0 =
    if has_racy_ok e0.Parsetree.pexp_attributes then ()
    else begin
      let local = names_under_expr e0 in
      let flag root_lid loc =
        match root_lid with
        | Longident.Lident n when Hashtbl.mem local n -> ()
        | _ ->
          add ~file:ctx.file ~loc ~rule:"racy-mutable"
            (Printf.sprintf
               "write to `%s`, captured by a closure that runs on another domain, without \
                Atomic/Mutex protection; make it atomic, move it inside the domain, or \
                annotate the write [@lint.racy_ok \"reason\"]"
               (lid_str root_lid))
      in
      let chase name =
        if (not (Hashtbl.mem local name)) && not (Hashtbl.mem visited name) then begin
          Hashtbl.replace visited name ();
          match Hashtbl.find_opt ctx.bindings name with
          | Some body -> walk_entry body
          | None -> ()
        end
      in
      let it =
        {
          Ast_iterator.default_iterator with
          expr =
            (fun self e ->
              if has_racy_ok e.Parsetree.pexp_attributes then ()
              else begin
                (match e.Parsetree.pexp_desc with
                | Parsetree.Pexp_setfield (tgt, _, _) -> (
                  match write_root tgt with
                  | Some (lid, loc) -> flag lid loc
                  | None -> ())
                | Parsetree.Pexp_apply
                    ({ pexp_desc = Parsetree.Pexp_ident { txt; _ }; _ }, (_, first) :: _)
                  when write_head txt -> (
                  match write_root first with
                  | Some (lid, loc) -> flag lid loc
                  | None -> ())
                | Parsetree.Pexp_ident { txt = Longident.Lident n; _ } -> chase n
                | _ -> ());
                Ast_iterator.default_iterator.expr self e
              end);
        }
      in
      it.expr it e0
    end
  in
  walk_entry e0

let check_spawns ctx str =
  let visited = Hashtbl.create 16 in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.Parsetree.pexp_desc with
          | Parsetree.Pexp_apply ({ pexp_desc = Parsetree.Pexp_ident { txt; _ }; _ }, args)
            when spawn_like txt ->
            List.iter
              (fun (_, (arg : Parsetree.expression)) ->
                match arg.pexp_desc with
                | Parsetree.Pexp_fun _ | Parsetree.Pexp_function _ ->
                  check_closure ctx visited arg
                | Parsetree.Pexp_ident { txt = Longident.Lident n; _ } ->
                  if not (Hashtbl.mem visited n) then begin
                    Hashtbl.replace visited n ();
                    match Hashtbl.find_opt ctx.bindings n with
                    | Some body -> check_closure ctx visited body
                    | None -> ()
                  end
                | _ -> ())
              args
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.structure it str

(* ------------------------------------------------------------------ *)
(* Rule 4: failpoint catalogue agreement. *)

let collect_hits ctx str =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.Parsetree.pexp_desc with
          | Parsetree.Pexp_apply ({ pexp_desc = Parsetree.Pexp_ident { txt; _ }; _ }, args)
            -> (
            match List.rev (flatten_lid txt) with
            | "hit" :: "Failpoint" :: _ -> (
              match args with
              | (_, { pexp_desc = Parsetree.Pexp_constant (Parsetree.Pconst_string (s, _, _)); pexp_loc; _ })
                :: _ ->
                ctx.hits <- (s, pexp_loc) :: ctx.hits
              | _ -> ())
            | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.structure it str

let catalogue_of_failpoint_ml str =
  let result = ref [] in
  let rec strings_of (e : Parsetree.expression) =
    match e.pexp_desc with
    | Parsetree.Pexp_construct ({ txt = Longident.Lident "::"; _ }, Some { pexp_desc = Parsetree.Pexp_tuple [ hd; tl ]; _ }) ->
      (match hd.pexp_desc with
      | Parsetree.Pexp_constant (Parsetree.Pconst_string (s, _, _)) -> s :: strings_of tl
      | _ -> strings_of tl)
    | _ -> []
  in
  let it =
    {
      Ast_iterator.default_iterator with
      value_binding =
        (fun self vb ->
          (match vb.Parsetree.pvb_pat.ppat_desc with
          | Parsetree.Ppat_var { txt = "catalogue"; _ } -> result := strings_of vb.pvb_expr
          | _ -> ());
          Ast_iterator.default_iterator.value_binding self vb);
    }
  in
  it.structure it str;
  !result

let design_catalogue design_file =
  if not (Sys.file_exists design_file) then None
  else begin
    let ic = open_in design_file in
    let n = in_channel_length ic in
    let text = really_input_string ic n in
    close_in ic;
    let start_marker = "<!-- failpoint-catalogue -->" in
    let stop_marker = "<!-- /failpoint-catalogue -->" in
    let find sub from =
      let sl = String.length sub and tl = String.length text in
      let rec go i = if i + sl > tl then None else if String.sub text i sl = sub then Some i else go (i + 1) in
      go from
    in
    match find start_marker 0 with
    | None -> None
    | Some i -> (
      match find stop_marker i with
      | None -> None
      | Some j ->
        let region = String.sub text i (j - i) in
        (* Collect `backtick.quoted` tokens that look like site names. *)
        let sites = ref [] in
        let len = String.length region in
        let k = ref 0 in
        while !k < len do
          if region.[!k] = '`' then begin
            let e = ref (!k + 1) in
            while !e < len && region.[!e] <> '`' && region.[!e] <> '\n' do incr e done;
            if !e < len && region.[!e] = '`' then begin
              let tok = String.sub region (!k + 1) (!e - !k - 1) in
              let is_site =
                String.length tok > 0
                && String.contains tok '.'
                && String.for_all
                     (fun c -> (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '.' || c = '_')
                     tok
              in
              if is_site then sites := tok :: !sites;
              k := !e + 1
            end
            else k := !k + 1
          end
          else incr k
        done;
        Some (List.rev !sites))
  end

let check_failpoints ~root all_hits =
  let dummy_loc = Location.none in
  let design_file = Filename.concat root "DESIGN.md" in
  let failpoint_ml = Filename.concat root "lib/resilience/failpoint.ml" in
  let sort = List.sort_uniq String.compare in
  let diff a b = List.filter (fun x -> not (List.mem x b)) a in
  let code_catalogue =
    if Sys.file_exists failpoint_ml then begin
      let ic = open_in failpoint_ml in
      let lb = Lexing.from_channel ic in
      Location.init lb failpoint_ml;
      let str = Parse.implementation lb in
      close_in ic;
      catalogue_of_failpoint_ml str
    end
    else []
  in
  let code_catalogue = sort code_catalogue in
  let hit_sites = sort (List.map fst all_hits) in
  (match design_catalogue design_file with
  | None ->
    add ~file:design_file ~loc:dummy_loc ~rule:"failpoint-catalogue"
      "DESIGN.md has no <!-- failpoint-catalogue --> ... <!-- /failpoint-catalogue --> \
       section to check the code against"
  | Some design_sites ->
    let design_sites = sort design_sites in
    List.iter
      (fun s ->
        add ~file:design_file ~loc:dummy_loc ~rule:"failpoint-catalogue"
          (Printf.sprintf "site `%s` documented in DESIGN.md but has no Failpoint.hit call site" s))
      (diff design_sites hit_sites);
    List.iter
      (fun s ->
        add ~file:design_file ~loc:dummy_loc ~rule:"failpoint-catalogue"
          (Printf.sprintf "Failpoint.hit %S exists in code but is missing from DESIGN.md's catalogue" s))
      (diff hit_sites design_sites));
  List.iter
    (fun s ->
      add ~file:failpoint_ml ~loc:dummy_loc ~rule:"failpoint-catalogue"
        (Printf.sprintf "Failpoint.catalogue lists `%s` but no Failpoint.hit call site uses it" s))
    (diff code_catalogue hit_sites);
  List.iter
    (fun s ->
      add ~file:failpoint_ml ~loc:dummy_loc ~rule:"failpoint-catalogue"
        (Printf.sprintf "Failpoint.hit %S exists in code but is missing from Failpoint.catalogue" s))
    (diff hit_sites code_catalogue)

(* ------------------------------------------------------------------ *)
(* Driver. *)

let rec ml_files dir =
  match Sys.readdir dir with
  | entries ->
    Array.to_list entries
    |> List.concat_map (fun entry ->
           let path = Filename.concat dir entry in
           if Sys.is_directory path then ml_files path
           else if Filename.check_suffix entry ".ml" then [ path ]
           else [])
  | exception Sys_error _ -> []

let is_hot path =
  List.exists
    (fun d ->
      let needle = Filename.concat "lib" d ^ Filename.dir_sep in
      let nl = String.length needle and pl = String.length path in
      let rec go i = i + nl <= pl && (String.sub path i nl = needle || go (i + 1)) in
      go 0)
    hot_dirs

let () =
  let root = if Array.length Sys.argv > 1 then Sys.argv.(1) else "." in
  let files = List.sort String.compare (ml_files (Filename.concat root "lib")) in
  if files = [] then begin
    Printf.eprintf "lint: no .ml files under %s/lib\n" root;
    exit 2
  end;
  let all_hits = ref [] in
  List.iter
    (fun file ->
      match
        let ic = open_in file in
        let lb = Lexing.from_channel ic in
        Location.init lb file;
        let str = Parse.implementation lb in
        close_in ic;
        str
      with
      | str ->
        let ctx =
          {
            file;
            hot = is_hot file;
            defines = collect_defines str;
            bindings = collect_bindings str;
            hits = [];
          }
        in
        check_comparators ctx str;
        check_spawns ctx str;
        collect_hits ctx str;
        all_hits := ctx.hits @ !all_hits
      | exception e ->
        add ~file ~loc:Location.none ~rule:"parse-error" (Printexc.to_string e))
    files;
  check_failpoints ~root !all_hits;
  let fs =
    List.sort_uniq
      (fun a b ->
        match String.compare a.f_file b.f_file with
        | 0 -> (
          match Int.compare a.f_line b.f_line with
          | 0 -> (
            match Int.compare a.f_col b.f_col with
            | 0 -> String.compare a.f_rule b.f_rule
            | c -> c)
          | c -> c)
        | c -> c)
      !findings
  in
  List.iter
    (fun f -> Printf.printf "%s:%d:%d: [%s] %s\n" f.f_file f.f_line f.f_col f.f_rule f.f_msg)
    fs;
  if fs = [] then print_endline "lint: no findings"
  else Printf.printf "lint: %d finding(s)\n" (List.length fs);
  exit (if fs = [] then 0 else 1)
