type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of int * string

(* ------------------------------------------------------------------ *)
(* Parser: recursive descent over a string, tracking one cursor.       *)

type cursor = { text : string; mutable pos : int }

let error c msg = raise (Parse_error (c.pos, msg))
let peek c = if c.pos < String.length c.text then Some c.text.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  let n = String.length c.text in
  while
    c.pos < n
    && match c.text.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance c
  done

let expect c ch =
  match peek c with
  | Some got when got = ch -> advance c
  | Some got -> error c (Printf.sprintf "expected %C, got %C" ch got)
  | None -> error c (Printf.sprintf "expected %C, got end of input" ch)

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.text && String.sub c.text c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else error c (Printf.sprintf "expected %s" word)

let parse_string_body c =
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> error c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
      advance c;
      match peek c with
      | None -> error c "unterminated escape"
      | Some e ->
        advance c;
        (match e with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          if c.pos + 4 > String.length c.text then error c "truncated \\u escape";
          let hex = String.sub c.text c.pos 4 in
          let code =
            match int_of_string_opt ("0x" ^ hex) with
            | Some v -> v
            | None -> error c ("bad \\u escape: " ^ hex)
          in
          c.pos <- c.pos + 4;
          (* Encode the scalar as UTF-8; surrogate pairs are not recombined
             (the protocol never carries any — ids and error texts are
             ASCII), each half round-trips as a replacement-range byte
             sequence rather than crashing the daemon. *)
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else if code < 0x800 then begin
            Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
          else begin
            Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
        | other -> error c (Printf.sprintf "bad escape \\%C" other));
        go ())
    | Some ch ->
      advance c;
      Buffer.add_char buf ch;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let n = String.length c.text in
  let is_num_char ch =
    match ch with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  while c.pos < n && is_num_char c.text.[c.pos] do
    advance c
  done;
  if c.pos = start then error c "expected a number";
  let span = String.sub c.text start (c.pos - start) in
  match float_of_string_opt span with
  | Some v -> Num v
  | None -> error c ("bad number: " ^ span)

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> error c "unexpected end of input"
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin
      advance c;
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec fields_loop () =
        skip_ws c;
        expect c '"';
        let key = parse_string_body c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        fields := (key, v) :: !fields;
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          fields_loop ()
        | Some '}' -> advance c
        | _ -> error c "expected ',' or '}' in object"
      in
      fields_loop ();
      Obj (List.rev !fields)
    end
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin
      advance c;
      Arr []
    end
    else begin
      let items = ref [] in
      let rec items_loop () =
        let v = parse_value c in
        items := v :: !items;
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          items_loop ()
        | Some ']' -> advance c
        | _ -> error c "expected ',' or ']' in array"
      in
      items_loop ();
      Arr (List.rev !items)
    end
  | Some '"' ->
    advance c;
    Str (parse_string_body c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some _ -> parse_number c

let parse text =
  let c = { text; pos = 0 } in
  match
    let v = parse_value c in
    skip_ws c;
    if c.pos <> String.length text then error c "trailing characters after value";
    v
  with
  | v -> Ok v
  | exception Parse_error (pos, msg) -> Error (Printf.sprintf "json error at offset %d: %s" pos msg)

(* ------------------------------------------------------------------ *)
(* Printer: one line, objects spaced as {"k": v, "k2": v2}, arrays     *)
(* compact as [1,2,3].                                                 *)

let add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* Digits of [-n] for [n <= 0], most significant first, straight into
   the buffer: a schedule carries thousands of cells, and a formatted
   string per cell would cost more than the rest of the response.  The
   non-positive side holds every magnitude, [min_int]'s included. *)
let rec add_digits buf n =
  if n <= -10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

let add_int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf n
  end
  else add_digits buf (-n)

(* JSON has no spelling for inf or nan: they print as null. *)
let add_number buf v =
  if Float.is_integer v && Float.abs v < 1e15 then add_int buf (int_of_float v)
  else if Float.is_finite v then Printf.bprintf buf "%.12g" v
  else Buffer.add_string buf "null"

(* [add_number buf (float_of_int n)], without boxing the float where the
   digits say the same. *)
let add_int_number buf n =
  if n > -1_000_000_000_000_000 && n < 1_000_000_000_000_000 then add_int buf n
  else add_number buf (float_of_int n)

let rec add buf v =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num n -> add_number buf n
  | Str s -> add_escaped buf s
  | Arr items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        add buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    add_fields buf fields;
    Buffer.add_char buf '}'

and add_fields buf fields =
  List.iteri
    (fun i (k, item) ->
      if i > 0 then Buffer.add_string buf ", ";
      add_escaped buf k;
      Buffer.add_string buf ": ";
      add buf item)
    fields

let to_string v =
  let buf = Buffer.create 256 in
  add buf v;
  Buffer.contents buf

let to_string_with_rows v ~name ~cell rows =
  match v with
  | Obj fields ->
    let cells = Array.fold_left (fun acc row -> acc + Array.length row) 0 rows in
    let buf = Buffer.create (256 + (3 * cells)) in
    Buffer.add_char buf '{';
    add_fields buf fields;
    (match fields with [] -> () | _ :: _ -> Buffer.add_string buf ", ");
    add_escaped buf name;
    Buffer.add_string buf ": [";
    Array.iteri
      (fun i row ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '[';
        for time = 0 to Array.length row - 1 do
          if time > 0 then Buffer.add_char buf ',';
          add_int_number buf (cell row.(time))
        done;
        Buffer.add_char buf ']')
      rows;
    Buffer.add_string buf "]}";
    Buffer.contents buf
  | Null | Bool _ | Num _ | Str _ | Arr _ ->
    invalid_arg "Json.to_string_with_rows: not an object"

let int i = Num (float_of_int i)

(* ------------------------------------------------------------------ *)
(* Accessors.                                                          *)

let member key v =
  match v with
  | Obj fields -> List.assoc_opt key fields
  | Null | Bool _ | Num _ | Str _ | Arr _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_float = function Num n -> Some n | _ -> None

let to_int = function
  | Num n when Float.is_integer n && Float.abs n <= 1e15 -> Some (int_of_float n)
  | _ -> None

let to_list = function Arr items -> Some items | _ -> None
