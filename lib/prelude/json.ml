type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of int * string

(* ------------------------------------------------------------------ *)
(* Parser: recursive descent over a string, tracking one cursor.  The
   next character is read in place ([at_end], then [next]), never boxed
   as an option: a request line is a few hundred characters.           *)

type cursor = { text : string; mutable pos : int }

let error c msg = raise (Parse_error (c.pos, msg))
let at_end c = c.pos >= String.length c.text
let next c = String.unsafe_get c.text c.pos

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
  if at_end c then error c (Printf.sprintf "expected %C, got end of input" ch)
  else if next c = ch then advance c
  else error c (Printf.sprintf "expected %C, got %C" ch (next c))

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.text && String.sub c.text c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else error c (Printf.sprintf "expected %s" word)

(* The rest of a string whose first [c.pos - start] characters, from
   [start], hold no escape. *)
let parse_escaped_body c ~start =
  let buf = Buffer.create 16 in
  Buffer.add_substring buf c.text start (c.pos - start);
  let rec go () =
    if at_end c then error c "unterminated string"
    else
      match next c with
      | '"' -> advance c
      | '\\' ->
        advance c;
        if at_end c then error c "unterminated escape"
        else begin
          let e = next c in
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
            (* Encode the scalar as UTF-8; surrogate pairs are not
               recombined (the protocol never carries any — ids and error
               texts are ASCII), each half round-trips as a
               replacement-range byte sequence rather than crashing the
               daemon. *)
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
          go ()
        end
      | ch ->
        advance c;
        Buffer.add_char buf ch;
        go ()
  in
  go ();
  Buffer.contents buf

(* A string with no escape, the protocol's only kind, is one [String.sub]. *)
let parse_string_body c =
  let start = c.pos in
  let n = String.length c.text in
  while c.pos < n && match next c with '"' | '\\' -> false | _ -> true do
    advance c
  done;
  if c.pos < n && next c = '"' then begin
    advance c;
    String.sub c.text start (c.pos - 1 - start)
  end
  else parse_escaped_body c ~start

let is_num_char = function '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false

(* The value of the digits in [text] from [i] to [stop], or -1 if some
   character there is not a digit. *)
let rec magnitude text ~stop i acc =
  if i = stop then acc
  else
    match text.[i] with
    | '0' .. '9' as d -> magnitude text ~stop (i + 1) ((acc * 10) + Char.code d - 48)
    | _ -> -1

(* An optional minus and at most 15 digits, every integer the protocol
   carries, is read digit by digit: it is exact in a float, and reads as
   [float_of_string] would read it.  Anything else goes through
   [float_of_string]. *)
let parse_number c =
  let start = c.pos in
  let n = String.length c.text in
  while c.pos < n && is_num_char (next c) do
    advance c
  done;
  if c.pos = start then error c "expected a number";
  let neg = c.text.[start] = '-' in
  let first = if neg then start + 1 else start in
  let digits = c.pos - first in
  let v = if digits >= 1 && digits <= 15 then magnitude c.text ~stop:c.pos first 0 else -1 in
  if v >= 0 then Num (if neg then -.float_of_int v else float_of_int v)
  else
    let span = String.sub c.text start (c.pos - start) in
    match float_of_string_opt span with
    | Some v -> Num v
    | None -> error c ("bad number: " ^ span)

let rec parse_value c =
  skip_ws c;
  if at_end c then error c "unexpected end of input"
  else
    match next c with
    | '{' ->
      advance c;
      skip_ws c;
      if (not (at_end c)) && next c = '}' then begin
        advance c;
        Obj []
      end
      else Obj (parse_fields c)
    | '[' ->
      advance c;
      skip_ws c;
      if (not (at_end c)) && next c = ']' then begin
        advance c;
        Arr []
      end
      else Arr (parse_items c)
    | '"' ->
      advance c;
      Str (parse_string_body c)
    | 't' -> literal c "true" (Bool true)
    | 'f' -> literal c "false" (Bool false)
    | 'n' -> literal c "null" Null
    | _ -> parse_number c

(* The separator after a member: [true] for another member, [false] at
   the closing bracket. *)
and more c ~close ~msg =
  skip_ws c;
  if at_end c then error c msg
  else
    let ch = next c in
    if ch = ',' then begin
      advance c;
      true
    end
    else if ch = close then begin
      advance c;
      false
    end
    else error c msg

and[@tail_mod_cons] parse_fields c =
  skip_ws c;
  expect c '"';
  let key = parse_string_body c in
  skip_ws c;
  expect c ':';
  let v = parse_value c in
  let field = (key, v) in
  if more c ~close:'}' ~msg:"expected ',' or '}' in object" then field :: parse_fields c
  else [ field ]

and[@tail_mod_cons] parse_items c =
  let v = parse_value c in
  if more c ~close:']' ~msg:"expected ',' or ']' in array" then v :: parse_items c else [ v ]

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

(* The calling domain's buffer for [to_string_with_rows], so a serve
   worker renders every response into one buffer and allocates only the
   line it returns.  Like {!Scratch}'s arrays it is kept only while it
   holds at most [Scratch.limit] words. *)
let rows_buffer = Domain.DLS.new_key (fun () -> Buffer.create 4096)

let to_string_with_rows v ~name ~cell rows =
  match v with
  | Obj fields ->
    let buf = Domain.DLS.get rows_buffer in
    Buffer.clear buf;
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
    let line = Buffer.contents buf in
    if Buffer.length buf > 8 * Scratch.limit then Buffer.reset buf;
    line
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
