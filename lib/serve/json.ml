type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* --- printing -------------------------------------------------------- *)

let add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* The shortest of [%.15g] / [%.16g] / [%.17g] that parses back to [f]:
   17 significant digits always round-trip a double, and a sketch's exact
   float cell (an AVG, say) must reach the server unchanged. *)
let add_num buf f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%d" (int_of_float f))
  else
    let s15 = Printf.sprintf "%.15g" f in
    if Float.equal (float_of_string s15) f then Buffer.add_string buf s15
    else
      let s16 = Printf.sprintf "%.16g" f in
      Buffer.add_string buf
        (if Float.equal (float_of_string s16) f then s16 else Printf.sprintf "%.17g" f)

let rec add buf v =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool true -> Buffer.add_string buf "true"
  | Bool false -> Buffer.add_string buf "false"
  | Num f -> add_num buf f
  | Str s -> add_escaped buf s
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          add buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char buf ',';
          add_escaped buf k;
          Buffer.add_char buf ':';
          add buf x)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  add buf v;
  Buffer.contents buf

(* --- parsing --------------------------------------------------------- *)

exception Fail of int * string

let fail pos msg = raise (Fail (pos, msg))

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  let rec go () =
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance c;
        go ()
    | Some _ | None -> ()
  in
  go ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> fail c.pos (Printf.sprintf "expected '%c', found '%c'" ch x)
  | None -> fail c.pos (Printf.sprintf "expected '%c', found end of input" ch)

let literal c word value =
  let n = String.length word in
  if
    c.pos + n <= String.length c.src
    && String.sub c.src c.pos n = word
  then (
    c.pos <- c.pos + n;
    value)
  else fail c.pos (Printf.sprintf "invalid literal (expected %s)" word)

(* Encode a Unicode scalar as UTF-8 into [buf]. *)
let add_utf8 buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then (
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F))))
  else if u < 0x10000 then (
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F))))
  else (
    Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F))))

let hex4 c =
  let digit ch =
    match ch with
    | '0' .. '9' -> Char.code ch - Char.code '0'
    | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
    | _ -> fail c.pos "invalid \\u escape"
  in
  let v = ref 0 in
  for _ = 1 to 4 do
    (match peek c with
    | Some ch -> v := (!v * 16) + digit ch
    | None -> fail c.pos "unterminated \\u escape");
    advance c
  done;
  !v

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c.pos "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
        advance c;
        match peek c with
        | None -> fail c.pos "unterminated escape"
        | Some ch ->
            advance c;
            (match ch with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' ->
                let u = hex4 c in
                (* surrogate pair *)
                if u >= 0xD800 && u <= 0xDBFF then (
                  expect c '\\';
                  expect c 'u';
                  let lo = hex4 c in
                  if lo < 0xDC00 || lo > 0xDFFF then
                    fail c.pos "invalid low surrogate"
                  else
                    add_utf8 buf
                      (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00)))
                else add_utf8 buf u
            | ch -> fail (c.pos - 1) (Printf.sprintf "invalid escape '\\%c'" ch));
            go ())
    | Some ch when Char.code ch < 0x20 -> fail c.pos "raw control character"
    | Some ch ->
        advance c;
        Buffer.add_char buf ch;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let accept p =
    match peek c with Some ch when p ch -> advance c; true | Some _ | None -> false
  in
  let digits () =
    if not (accept (function '0' .. '9' -> true | _ -> false)) then
      fail c.pos "expected digit";
    while accept (function '0' .. '9' -> true | _ -> false) do
      ()
    done
  in
  ignore (accept (fun ch -> ch = '-'));
  digits ();
  if accept (fun ch -> ch = '.') then digits ();
  if accept (function 'e' | 'E' -> true | _ -> false) then (
    ignore (accept (function '+' | '-' -> true | _ -> false));
    digits ());
  let s = String.sub c.src start (c.pos - start) in
  match float_of_string_opt s with
  | Some f -> f
  | None -> fail start (Printf.sprintf "bad number %S" s)

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c.pos "unexpected end of input"
  | Some '"' -> Str (parse_string c)
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then (
        advance c;
        Obj [])
      else
        let rec fields acc =
          skip_ws c;
          let k = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              fields ((k, v) :: acc)
          | Some '}' ->
              advance c;
              Obj (List.rev ((k, v) :: acc))
          | Some ch -> fail c.pos (Printf.sprintf "expected ',' or '}', found '%c'" ch)
          | None -> fail c.pos "unterminated object"
        in
        fields []
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then (
        advance c;
        List [])
      else
        let rec elems acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              elems (v :: acc)
          | Some ']' ->
              advance c;
              List (List.rev (v :: acc))
          | Some ch -> fail c.pos (Printf.sprintf "expected ',' or ']', found '%c'" ch)
          | None -> fail c.pos "unterminated array"
        in
        elems []
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some ('-' | '0' .. '9') -> Num (parse_number c)
  | Some ch -> fail c.pos (Printf.sprintf "unexpected character '%c'" ch)

let parse s =
  let c = { src = s; pos = 0 } in
  match
    let v = parse_value c in
    skip_ws c;
    (match peek c with
    | Some ch -> fail c.pos (Printf.sprintf "trailing garbage '%c'" ch)
    | None -> ());
    v
  with
  | v -> Ok v
  | exception Fail (pos, msg) ->
      Error (Printf.sprintf "%s at byte %d" msg pos)

(* --- accessors ------------------------------------------------------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | Null | Bool _ | Num _ | Str _ | List _ -> None

let get_str = function
  | Str s -> Some s
  | Null | Bool _ | Num _ | List _ | Obj _ -> None

let get_num = function
  | Num f -> Some f
  | Null | Bool _ | Str _ | List _ | Obj _ -> None

let get_int = function
  | Num f when Float.is_integer f -> Some (int_of_float f)
  | Num _ | Null | Bool _ | Str _ | List _ | Obj _ -> None

let get_bool = function
  | Bool b -> Some b
  | Null | Num _ | Str _ | List _ | Obj _ -> None

let get_list = function
  | List xs -> Some xs
  | Null | Bool _ | Num _ | Str _ | Obj _ -> None
