type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else if Float.is_nan f then "null" (* NaN has no JSON encoding *)
  else if f = Float.infinity then "1e999"
  else if f = Float.neg_infinity then "-1e999"
  else
    let s = Printf.sprintf "%.17g" f in
    (* keep a mark of floatness: %.17g may print large integral values
       bare ("1e15" -> "1000000000000000"), which would re-parse as Int *)
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
    else s ^ ".0"

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s ->
      Buffer.add_char buf '"';
      escape buf s;
      Buffer.add_char buf '"'
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          write buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape buf k;
          Buffer.add_string buf "\":";
          write buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* --- parsing: a recursive-descent reader sufficient for round-tripping
   the sink output and validating trace files --- *)

exception Parse_error of string

(* Recursion guard: the parser descends once per nesting level, so
   adversarially deep input ([[[[...]]]]) would otherwise exhaust the
   stack. 512 levels is far beyond anything the telemetry layer
   emits. *)
let max_depth = 512

type cursor = { src : string; mutable pos : int }

let error c msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.pos))
let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> error c (Printf.sprintf "expected %C" ch)

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else error c (Printf.sprintf "expected %s" word)

let parse_string_body c =
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek c with
    | None -> error c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
        advance c;
        match peek c with
        | Some 'n' -> advance c; Buffer.add_char buf '\n'; loop ()
        | Some 't' -> advance c; Buffer.add_char buf '\t'; loop ()
        | Some 'r' -> advance c; Buffer.add_char buf '\r'; loop ()
        | Some 'b' -> advance c; Buffer.add_char buf '\b'; loop ()
        | Some 'f' -> advance c; Buffer.add_char buf '\012'; loop ()
        | Some ('"' | '\\' | '/') ->
            Buffer.add_char buf c.src.[c.pos];
            advance c;
            loop ()
        | Some 'u' ->
            advance c;
            if c.pos + 4 > String.length c.src then error c "truncated \\u escape";
            let hex = String.sub c.src c.pos 4 in
            let code =
              try int_of_string ("0x" ^ hex)
              with Failure _ -> error c "bad \\u escape"
            in
            c.pos <- c.pos + 4;
            (* encode as UTF-8; surrogate pairs are not needed for our
               own output, which only escapes control characters *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end;
            loop ()
        | _ -> error c "bad escape")
    | Some ch ->
        advance c;
        Buffer.add_char buf ch;
        loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while match peek c with Some ch when is_num_char ch -> true | _ -> false do
    advance c
  done;
  let s = String.sub c.src start (c.pos - start) in
  match int_of_string_opt s with
  | Some n -> Int n
  | None -> (
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> error c "bad number")

let rec parse_value depth c =
  if depth > max_depth then error c "nesting too deep";
  skip_ws c;
  match peek c with
  | None -> error c "unexpected end of input"
  | Some 'n' -> literal c "null" Null
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some '"' ->
      advance c;
      String (parse_string_body c)
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin
        advance c;
        List []
      end
      else begin
        let items = ref [ parse_value (depth + 1) c ] in
        skip_ws c;
        while peek c = Some ',' do
          advance c;
          items := parse_value (depth + 1) c :: !items;
          skip_ws c
        done;
        expect c ']';
        List (List.rev !items)
      end
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin
        advance c;
        Obj []
      end
      else begin
        let field () =
          skip_ws c;
          expect c '"';
          let k = parse_string_body c in
          skip_ws c;
          expect c ':';
          let v = parse_value (depth + 1) c in
          (k, v)
        in
        let fields = ref [ field () ] in
        skip_ws c;
        while peek c = Some ',' do
          advance c;
          fields := field () :: !fields;
          skip_ws c
        done;
        expect c '}';
        Obj (List.rev !fields)
      end
  | Some _ -> parse_number c

let of_string s =
  let c = { src = s; pos = 0 } in
  let v = parse_value 0 c in
  skip_ws c;
  if c.pos <> String.length s then error c "trailing garbage";
  v

let of_string_opt s = try Some (of_string s) with Parse_error _ -> None

(* --- accessors used by tests and report folding --- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int_opt = function Int n -> Some n | _ -> None
let to_string_opt = function String s -> Some s | _ -> None
