type t =
  | Num of string
  | Str of string
  | Bool of bool
  | Arr of t list
  | Obj of (string * t) list

let int n = Num (string_of_int n)
let float digits v = Num (Printf.sprintf "%.*f" digits v)

let rec to_string = function
  | Num s -> s
  | Str s -> Printf.sprintf "%S" s
  | Bool b -> string_of_bool b
  | Arr vs -> "[" ^ String.concat ", " (List.map to_string vs) ^ "]"
  | Obj kvs ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (to_string v)) kvs)
      ^ "}"

(* Recursive descent over the subset the harness writes: a backslash
   in a string escapes the next character, and there is no null. *)
let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = failwith (Printf.sprintf "json: %s at byte %d" what !pos) in
  let rec skip () =
    if !pos < n && String.contains " \t\r\n" s.[!pos] then (incr pos; skip ())
  in
  let expect c =
    skip ();
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    while !pos < n && s.[!pos] <> '"' do
      if s.[!pos] = '\\' then incr pos;
      if !pos < n then Buffer.add_char b s.[!pos];
      incr pos
    done;
    expect '"';
    Buffer.contents b
  in
  let rec seq close item =
    skip ();
    if !pos < n && s.[!pos] = close then (incr pos; [])
    else
      let x = item () in
      skip ();
      if !pos < n && s.[!pos] = ',' then (incr pos; x :: seq close item)
      else (expect close; [ x ])
  in
  let word w v =
    let l = String.length w in
    if !pos + l <= n && String.sub s !pos l = w then (pos := !pos + l; v)
    else fail "unexpected word"
  in
  let rec value () =
    skip ();
    if !pos >= n then fail "unexpected end";
    match s.[!pos] with
    | '{' ->
        incr pos;
        Obj
          (seq '}' (fun () ->
               let k = string () in
               expect ':';
               (k, value ())))
    | '[' ->
        incr pos;
        Arr (seq ']' value)
    | '"' -> Str (string ())
    | 't' -> word "true" (Bool true)
    | 'f' -> word "false" (Bool false)
    | _ ->
        let start = !pos in
        while !pos < n && String.contains "+-.eE0123456789" s.[!pos] do
          incr pos
        done;
        if !pos = start then fail "unexpected character";
        Num (String.sub s start (!pos - start))
  in
  let v = value () in
  skip ();
  if !pos <> n then fail "trailing input";
  v

let of_file path = of_string (In_channel.with_open_bin path In_channel.input_all)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let number = function
  | Num s -> (
      match float_of_string_opt s with
      | Some f -> f
      | None -> failwith ("json: bad number " ^ s))
  | v -> failwith ("json: expected a number, got " ^ to_string v)
