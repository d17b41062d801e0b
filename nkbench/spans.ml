(* In-memory span recorder for the traced run.

   Every span carries host nanoseconds, OCaml minor words and simulated
   cycles at both ends, plus the total of each that its children cover,
   so self time in all three units is [duration - children].  Records
   live in one flat int array (stride [stride]) that doubles when full;
   nothing is written out until the run ends.  Callers pass the clock
   readings in, which keeps this module free of any time source and
   lets the tests drive it with exact numbers.

   Very frequent leaf calls (the oracle's per-access VA checks) are
   [leaf]-aggregated instead of stored: their cost still lands in the
   enclosing span's child totals and in a per-name aggregate. *)

let stride = 16

(* Field offsets within one record. *)
let f_name = 0
let f_parent = 1
let f_quantum = 2
let f_cpu = 3
let f_pid = 4
let f_dom = 5
let f_t0 = 6
let f_t1 = 7
let f_cns = 8
let f_w0 = 9
let f_w1 = 10
let f_cw = 11
let f_c0 = 12
let f_c1 = 13
let f_cc = 14

type agg = {
  mutable count : int;
  mutable self_ns : int;
  mutable self_words : int;
  mutable self_cycles : int;
}

type t = {
  mutable data : int array;
  mutable len : int;
  mutable stack : int array;
  mutable depth : int;
  names : (string, int) Hashtbl.t;
  mutable name_of : string array;
  mutable leaves : agg array;  (* by name id; only [leaf] feeds these *)
  mutable quantum : int;
  mutable cpu : int;
  mutable pid : int;
  mutable dom : int;
}

let new_agg () = { count = 0; self_ns = 0; self_words = 0; self_cycles = 0 }

let create ?(cap = 4096) () =
  {
    data = Array.make (cap * stride) 0;
    len = 0;
    stack = Array.make 64 0;
    depth = 0;
    names = Hashtbl.create 32;
    name_of = [||];
    leaves = [||];
    quantum = -1;
    cpu = 0;
    pid = 0;
    dom = 0;
  }

let intern t s =
  match Hashtbl.find_opt t.names s with
  | Some id -> id
  | None ->
      let id = Array.length t.name_of in
      Hashtbl.replace t.names s id;
      t.name_of <- Array.append t.name_of [| s |];
      t.leaves <- Array.append t.leaves [| new_agg () |];
      id

let name t id = t.name_of.(id)
let names t = Array.to_list t.name_of
let length t = t.len
let depth t = t.depth

(* Tags stamped on every span opened from now on. *)
let set_tags t ~quantum ~cpu ~pid ~dom =
  t.quantum <- quantum;
  t.cpu <- cpu;
  t.pid <- pid;
  t.dom <- dom

(* Re-stamp the current tags on spans [from .. length-1]: a root opened
   before its CPU and process were known takes them on arrival. *)
let retag_from t from =
  for i = from to t.len - 1 do
    let b = i * stride in
    t.data.(b + f_quantum) <- t.quantum;
    t.data.(b + f_cpu) <- t.cpu;
    t.data.(b + f_pid) <- t.pid;
    t.data.(b + f_dom) <- t.dom
  done

let get t i f = t.data.((i * stride) + f)

let open_ t id ~ns ~words ~cycles =
  if (t.len + 1) * stride > Array.length t.data then begin
    let d = Array.make (2 * Array.length t.data) 0 in
    Array.blit t.data 0 d 0 (t.len * stride);
    t.data <- d
  end;
  if t.depth = Array.length t.stack then begin
    let s = Array.make (2 * t.depth) 0 in
    Array.blit t.stack 0 s 0 t.depth;
    t.stack <- s
  end;
  let i = t.len in
  let b = i * stride and d = t.data in
  d.(b + f_name) <- id;
  d.(b + f_parent) <- (if t.depth = 0 then -1 else t.stack.(t.depth - 1));
  d.(b + f_quantum) <- t.quantum;
  d.(b + f_cpu) <- t.cpu;
  d.(b + f_pid) <- t.pid;
  d.(b + f_dom) <- t.dom;
  d.(b + f_t0) <- ns;
  d.(b + f_t1) <- ns;
  d.(b + f_cns) <- 0;
  d.(b + f_w0) <- words;
  d.(b + f_w1) <- words;
  d.(b + f_cw) <- 0;
  d.(b + f_c0) <- cycles;
  d.(b + f_c1) <- cycles;
  d.(b + f_cc) <- 0;
  t.stack.(t.depth) <- i;
  t.depth <- t.depth + 1;
  t.len <- i + 1

(* Add one finished child's extent to the innermost open span. *)
let charge_parent t ~ns ~words ~cycles =
  if t.depth > 0 then begin
    let b = t.stack.(t.depth - 1) * stride and d = t.data in
    d.(b + f_cns) <- d.(b + f_cns) + ns;
    d.(b + f_cw) <- d.(b + f_cw) + words;
    d.(b + f_cc) <- d.(b + f_cc) + cycles
  end

let close t ~ns ~words ~cycles =
  if t.depth = 0 then invalid_arg "Spans.close: no open span";
  t.depth <- t.depth - 1;
  let b = t.stack.(t.depth) * stride and d = t.data in
  d.(b + f_t1) <- ns;
  d.(b + f_w1) <- words;
  d.(b + f_c1) <- cycles;
  charge_parent t ~ns:(ns - d.(b + f_t0)) ~words:(words - d.(b + f_w0))
    ~cycles:(cycles - d.(b + f_c0))

let leaf t id ~ns ~words ~cycles =
  let a = t.leaves.(id) in
  a.count <- a.count + 1;
  a.self_ns <- a.self_ns + ns;
  a.self_words <- a.self_words + words;
  a.self_cycles <- a.self_cycles + cycles;
  charge_parent t ~ns ~words ~cycles

let dur_ns t i = get t i f_t1 - get t i f_t0
(* Child spans are strictly nested, so their extents add without
   overlap and self time is a plain difference. *)
let self_ns t i = dur_ns t i - get t i f_cns
let self_words t i = get t i f_w1 - get t i f_w0 - get t i f_cw
let self_cycles t i = get t i f_c1 - get t i f_c0 - get t i f_cc
let parent t i = get t i f_parent
let span_name t i = name t (get t i f_name)

(* Per-name totals over stored spans plus the leaf aggregates. *)
let summary t =
  let aggs = Array.map (fun (a : agg) -> { a with count = a.count }) t.leaves in
  for i = 0 to t.len - 1 do
    let a = aggs.(get t i f_name) in
    a.count <- a.count + 1;
    a.self_ns <- a.self_ns + self_ns t i;
    a.self_words <- a.self_words + self_words t i;
    a.self_cycles <- a.self_cycles + self_cycles t i
  done;
  fun s ->
    match Hashtbl.find_opt t.names s with
    | Some id -> aggs.(id)
    | None -> new_agg ()

(* Sum of self cycles over every span and leaf: equals the cycles the
   root spans cover when the accounting is sound. *)
let total_self_cycles t =
  let s = ref 0 in
  for i = 0 to t.len - 1 do
    s := !s + self_cycles t i
  done;
  Array.iter (fun a -> s := !s + a.self_cycles) t.leaves;
  !s

let root_cycles t =
  let s = ref 0 in
  for i = 0 to t.len - 1 do
    if parent t i < 0 then s := !s + (get t i f_c1 - get t i f_c0)
  done;
  !s

(* Chrome trace-event JSON (the format Perfetto opens): one complete
   ("X") event per stored span, one track per simulated CPU, times in
   microseconds from the first span.  Leaf aggregates go into a
   metadata record. *)
let write_chrome t ~label oc =
  let base = if t.len = 0 then 0 else get t 0 f_t0 in
  let us ns = float_of_int (ns - base) /. 1000.0 in
  output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  let cpus = Hashtbl.create 8 in
  for i = 0 to t.len - 1 do
    Hashtbl.replace cpus (get t i f_cpu) ();
    Printf.fprintf oc
      "{\"name\":%S,\"cat\":\"nkbench\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"quantum\":%d,\"sim_pid\":%d,\"domain\":%d,\"self_ns\":%d,\"cycles\":%d,\"self_cycles\":%d,\"self_words\":%d}},\n"
      (span_name t i) (us (get t i f_t0))
      (float_of_int (dur_ns t i) /. 1000.0)
      (get t i f_cpu) (get t i f_quantum) (get t i f_pid) (get t i f_dom) (self_ns t i)
      (get t i f_c1 - get t i f_c0)
      (self_cycles t i) (self_words t i)
  done;
  Hashtbl.iter
    (fun cpu () ->
      Printf.fprintf oc
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"vcpu %d\"}},\n"
        cpu cpu)
    cpus;
  let leaves =
    Array.to_list t.name_of
    |> List.mapi (fun id n -> (n, t.leaves.(id)))
    |> List.filter (fun (_, a) -> a.count > 0)
    |> List.map (fun (n, a) ->
           Printf.sprintf "%S:{\"count\":%d,\"self_ns\":%d}" n a.count a.self_ns)
  in
  Printf.fprintf oc
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":%S,\"aggregated_leaves\":{%s}}}\n]}\n"
    label (String.concat "," leaves)
