open Outer_kernel

let default_seed = 42

let seed () =
  match Option.bind (Sys.getenv_opt "NKSIM_SCHED_SEED") int_of_string_opt with
  | Some n -> n
  | None -> default_seed

type t = {
  kernel : Kernel.t;
  host0 : float;
  mutable violations : int;
  mutable cycles0 : int;
  mutable counters0 : (string * int) list;
}

let trace t = t.kernel.Kernel.machine.Nkhw.Machine.trace
let cycles t = Nkhw.Clock.cycles t.kernel.Kernel.machine.Nkhw.Machine.clock

let start ?(instrument = ignore) boot =
  let host0 = Sys.time () in
  let kernel = boot () in
  let t = { kernel; host0; violations = 0; cycles0 = 0; counters0 = [] } in
  (match kernel.Kernel.nk with
  | Some nk ->
      (* Counting, not raising: a violation is reported in the point,
         and the run carries on to its final audit. *)
      Nested_kernel.Api.Diagnostics.Coherence.enable
        ~on_violation:(fun vs -> t.violations <- t.violations + List.length vs)
        nk
  | None -> ());
  instrument kernel;
  (t, kernel)

let open_window t =
  t.cycles0 <- cycles t;
  t.counters0 <- (Nktrace.snapshot (trace t)).Nktrace.counters

let delta t c =
  Nktrace.counter_value (trace t) c
  - Option.value ~default:0
      (List.assoc_opt (Nktrace.counter_name c) t.counters0)

let window_cycles t = cycles t - t.cycles0

let latency t =
  match Nktrace.histogram (trace t) Loadgen.hist_name with
  | Some h -> (h.Nktrace.p50, h.Nktrace.p99, h.Nktrace.p999)
  | None -> (0, 0, 0)

let finish t ~op =
  match t.kernel.Kernel.nk with
  | None -> (t.violations, 0)
  | Some nk ->
      (* Whatever is still queued was deferred but never reached a
         reuse barrier; drain it so the books balance (deferred =
         drained) and the final audit judges a settled machine. *)
      Nested_kernel.Api.nk_flush_all_deferred nk;
      let final = Nested_kernel.Api.Diagnostics.Coherence.snapshot ~op nk in
      t.violations <- t.violations + List.length final;
      (t.violations, List.length (Nested_kernel.Api.audit nk))

let host_secs t = Sys.time () -. t.host0

let timed f =
  let host0 = Sys.time () in
  let v = f () in
  (v, Sys.time () -. host0)

let wallclock ~cycles ~host_secs =
  if host_secs > 0. then float_of_int cycles /. host_secs else 0.

type 'a field = {
  json : (string * ('a -> Json.t)) option;  (* key and value *)
  column : string option;
  cell : 'a -> string;
  host : bool;  (* varies with the host: kept out of the report *)
}

(* Strings unquoted: how a value reads in a table cell or report line. *)
let plain = function Json.Str s -> s | v -> Json.to_string v

let field ?col ?cell key json =
  let cell = Option.value cell ~default:(fun p -> plain (json p)) in
  { json = Some (key, json); column = col; cell; host = false }

let int ?col key get = field ?col key (fun p -> Json.int (get p))

let col name cell = { json = None; column = Some name; cell; host = false }

let wallclock_field ~cycles ~host_secs =
  let f =
    field "wallclock" (fun p ->
        Json.float 0 (wallclock ~cycles:(cycles p) ~host_secs:(host_secs p)))
  in
  { f with host = true }

let members fields p =
  List.filter_map (fun f -> Option.map (fun (k, json) -> (k, json p)) f.json) fields

let table ~title ~notes fields points =
  let shown = List.filter (fun f -> f.column <> None) fields in
  {
    Stats.title;
    columns = List.filter_map (fun f -> f.column) shown;
    rows = List.map (fun p -> List.map (fun f -> f.cell p) shown) points;
    notes;
  }

let report fields p =
  List.iter
    (fun f ->
      match f.json with
      | Some (k, json) when not f.host ->
          Printf.printf "  %-22s: %s\n" k (plain (json p))
      | _ -> ())
    fields
