(* The CI bounds checker against the committed BENCH_nksim.json: the
   file passes every gate against itself, and breaking any one bound
   in a copy fails the gate that owns it. *)

open Nk_workloads

let committed = lazy (Json.of_file "../BENCH_nksim.json")

(* --- editing a copy of the JSON tree ------------------------------ *)

let set k v = function
  | Json.Obj kvs ->
      Json.Obj (List.map (fun (k', v') -> if k' = k then (k, v) else (k', v')) kvs)
  | j -> j

let rec edit path f j =
  match path with
  | [] -> f j
  | k :: rest -> (
      match Json.member k j with Some v -> set k (edit rest f v) j | None -> j)

let points section f =
  edit [ section; "points" ] (function Json.Arr ps -> Json.Arr (f ps) | j -> j)

(* Apply [f] to the points of [section] whose keys match [sel]. *)
let at section sel f =
  points section
    (List.map (fun p ->
         if List.for_all (fun (k, v) -> Json.member k p = Some v) sel then f p
         else p))

let n = Json.int
let cfg c = ("config", Json.Str c)
let num k p = Json.number (Option.get (Json.member k p))
let smp8 = at "smp_scaling" [ ("cpus", n 8) ]

let throughput_at c j =
  List.find_map
    (fun p ->
      if Json.member "config" p = Some (Json.Str c)
         && Json.member "tenants" p = Some (n 8)
      then Some (num "throughput" p)
      else None)
    (match Json.member "points" (Option.get (Json.member "multitenant" j)) with
    | Some (Json.Arr ps) -> ps
    | _ -> [])
  |> Option.get

(* One edit per gate, each breaking exactly that gate's bound. *)
let breaks : (string * (Json.t -> Json.t)) list =
  [
    ( "required-keys",
      at "multitenant" [] (function
        | Json.Obj kvs -> Json.Obj (List.remove_assoc "vmcalls" kvs)
        | p -> p) );
    ("survived", edit [ "fault_soak"; "survived" ] (fun _ -> Json.Bool false));
    ("smp-monotone", smp8 (set "syscalls_per_mcycle" (n 1)));
    ("smp-ipis", smp8 (set "ipi_shootdowns" (n 7560)));
    ("smp-coalesced", at "smp_scaling" [ ("cpus", n 1) ] (set "shootdown_coalesced" (n 0)));
    ("smp-drained", at "smp_scaling" [ ("cpus", n 2) ] (set "flush_on_reuse" (n (-1))));
    ( "oracle-audit",
      at "server_scale" [ cfg "perspicuos"; ("conns", n 1000) ]
        (set "oracle_violations" (n 1)) );
    ("server-points", points "server_scale" List.tl);
    ("backlog-drops", at "server_scale" [ ("conns", n 5000) ] (set "backlog_drops" (n 1)));
    ("accept-balance", at "server_scale" [ cfg "native" ] (set "accepted" (n (-1))));
    ( "fd-op-flat",
      at "server_scale" [ cfg "perspicuos"; ("conns", n 50000) ] (set "fd_op_cycles" (n 1)) );
    ( "live-100k",
      at "server_scale" [ cfg "native"; ("conns", n 100000) ] (set "live_peak" (n 49999)) );
    ( "p99-10k",
      at "server_scale" [ cfg "perspicuos"; ("conns", n 10000) ] (set "p99" (n 5000001)) );
    ("multitenant-points", points "multitenant" List.tl);
    ("xdom-denials", at "multitenant" [ ("tenants", n 16) ] (set "xdom_denials" (n 1)));
    ("teardown-leaks", at "multitenant" [ cfg "perspicuos" ] (set "teardown_leaks" (n 1)));
    ( "nk-vs-hyper",
      fun j ->
        at "multitenant" [ cfg "hyper"; ("tenants", n 8) ]
          (set "throughput" (Json.float 3 (throughput_at "perspicuos" j)))
          j );
    ( "nk-vs-native",
      fun j ->
        at "multitenant" [ cfg "native"; ("tenants", n 8) ]
          (set "throughput" (Json.float 3 (throughput_at "perspicuos" j /. 0.84)))
          j );
    ("wallclock", edit [ "smp_scaling"; "wallclock" ] (fun _ -> n 1));
    ("gc-ceiling", edit [ "gc"; "minor_words_per_syscall" ] (fun _ -> Json.Num "8.01"));
    ( "gc-ceiling",
      edit [ "gc"; "minor_words_per_syscall_traced" ] (fun _ -> Json.Num "8.01") );
    ( "gc-ceiling",
      edit [ "gc"; "minor_words_per_open_close" ] (fun _ -> Json.Num "256.01") );
  ]

let test_committed_passes () =
  let j = Lazy.force committed in
  Alcotest.(check (list (pair string string)))
    "no gate fails" [] (Bench_check.check ~baseline:j j)

let test_every_gate_broken () =
  List.iter
    (fun g ->
      Alcotest.(check bool) (g ^ " has a breaking edit") true (List.mem_assoc g breaks))
    Bench_check.gates

let test_break gate broken () =
  let j = Lazy.force committed in
  let failures = Bench_check.check ~baseline:j (broken j) in
  Alcotest.(check bool)
    (Printf.sprintf "%s fails (got: %s)" gate
       (String.concat "; " (List.map fst failures)))
    true
    (List.mem_assoc gate failures)

let test_json_round_trip () =
  let s = Json.to_string (Lazy.force committed) in
  Alcotest.(check string) "print . parse is the identity" s
    (Json.to_string (Json.of_string s))

let suite =
  [
    Alcotest.test_case "committed file passes every gate" `Quick test_committed_passes;
    Alcotest.test_case "every gate has a breaking edit" `Quick test_every_gate_broken;
    Alcotest.test_case "json round trip" `Quick test_json_round_trip;
  ]
  @ List.mapi
      (fun i (gate, broken) ->
        Alcotest.test_case (Printf.sprintf "breaking %s (%d)" gate i) `Quick
          (test_break gate broken))
      breaks
