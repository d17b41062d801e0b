let pf = Printf.sprintf

let get path j =
  List.fold_left
    (fun j k ->
      match Json.member k j with
      | Some v -> v
      | None -> failwith ("missing key " ^ String.concat "." path))
    j path

let num path j = Json.number (get path j)
let int k p = int_of_float (num [ k ] p)
let str k p = match get [ k ] p with Json.Str s -> s | v -> Json.to_string v

let points section j =
  match get [ section; "points" ] j with
  | Json.Arr ps -> ps
  | _ -> failwith (section ^ ".points is not a list")

let rec has_key k = function
  | Json.Obj kvs -> List.exists (fun (k', v) -> k' = k || has_key k v) kvs
  | Json.Arr vs -> List.exists (has_key k) vs
  | _ -> false

let fail_if cond msg = if cond then [ msg ] else []

(* The point of [ps] with this config and [key] = [n]. *)
let at key n cfg ps =
  match List.find_opt (fun p -> str "config" p = cfg && int key p = n) ps with
  | Some p -> p
  | None -> failwith (pf "no point for %s/%d" cfg n)

let where p =
  pf "%s/%d" (str "config" p) (int (if has_key "tenants" p then "tenants" else "conns") p)

let smp j =
  List.sort compare (List.map (fun p -> (int "cpus" p, p)) (points "smp_scaling" j))

let server = points "server_scale"
let tenants = points "multitenant"
let configs ps = List.sort_uniq compare (List.map (str "config") ps)
let each xs bad = List.concat_map bad xs
let throughput_at_8 j cfg = num [ "throughput" ] (at "tenants" 8 cfg (tenants j))
let clean p = int "oracle_violations" p = 0 && int "audit_failures" p = 0

(* Every key the CI bench run must produce, somewhere in the file. *)
let required_keys =
  [ "latency_hist"; "gate_spans"; "gate_crossing"; "p50"; "p95"; "p99";
    "smp_scaling"; "syscalls_per_mcycle"; "shootdowns_rx"; "wallclock";
    "shootdown_sent"; "shootdown_filtered"; "shootdown_coalesced";
    "flush_deferred"; "flush_on_reuse"; "fault_soak"; "total_injected";
    "escaped_exceptions"; "survived"; "server_scale"; "p999"; "fd_op_cycles";
    "accepts_steal"; "live_peak"; "host_secs"; "gc"; "minor_words_per_syscall";
    "multitenant"; "xdom_denials"; "teardown_leaks"; "pipe_words";
    "sched_epochs"; "vmcalls" ]

(* Simulated cycles per host second of the soak-class workloads. *)
let wallclocks j =
  let from section label pred =
    List.filter_map
      (fun p ->
        if pred p && has_key "wallclock" p then Some (label p, num [ "wallclock" ] p)
        else None)
      (points section j)
  in
  ("smp_scaling", num [ "smp_scaling"; "wallclock" ] j)
  :: ( "fault_soak",
       Option.fold ~none:0. ~some:Json.number
         (Json.member "wallclock" (get [ "fault_soak" ] j)) )
  :: from "server_scale" (fun p -> pf "server_scale/%s/10k" (str "config" p))
       (fun p -> int "conns" p = 10_000)
  @ from "multitenant" (fun _ -> "multitenant/perspicuos/8")
      (fun p -> str "config" p = "perspicuos" && int "tenants" p = 8)

let gc_ceilings =
  [ ("minor_words_per_syscall", 8.0); ("minor_words_per_syscall_traced", 8.0);
    ("minor_words_per_open_close", 256.0) ]

(* Each gate reads the fresh file [j] (and the baseline [b]) and
   returns one message per broken bound. *)
let table : (string * (Json.t -> Json.t -> string list)) list =
  [
    ("required-keys", fun j _ ->
      each required_keys (fun k -> fail_if (not (has_key k j)) (pf "missing key %S" k)));
    ("survived", fun j _ ->
      fail_if (get [ "fault_soak"; "survived" ] j <> Json.Bool true)
        "fault soak did not survive (escapes/violations/invariant failures)");
    ("smp-monotone", fun j _ ->
      let thr = List.map (fun (_, p) -> num [ "syscalls_per_mcycle" ] p) (smp j) in
      fail_if (thr <> List.sort compare thr)
        (pf "syscalls_per_mcycle must be monotone non-decreasing 1->8 vCPUs, got [%s]"
           (String.concat ", " (List.map (pf "%g") thr))));
    ("smp-ipis", fun j _ ->
      let ipis =
        match List.assoc_opt 8 (smp j) with
        | Some p -> int "ipi_shootdowns" p
        | None -> failwith "no point for 8 vCPUs"
      in
      fail_if (ipis >= 7560) (pf "ipi_shootdowns at 8 vCPUs is %d, expected < 7560" ipis));
    ("smp-coalesced", fun j _ ->
      each (smp j) (fun (cpus, p) ->
          fail_if (int "shootdown_coalesced" p <= 0)
            (pf "shootdown_coalesced is 0 at %d vCPUs" cpus)));
    ("smp-drained", fun j _ ->
      each (smp j) (fun (cpus, p) ->
          let d = int "flush_deferred" p and r = int "flush_on_reuse" p in
          fail_if (d <> r)
            (pf "deferred flushes not drained at %d vCPUs: %d deferred vs %d drained"
               cpus d r)));
    ("oracle-audit", fun j _ ->
      each (smp j) (fun (cpus, p) ->
          fail_if (not (clean p)) (pf "oracle/audit not clean at %d vCPUs" cpus))
      @ each (server j @ tenants j) (fun p ->
            fail_if (not (clean p)) (pf "oracle/audit not clean at %s" (where p))));
    ("server-points", fun j _ ->
      let n = List.length (server j) in
      fail_if (n < 10) (pf "server_scale swept only %d points, expected 10" n));
    ("backlog-drops", fun j _ ->
      each (server j) (fun p ->
          let d = int "backlog_drops" p in
          fail_if (d <> 0)
            (pf "accept backlog dropped %d connections at %s" d (where p))));
    ("accept-balance", fun j _ ->
      each (server j) (fun p ->
          fail_if (int "accepts_local" p + int "accepts_steal" p <> int "accepted" p)
            (pf "accept shard accounting does not balance at %s" (where p))));
    ("fd-op-flat", fun j _ ->
      each (configs (server j)) (fun cfg ->
          let mine = List.filter (fun p -> str "config" p = cfg) (server j) in
          let ops = List.sort_uniq compare (List.map (int "fd_op_cycles") mine) in
          fail_if (List.length ops <> 1)
            (pf "fd open/close cost is not flat 1k->100k for %s: [%s]" cfg
               (String.concat ", " (List.map string_of_int ops)))));
    ("live-100k", fun j _ ->
      each (configs (server j)) (fun cfg ->
          let live = int "live_peak" (at "conns" 100_000 cfg (server j)) in
          fail_if (live < 50_000)
            (pf "%s held only %d live connections at the 100k point" cfg live)));
    ("p99-10k", fun j _ ->
      each (configs (server j)) (fun cfg ->
          let p99 = int "p99" (at "conns" 10_000 cfg (server j)) in
          fail_if (p99 > 5_000_000)
            (pf "%s p99 at 10k conns is %d cycles, bound is 5M" cfg p99)));
    ("multitenant-points", fun j _ ->
      let n = List.length (tenants j) in
      fail_if (n < 9) (pf "multitenant swept only %d points, expected 9" n));
    ("xdom-denials", fun j _ ->
      each (tenants j) (fun p ->
          let d = int "xdom_denials" p in
          fail_if (d <> 0)
            (pf "clean run produced %d cross-domain denials at %s" d (where p))));
    ("teardown-leaks", fun j _ ->
      each (tenants j) (fun p ->
          let l = int "teardown_leaks" p in
          fail_if (l <> 0) (pf "domain teardown leaked %d frames at %s" l (where p))));
    ("nk-vs-hyper", fun j _ ->
      let nk = throughput_at_8 j "perspicuos" and hyper = throughput_at_8 j "hyper" in
      fail_if (nk < 2. *. hyper)
        (pf "8 tenants: nested kernel %.2f req/Mcycle, expected >= 2x hypervisor's %.2f"
           nk hyper));
    ("nk-vs-native", fun j _ ->
      let nk = throughput_at_8 j "perspicuos" and native = throughput_at_8 j "native" in
      fail_if (nk < 0.85 *. native)
        (pf "8 tenants: nested kernel %.2f req/Mcycle, more than 15%% below native's %.2f"
           nk native));
    ("wallclock", fun j b ->
      let fresh = wallclocks j in
      each (wallclocks b) (fun (k, bv) ->
          let fv = Option.value ~default:0. (List.assoc_opt k fresh) in
          fail_if (bv > 0. && fv < 0.75 *. bv)
            (pf "%s: %.0f cycles/s vs baseline %.0f (%.0f%% drop, bound 25%%)" k fv bv
               (100. *. (1. -. (fv /. bv))))));
    ("gc-ceiling", fun j _ ->
      each gc_ceilings (fun (k, lim) ->
          let v = num [ "gc"; k ] j in
          fail_if (v > lim) (pf "%s = %g > %g minor words" k v lim)));
  ]

let gates = List.map fst table

let check ~baseline fresh =
  List.concat_map
    (fun (name, gate) ->
      let msgs = try gate fresh baseline with Failure msg -> [ msg ] in
      List.map (fun m -> (name, m)) msgs)
    table
