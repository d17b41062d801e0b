(* Event-driven serving at scale: the kv server on 8 vCPUs behind one
   shared listener, swept from 1k to 100k live connections per
   configuration.  Every worker runs its own epoll instance over the
   sharded accept queue; the open-loop load generator keeps the
   population connected (most idle, a bounded active set issuing
   keep-alive chains, a few slowloris stragglers), so what the sweep
   shows is exactly what the fd/readiness redesign claims: per-request
   latency and fd-op cost that do not grow with the number of live
   connections, and accept work that stays CPU-local until a worker
   falls behind.  Everything is simulated-cycle arithmetic under a
   seeded executor, so a fixed seed reproduces every number. *)

open Nkhw
open Outer_kernel

type point = {
  config : Config.t;
  conns : int;  (* requested live-connection target *)
  seed : int;
  steps : int;
  live_peak : int;
  accepted : int;
  completed : int;  (* requests answered end-to-end *)
  gets : int;
  sets : int;
  p50 : int;  (* request latency percentiles, simulated cycles *)
  p99 : int;
  p999 : int;
  fd_op_cycles : int;  (* one open/close pair at peak table size *)
  accepts_local : int;
  accepts_steal : int;
  backlog_drops : int;
  epoll_wakeups : int;
  slab_hits : int;
  slab_refills : int;
  cycles : int;
  host_secs : float;
  oracle_violations : int;
  audit_failures : int;
}

let default_seed = 42

let env_seed () =
  match Sys.getenv_opt "NKSIM_SCHED_SEED" with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> default_seed)
  | None -> default_seed

let conn_counts = [ 1_000; 5_000; 10_000; 50_000; 100_000 ]
let configs = [ Config.Native; Config.Perspicuos ]
let cpus = 8

let ok = function
  | Ok v -> v
  | Error e -> failwith ("server_scale: " ^ Ktypes.errno_to_string e)

(* Cycles for one open/close pair, averaged over a small burst, with
   the fd table at whatever size the run left it — the flatness probe
   for the two-level-bitmap allocator. *)
let fd_op_probe k p =
  let m = k.Kernel.machine in
  let rounds = 64 in
  let before = Clock.cycles m.Machine.clock in
  for _ = 1 to rounds do
    let fd = ok (Syscalls.open_ k p "/srv/fdprobe") in
    ignore (ok (Syscalls.close k p fd))
  done;
  (Clock.cycles m.Machine.clock - before) / rounds

let run_one ?(seed = default_seed) ?(et = false) ?(instrument = ignore) ~config
    conns =
  let host0 = Sys.time () in
  let k =
    Os.boot ~batched:true ~trace:true ~cpus ~frames:16384 config
  in
  let m = k.Kernel.machine in
  let trace = m.Machine.trace in
  let violations = ref 0 in
  (match k.Kernel.nk with
  | Some nk ->
      Nested_kernel.Api.Diagnostics.Coherence.enable
        ~on_violation:(fun vs -> violations := !violations + List.length vs)
        nk
  | None -> ());
  instrument k;
  let sched = Sched.create k in
  let p0 = Kernel.current_proc k in
  let lfd0 = ok (Syscalls.listen k p0 ~backlog:16384) in
  let ldesc = Option.get (Proc.fd_handle p0 lfd0) in
  (* One worker per CPU behind the shared listener: the boot process
     plus seven forked children that inherit the listening
     description, each pinned to its own CPU's run queue. *)
  let workers = Hashtbl.create cpus in
  let srv0 = Kvserver.create ~lfd:lfd0 ~et ~accept_burst:256 k p0 in
  Hashtbl.replace workers p0.Proc.pid srv0;
  for cpu = 1 to cpus - 1 do
    let pid = ok (Syscalls.fork k p0) in
    let p = Option.get (Kernel.proc k pid) in
    Fdesc.get ldesc;
    let lfd = ok (Proc.add_fd p ldesc) in
    Hashtbl.replace workers pid (Kvserver.create ~lfd ~et ~accept_burst:256 k p);
    Sched.add_on sched pid cpu
  done;
  let lst = Evloop.listener (Kvserver.ev srv0) in
  let lg =
    Loadgen.create m lst
      {
        Loadgen.seed;
        conns;
        active = min 1024 (max 32 (conns / 100));
        slow = max 2 (min 64 (conns / 1600));
        slow_chunk = Kvserver.req_bytes / 8;
        ramp_per_tick = max 16 (conns / 500);
        keepalive = 8;
        think_max = 16;
        gen = Kvserver.gen;
      }
  in
  let counter ev = Nktrace.counter_value trace ev in
  let local0 = counter Nktrace.Accept_local in
  let steal0 = counter Nktrace.Accept_steal in
  let drop0 = counter Nktrace.Sock_backlog_drop in
  let wake0 = counter Nktrace.Epoll_wakeup in
  let hit0 = counter Nktrace.Slab_cpu_hit in
  let refill0 = counter Nktrace.Slab_cpu_refill in
  let cyc0 = Clock.cycles m.Machine.clock in
  let steps = 800 + (conns / 100) in
  let taken =
    Sched.run_smp sched
      ~policy:(Nkhw.Smp.Executor.Seeded seed)
      ~steps
      (fun ~cpu:_ pid ->
        (* The outside world advances once per quantum... *)
        Loadgen.tick lg;
        (* ...and the dispatched worker runs one turn of its loop. *)
        (match Hashtbl.find_opt workers pid with
        | Some srv -> ignore (Evloop.step (Kvserver.ev srv) ~maxev:128)
        | None -> ());
        true)
  in
  (* Probe fd-op cost on the fattest fd table before teardown. *)
  let fat =
    Hashtbl.fold
      (fun pid _ best ->
        match (Kernel.proc k pid, best) with
        | Some p, Some b ->
            if Proc.fd_count p > Proc.fd_count b then Some p else Some b
        | Some p, None -> Some p
        | None, best -> best)
      workers None
  in
  let fd_op_cycles = fd_op_probe k (Option.get fat) in
  (match k.Kernel.nk with
  | Some nk ->
      Nested_kernel.Api.nk_flush_all_deferred nk;
      violations :=
        !violations
        + List.length
            (Nested_kernel.Api.Diagnostics.Coherence.snapshot
               ~op:"server-scale-final" nk)
  | None -> ());
  let audit_failures =
    match k.Kernel.nk with
    | Some nk -> List.length (Nested_kernel.Api.audit nk)
    | None -> 0
  in
  let p50, p99, p999 =
    match Nktrace.histogram trace Loadgen.hist_name with
    | Some h -> (h.Nktrace.p50, h.Nktrace.p99, h.Nktrace.p999)
    | None -> (0, 0, 0)
  in
  let gets, sets =
    Hashtbl.fold
      (fun _ srv (g, s) -> (g + Kvserver.gets srv, s + Kvserver.sets srv))
      workers (0, 0)
  in
  let accepted =
    Hashtbl.fold
      (fun _ srv acc -> acc + Evloop.accepted (Kvserver.ev srv))
      workers 0
  in
  {
    config;
    conns;
    seed;
    steps = taken;
    live_peak = Loadgen.live_peak lg;
    accepted;
    completed = Loadgen.completed lg;
    gets;
    sets;
    p50;
    p99;
    p999;
    fd_op_cycles;
    accepts_local = counter Nktrace.Accept_local - local0;
    accepts_steal = counter Nktrace.Accept_steal - steal0;
    backlog_drops = counter Nktrace.Sock_backlog_drop - drop0;
    epoll_wakeups = counter Nktrace.Epoll_wakeup - wake0;
    slab_hits = counter Nktrace.Slab_cpu_hit - hit0;
    slab_refills = counter Nktrace.Slab_cpu_refill - refill0;
    cycles = Clock.cycles m.Machine.clock - cyc0;
    host_secs = Sys.time () -. host0;
    oracle_violations = !violations;
    audit_failures;
  }

let run ?seed ?et ?(conn_counts = conn_counts) () =
  let seed = match seed with Some s -> s | None -> env_seed () in
  List.concat_map
    (fun config ->
      List.map (fun conns -> run_one ~seed ?et ~config conns) conn_counts)
    configs

let to_table points =
  {
    Stats.title =
      Printf.sprintf
        "Server scaling: kv server, %d vCPUs, 1k..100k live connections \
         (sched seed %d)"
        cpus
        (match points with p :: _ -> p.seed | [] -> default_seed);
    columns =
      [
        "config"; "conns"; "live peak"; "reqs"; "p50"; "p99"; "p999";
        "fd-op cyc"; "acc local"; "acc steal"; "drops"; "wakeups";
        "slab hit%"; "oracle"; "audit";
      ];
    rows =
      List.map
        (fun p ->
          [
            Config.name p.config;
            string_of_int p.conns;
            string_of_int p.live_peak;
            string_of_int p.completed;
            string_of_int p.p50;
            string_of_int p.p99;
            string_of_int p.p999;
            string_of_int p.fd_op_cycles;
            string_of_int p.accepts_local;
            string_of_int p.accepts_steal;
            string_of_int p.backlog_drops;
            string_of_int p.epoll_wakeups;
            (let total = p.slab_hits + p.slab_refills in
             if total = 0 then "-"
             else
               Printf.sprintf "%.1f"
                 (100.0 *. float_of_int p.slab_hits /. float_of_int total));
            string_of_int p.oracle_violations;
            string_of_int p.audit_failures;
          ])
        points;
    notes =
      [
        "latencies in simulated cycles, first request byte to last response \
         byte, slowloris stragglers included";
        "fd-op cyc: one open/close pair probed at peak fd-table size — flat \
         across the sweep is the two-level-bitmap claim";
        "most connections idle; the active set is bounded, so p99 reflects \
         readiness-loop cost, not population size";
      ];
  }
