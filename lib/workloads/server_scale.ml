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

let configs = [ Config.Native; Config.Perspicuos ]
let cpus = 8

let ok r = Ktypes.ok_or_fail "server_scale" r

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

let run_one ?(seed = Harness.default_seed) ?(et = false) ?instrument ~config
    conns =
  let h, k =
    Harness.start ?instrument (fun () ->
        Os.boot ~batched:true ~trace:true ~cpus ~frames:16384 config)
  in
  let m = k.Kernel.machine in
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
  let lg =
    Kvserver.load m srv0 ~seed ~conns
      ~active:(min 1024 (max 32 (conns / 100)))
      ~slow:(max 2 (min 64 (conns / 1600)))
      ~ramp_per_tick:(max 16 (conns / 500))
  in
  Harness.open_window h;
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
  let oracle_violations, audit_failures =
    Harness.finish h ~op:"server-scale-final"
  in
  let p50, p99, p999 = Harness.latency h in
  let gets, sets, accepted =
    Hashtbl.fold
      (fun _ srv (g, s, a) ->
        ( g + Kvserver.gets srv,
          s + Kvserver.sets srv,
          a + Evloop.accepted (Kvserver.ev srv) ))
      workers (0, 0, 0)
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
    accepts_local = Harness.delta h Nktrace.Accept_local;
    accepts_steal = Harness.delta h Nktrace.Accept_steal;
    backlog_drops = Harness.delta h Nktrace.Sock_backlog_drop;
    epoll_wakeups = Harness.delta h Nktrace.Epoll_wakeup;
    slab_hits = Harness.delta h Nktrace.Slab_cpu_hit;
    slab_refills = Harness.delta h Nktrace.Slab_cpu_refill;
    cycles = Harness.window_cycles h;
    host_secs = Harness.host_secs h;
    oracle_violations;
    audit_failures;
  }

let run () =
  let seed = Harness.seed () in
  List.concat_map
    (fun config ->
      List.map (run_one ~seed ~config) [ 1_000; 5_000; 10_000; 50_000; 100_000 ])
    configs

let fields =
  Harness.
    [
      field "config" ~col:"config" (fun p -> Json.Str (Config.name p.config));
      int "conns" ~col:"conns" (fun p -> p.conns);
      int "steps" (fun p -> p.steps);
      int "live_peak" ~col:"live peak" (fun p -> p.live_peak);
      int "accepted" (fun p -> p.accepted);
      int "completed" ~col:"reqs" (fun p -> p.completed);
      int "gets" (fun p -> p.gets);
      int "sets" (fun p -> p.sets);
      int "p50" ~col:"p50" (fun p -> p.p50);
      int "p99" ~col:"p99" (fun p -> p.p99);
      int "p999" ~col:"p999" (fun p -> p.p999);
      int "fd_op_cycles" ~col:"fd-op cyc" (fun p -> p.fd_op_cycles);
      int "accepts_local" ~col:"acc local" (fun p -> p.accepts_local);
      int "accepts_steal" ~col:"acc steal" (fun p -> p.accepts_steal);
      int "backlog_drops" ~col:"drops" (fun p -> p.backlog_drops);
      int "epoll_wakeups" ~col:"wakeups" (fun p -> p.epoll_wakeups);
      int "slab_hits" (fun p -> p.slab_hits);
      int "slab_refills" (fun p -> p.slab_refills);
      col "slab hit%" (fun p ->
          let total = p.slab_hits + p.slab_refills in
          if total = 0 then "-"
          else
            Printf.sprintf "%.1f"
              (100.0 *. float_of_int p.slab_hits /. float_of_int total));
      int "cycles" (fun p -> p.cycles);
      wallclock_field ~cycles:(fun p -> p.cycles) ~host_secs:(fun p -> p.host_secs);
      int "oracle_violations" ~col:"oracle" (fun p -> p.oracle_violations);
      int "audit_failures" ~col:"audit" (fun p -> p.audit_failures);
    ]

let to_table points =
  Harness.table
    ~title:
      (Printf.sprintf
         "Server scaling: kv server, %d vCPUs, 1k..100k live connections \
          (sched seed %d)"
         cpus
         (match points with p :: _ -> p.seed | [] -> Harness.default_seed))
    ~notes:
      [
        "latencies in simulated cycles, first request byte to last response \
         byte, slowloris stragglers included";
        "fd-op cyc: one open/close pair probed at peak fd-table size — flat \
         across the sweep is the two-level-bitmap claim";
        "most connections idle; the active set is bounded, so p99 reflects \
         readiness-loop cost, not population size";
      ]
    fields points
