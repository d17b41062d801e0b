(* nkbench: the repository benchmark.

   Three workloads drive the simulator's layers through their public
   functions — boot, the kv server on the readiness loop under the open
   loop load generator, the SMP executor, mmap/munmap, the nested
   kernel's mediated pipes, and the exhaustive model checker — with
   every checker on exactly as the bench sweeps run them.  One run
   repeats a fixed, seeded episode (set-up, then a measured window)
   until its time is used; host numbers are medians over the episodes
   (end-to-end ones scaled by a reference loop, see below), simulated
   numbers must repeat exactly across them.

     nkbench --workload serve-c10k|tenants-8|check-core --seed N
             --seconds S --trace 0|1

   The last stdout line is one JSON object: the end-to-end metrics
   with [--trace 0], the per-layer metrics with [--trace 1].  The lines
   above it print every metric with its unit, every output check, and
   the steadiness profile of the window.  METRICS.md defines each
   number. *)

open Nkhw
open Outer_kernel
open Nk_workloads
open Nkbench_core
module Api = Nested_kernel.Api

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let minor_words () = int_of_float (Gc.minor_words ())
let secs ns = float_of_int ns /. 1e9

(* ---- the traced run's probe ------------------------------------------ *)

(* With [on = false] every probe site is one boolean test, so the
   untraced run measures the program with nothing in between. *)
type probe = {
  on : bool;
  sp : Spans.t;
  clock : Clock.t;
  quantum : int;
  sched : int;
  tick : int;
  step : int;
  mmap : int;
  munmap : int;
  pipe_send : int;
  pipe_recv : int;
  va_check : int;
  audit_ids : (string, int) Hashtbl.t;  (* oracle op -> span name id *)
}

let probe ~on clock =
  let sp = Spans.create ~cap:(if on then 1 lsl 16 else 1) () in
  let id = Spans.intern sp in
  {
    on;
    sp;
    clock;
    quantum = id "quantum";
    sched = id "kernel.sched";
    tick = id "loadgen.tick";
    step = id "evloop.step";
    mmap = id "kernel.mmap";
    munmap = id "kernel.munmap";
    pipe_send = id "nk.pipe_send";
    pipe_recv = id "nk.pipe_recv";
    va_check = id "oracle.va";
    audit_ids = Hashtbl.create 8;
  }

let enter p id =
  if p.on then
    Spans.open_ p.sp id ~ns:(now_ns ()) ~words:(minor_words ())
      ~cycles:(Clock.cycles p.clock)

let leave p =
  if p.on then
    Spans.close p.sp ~ns:(now_ns ()) ~words:(minor_words ())
      ~cycles:(Clock.cycles p.clock)

(* Time the coherence oracle through the machine's public hook: full
   audits become spans named by the triggering op, per-access VA checks
   are aggregated.  Returns the function that restores the bare hook. *)
let wrap_oracle p (m : Machine.t) =
  match m.Machine.coherence_hook with
  | Some f when p.on ->
      let orig = m.Machine.coherence_hook in
      m.Machine.coherence_hook <-
        Some
          (fun ~op ~va ->
            let ns0 = now_ns () and w0 = minor_words () in
            let c0 = Clock.cycles m.Machine.clock in
            if va >= 0 then begin
              f ~op ~va;
              Spans.leaf p.sp p.va_check ~ns:(now_ns () - ns0)
                ~words:(minor_words () - w0)
                ~cycles:(Clock.cycles m.Machine.clock - c0)
            end
            else begin
              let id =
                match Hashtbl.find_opt p.audit_ids op with
                | Some id -> id
                | None ->
                    let id = Spans.intern p.sp ("oracle.audit." ^ op) in
                    Hashtbl.replace p.audit_ids op id;
                    id
              in
              Spans.open_ p.sp id ~ns:ns0 ~words:w0 ~cycles:c0;
              f ~op ~va;
              Spans.close p.sp ~ns:(now_ns ()) ~words:(minor_words ())
                ~cycles:(Clock.cycles m.Machine.clock)
            end);
      fun () -> m.Machine.coherence_hook <- orig
  | _ -> fun () -> ()

(* ---- one episode's outcome ------------------------------------------- *)

type check = { c_name : string; c_ok : bool; c_detail : string }

let check name ok detail = { c_name = name; c_ok = ok; c_detail = detail }

type episode = {
  setup_ns : int;
  window_ns : int;
  quanta : int array;  (* host ns per quantum, in window order *)
  ops : int;  (* requests completed, or transitions checked *)
  attempted : int;  (* connects tried, or transitions checked *)
  refused : int;  (* connects refused, or counterexample transitions *)
  sim : (string * string) list;  (* simulated results: must repeat per seed *)
  checks : check list;
  layer : (string * float) list;  (* per-layer metrics, units in [layer_metrics] *)
  trace : Spans.t option;
}

(* ---- the serving workloads ------------------------------------------- *)

let ok what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Ktypes.errno_to_string e)

let cpus = 8

type world = {
  k : Kernel.t;
  m : Machine.t;
  nk : Api.t;
  sched : Sched.t;
  workers : (int, Kvserver.t) Hashtbl.t;
  loads : (int, Loadgen.t) Hashtbl.t;  (* tenants-8: each tenant's own load *)
  shared_load : Loadgen.t option;  (* serve-c10k: one population for all *)
  conns : int;  (* live-connection target per load generator *)
  active : int;  (* clients among them that churn keep-alive chains *)
  maxev : int;
  tenants : int;  (* 0 for the single-domain server *)
  domains : int array;
  dom_index : (int, int) Hashtbl.t;
  violations : int ref;
  mutable pipe_words : int;
}

let boot ~frames ~domains =
  let k =
    Os.boot ~batched:true ~trace:true ~cpus ~frames ~domains Config.Perspicuos
  in
  let nk = Option.get k.Kernel.nk in
  let violations = ref 0 in
  Api.Diagnostics.Coherence.enable
    ~on_violation:(fun vs -> violations := !violations + List.length vs)
    nk;
  (k, nk, violations)

(* serve-c10k: eight kv workers (the boot process plus seven forks, one
   per CPU) behind one shared listener, a 10k-connection population —
   the set-up [Server_scale.run_one] performs for its 10k cell. *)
let setup_c10k ~seed =
  let conns = 10_000 in
  let active = conns / 100 in
  let k, nk, violations = boot ~frames:16384 ~domains:0 in
  let sched = Sched.create k in
  let p0 = Kernel.current_proc k in
  let lfd0 = ok "listen" (Syscalls.listen k p0 ~backlog:16384) in
  let ldesc = Option.get (Proc.fd_handle p0 lfd0) in
  let workers = Hashtbl.create cpus in
  let srv0 = Kvserver.create ~lfd:lfd0 ~accept_burst:256 k p0 in
  Hashtbl.replace workers p0.Proc.pid srv0;
  for cpu = 1 to cpus - 1 do
    let pid = ok "fork" (Syscalls.fork k p0) in
    let p = Option.get (Kernel.proc k pid) in
    Fdesc.get ldesc;
    let lfd = ok "add_fd" (Proc.add_fd p ldesc) in
    Hashtbl.replace workers pid (Kvserver.create ~lfd ~accept_burst:256 k p);
    Sched.add_on sched pid cpu
  done;
  let lg =
    Loadgen.create k.Kernel.machine
      (Evloop.listener (Kvserver.ev srv0))
      {
        Loadgen.seed;
        conns;
        active;
        slow = conns / 1600;
        slow_chunk = Kvserver.req_bytes / 8;
        ramp_per_tick = conns / 500;
        keepalive = 8;
        think_max = 16;
        gen = Kvserver.gen;
      }
  in
  {
    k;
    m = k.Kernel.machine;
    nk;
    sched;
    workers;
    loads = Hashtbl.create 1;
    shared_load = Some lg;
    conns;
    active;
    maxev = 128;
    tenants = 0;
    domains = [||];
    dom_index = Hashtbl.create 1;
    violations;
    pipe_words = 0;
  }

(* tenants-8: eight tenant domains, each a forked kv server with its own
   listener and 400-connection load, neighbour pipes between them and
   per-domain run-queue credits — [Multitenant.run_one]'s set-up for
   8 tenants under PerspicuOS. *)
let setup_tenants ~seed =
  let tenants = 8 and conns = 400 in
  let active = conns / 8 in
  let k, nk, violations = boot ~frames:32768 ~domains:tenants in
  let sched = Sched.create k in
  Sched.set_domain_credits sched ~quantum:4;
  let p0 = Kernel.current_proc k in
  let workers = Hashtbl.create tenants and loads = Hashtbl.create tenants in
  let domains = Array.make tenants 0 and dom_index = Hashtbl.create tenants in
  for i = 0 to tenants - 1 do
    let domain = ok "create_domain" (Kernel.create_domain k) in
    domains.(i) <- domain;
    Hashtbl.replace dom_index domain i;
    let pid = ok "fork" (Syscalls.fork k p0) in
    let p = Option.get (Kernel.proc k pid) in
    ok "adopt_domain" (Kernel.adopt_domain k p ~domain);
    let srv = Kvserver.create ~backlog:4096 ~accept_burst:64 k p in
    Hashtbl.replace workers pid srv;
    Hashtbl.replace loads pid
      (Loadgen.create k.Kernel.machine
         (Evloop.listener (Kvserver.ev srv))
         {
           Loadgen.seed = seed + (31 * i);
           conns;
           active;
           slow = conns / 200;
           slow_chunk = Kvserver.req_bytes / 8;
           ramp_per_tick = conns / 50;
           keepalive = 8;
           think_max = 16;
           gen = Kvserver.gen;
         });
    Sched.add_on sched pid (i mod cpus)
  done;
  for i = 0 to tenants - 1 do
    match
      Api.nk_pipe_open nk ~src:domains.(i) ~dst:domains.((i + 1) mod tenants) ()
    with
    | Ok () -> ()
    | Error e -> failwith ("pipe_open: " ^ Nested_kernel.Nk_error.to_string e)
  done;
  {
    k;
    m = k.Kernel.machine;
    nk;
    sched;
    workers;
    loads;
    shared_load = None;
    conns;
    active;
    maxev = 64;
    tenants;
    domains;
    dom_index;
    violations;
    pipe_words = 0;
  }

let all_loads w =
  match w.shared_load with
  | Some lg -> [ lg ]
  | None -> Hashtbl.fold (fun _ lg acc -> lg :: acc) w.loads []

let scratch_pages = Multitenant.scratch_pages
let scratch_iters = Multitenant.scratch_iters

(* Per-window loop state the quantum callback updates in place. *)
type loop = {
  samples : int array;
  mutable n : int;
  mutable prev_ns : int;
  mutable prev_words : int;
  mutable prev_cycles : int;
  mutable steps : int;
  mutable events : int;
  mutable empty : int;
  mutable root : int;  (* span index of the open quantum root *)
}

(* One executor quantum: the outside world advances, the dispatched
   worker runs one turn of its readiness loop, and under tenants-8 it
   also churns its mmap scratch and sends its pipe heartbeat — the
   loops [Server_scale] and [Multitenant] run, with a probe around each
   layer call.

   Traced, a quantum's root span opens where the previous one closed,
   with the executor's own work (activate and its oracle audit, IPI
   drain, rotate, address-space switch) as its first child; the
   callback learns the CPU and process only on entry and re-tags the
   spans opened since. *)
let open_quantum p l =
  Spans.set_tags p.sp ~quantum:l.n ~cpu:0 ~pid:0 ~dom:0;
  l.root <- Spans.length p.sp;
  Spans.open_ p.sp p.quantum ~ns:l.prev_ns ~words:l.prev_words ~cycles:l.prev_cycles;
  Spans.open_ p.sp p.sched ~ns:l.prev_ns ~words:l.prev_words ~cycles:l.prev_cycles

let close_quantum p l =
  l.prev_words <- minor_words ();
  l.prev_cycles <- Clock.cycles p.clock;
  Spans.close p.sp ~ns:l.prev_ns ~words:l.prev_words ~cycles:l.prev_cycles

let quantum w p l ~cpu pid =
  if p.on then begin
    leave p;
    let dom =
      match Kernel.proc w.k pid with Some pr -> Kernel.proc_domain pr | None -> 0
    in
    Spans.set_tags p.sp ~quantum:l.n ~cpu ~pid ~dom;
    Spans.retag_from p.sp l.root
  end;
  (match w.shared_load with
  | Some lg ->
      enter p p.tick;
      Loadgen.tick lg;
      leave p
  | None -> ());
  (match Hashtbl.find_opt w.workers pid with
  | Some srv -> (
      (match Hashtbl.find_opt w.loads pid with
      | Some lg ->
          enter p p.tick;
          Loadgen.tick lg;
          leave p
      | None -> ());
      enter p p.step;
      let ev = Evloop.step (Kvserver.ev srv) ~maxev:w.maxev in
      leave p;
      l.steps <- l.steps + 1;
      l.events <- l.events + ev;
      if ev = 0 then l.empty <- l.empty + 1;
      if w.tenants > 0 then
        match Kernel.proc w.k pid with
        | None -> ()
        | Some pr ->
            for _ = 1 to scratch_iters do
              enter p p.mmap;
              let r =
                Syscalls.mmap w.k pr
                  ~len:(scratch_pages * Addr.page_size)
                  ~rw:true ~populate:true ()
              in
              leave p;
              match r with
              | Ok va ->
                  enter p p.munmap;
                  ignore (Syscalls.munmap w.k pr va);
                  leave p
              | Error _ -> ()
            done;
            let i =
              match Hashtbl.find_opt w.dom_index (Kernel.proc_domain pr) with
              | Some i -> i
              | None -> 0
            in
            let dst = w.domains.((i + 1) mod w.tenants)
            and src = w.domains.((i + w.tenants - 1) mod w.tenants) in
            enter p p.pipe_send;
            (match Api.nk_pipe_send w.nk ~dst w.pipe_words with
            | Ok () -> w.pipe_words <- w.pipe_words + 1
            | Error _ -> ());
            leave p;
            enter p p.pipe_recv;
            ignore (Api.nk_pipe_recv w.nk ~src);
            leave p)
  | None -> ());
  let t1 = now_ns () in
  if l.n < Array.length l.samples then l.samples.(l.n) <- t1 - l.prev_ns;
  l.n <- l.n + 1;
  l.prev_ns <- t1;
  if p.on then begin
    close_quantum p l;
    open_quantum p l
  end;
  true

let run_quanta w p ~seed ~steps =
  let l =
    {
      samples = Array.make steps 0;
      n = 0;
      prev_ns = now_ns ();
      prev_words = minor_words ();
      prev_cycles = Clock.cycles w.m.Machine.clock;
      steps = 0;
      events = 0;
      empty = 0;
      root = 0;
    }
  in
  if p.on then open_quantum p l;
  ignore
    (Sched.run_smp w.sched ~policy:(Smp.Executor.Seeded seed) ~steps
       (quantum w p l));
  if p.on then begin
    (* The executor's work after the last quantum closes the window. *)
    leave p;
    l.prev_ns <- now_ns ();
    close_quantum p l
  end;
  l

let tlb_live (m : Machine.t) =
  Array.fold_left (fun acc t -> acc + Tlb.size t) (Tlb.size m.Machine.tlb) m.Machine.peer_tlbs

(* Counters read as window deltas. *)
let window_counters =
  Nktrace.
    [
      ("syscalls", Syscall);
      ("ctx_switches", Context_switch);
      ("migrations", Cpu_migration);
      ("steals", Sched_steal);
      ("epoll_wakeups", Epoll_wakeup);
      ("accept_local", Accept_local);
      ("accept_steal", Accept_steal);
      ("slab_hit", Slab_cpu_hit);
      ("slab_refill", Slab_cpu_refill);
      ("vm_faults", Vm_fault);
      ("backlog_drops", Sock_backlog_drop);
      ("conns_opened", Sock_conn_open);
      ("gate_crossings", Nk_enter);
      ("pte_writes", Pte_write);
      ("pte_batches", Pte_write_batch);
      ("declare_ptp", Declare_ptp);
      ("remove_ptp", Remove_ptp);
      ("tlb_hit", Tlb_hit);
      ("tlb_miss", Tlb_miss);
      ("flush_full", Tlb_flush_full);
      ("flush_asid", Tlb_flush_asid);
      ("flush_page", Tlb_flush_page);
      ("flush_span", Tlb_flush_span);
      ("shootdowns_sent", Shootdown_sent);
      ("shootdowns_filtered", Shootdown_filtered);
      ("shootdowns_coalesced", Shootdown_coalesced);
      ("flush_deferred", Flush_deferred);
      ("flush_on_reuse", Flush_on_reuse);
      ("xdom_denied", Custom "xdom_denied");
      ("xdom_denied_enter", Custom "xdom_denied_enter");
      ("xdom_denied_shootdown", Custom "xdom_denied_shootdown");
      ("sched_epochs", Custom "sched_epoch");
    ]

let read_counters (m : Machine.t) =
  List.map (fun (n, c) -> (n, Nktrace.counter_value m.Machine.trace c)) window_counters

(* Per-layer metrics that are plain window deltas of a counter... *)
let counted =
  [
    ("kernel.syscalls", "syscalls"); ("kernel.ctx_switches", "ctx_switches");
    ("kernel.migrations", "migrations"); ("kernel.steals", "steals");
    ("kernel.epoll_wakeups", "epoll_wakeups"); ("kernel.vm_faults", "vm_faults");
    ("hw.flush_full", "flush_full"); ("hw.flush_asid", "flush_asid");
    ("hw.flush_page", "flush_page"); ("hw.flush_span", "flush_span");
    ("hw.shootdowns_sent", "shootdowns_sent");
    ("hw.shootdowns_coalesced", "shootdowns_coalesced");
    ("hw.flush_deferred", "flush_deferred"); ("hw.flush_on_reuse", "flush_on_reuse");
  ]

(* ...and those that are a counter's delta per request completed. *)
let per_request =
  [
    ("nk.gate_crossings_per_req", "gate_crossings"); ("nk.pte_writes_per_req", "pte_writes");
    ("nk.pte_batches_per_req", "pte_batches"); ("nk.declare_ptp_per_req", "declare_ptp");
    ("nk.remove_ptp_per_req", "remove_ptp");
  ]

let ramp_quanta = 1_000

(* The OCaml runtime under every layer, over one window of [ops]. *)
let gc_layer (g0 : Gc.stat) (g1 : Gc.stat) ops =
  [
    ("gc.minor_words_per_op", Stat.per (g1.minor_words -. g0.minor_words) ops);
    ("gc.promoted_words_per_op", Stat.per (g1.promoted_words -. g0.promoted_words) ops);
    ("gc.major_collections", float_of_int (g1.major_collections - g0.major_collections));
  ]

let serve_episode ~setup ~seed ~steps ~traced =
  let t0 = now_ns () in
  let w = setup ~seed in
  (* The ramp brings the population up to its live target; it is part
     of set-up, not of the measured window. *)
  ignore (run_quanta w (probe ~on:false w.m.Machine.clock) ~seed ~steps:ramp_quanta);
  let setup_ns = now_ns () - t0 in
  let p = probe ~on:traced w.m.Machine.clock in
  let restore = wrap_oracle p w.m in
  let loads = all_loads w in
  let completed () = List.fold_left (fun a lg -> a + Loadgen.completed lg) 0 loads in
  let refused () = List.fold_left (fun a lg -> a + Loadgen.failed_connects lg) 0 loads in
  let done0 = completed () and refused0 = refused () in
  let c0 = read_counters w.m and tlb0 = tlb_live w.m in
  let g0 = Gc.quick_stat () in
  let cyc0 = Clock.cycles w.m.Machine.clock in
  let w0 = now_ns () in
  let l = run_quanta w p ~seed ~steps in
  let window_ns = now_ns () - w0 in
  let g1 = Gc.quick_stat () in
  let cycles = Clock.cycles w.m.Machine.clock - cyc0 in
  restore ();
  let c1 = read_counters w.m and tlb1 = tlb_live w.m in
  let delta n = List.assoc n c1 - List.assoc n c0 in
  let ops = completed () - done0 in
  let attempted = delta "conns_opened" + (refused () - refused0) in
  (* Output checks, after the window: the final oracle snapshot, the
     I1–I14 audit, the request and population accounting, and (for
     tenants) the teardown leak account. *)
  Api.nk_flush_all_deferred w.nk;
  let final_violations =
    List.length (Api.Diagnostics.Coherence.snapshot ~op:"nkbench-final" w.nk)
  in
  let a0 = now_ns () in
  let audit_failures = List.length (Api.audit w.nk) in
  let audit_ns_i1_i14 = now_ns () - a0 in
  let hist = Nktrace.histogram w.m.Machine.trace Loadgen.hist_name in
  let gets, sets, served =
    Hashtbl.fold
      (fun _ srv (g, s, r) ->
        (g + Kvserver.gets srv, s + Kvserver.sets srv, r + Evloop.requests (Kvserver.ev srv)))
      w.workers (0, 0, 0)
  in
  (* Every client connected, and the live count reached the target
     short of at most the active clients, which close and reconnect
     between keep-alive chains (the idle majority never disconnects). *)
  let live_ok =
    List.for_all
      (fun lg -> Loadgen.started lg = w.conns && Loadgen.live_peak lg >= w.conns - w.active)
      loads
  in
  let denials =
    delta "xdom_denied" + delta "xdom_denied_enter" + delta "xdom_denied_shootdown"
  in
  let leaks =
    Array.fold_left
      (fun acc domain ->
        match Kernel.destroy_domain w.k ~domain with
        | Ok leaked -> acc + leaked
        | Error _ -> acc + 1)
      0 w.domains
  in
  let p50, p99, p999, hcount =
    match hist with
    | Some h -> (h.Nktrace.p50, h.Nktrace.p99, h.Nktrace.p999, h.Nktrace.h_count)
    | None -> (0, 0, 0, 0)
  in
  let checks =
    [
      check "oracle_violations" (!(w.violations) + final_violations = 0)
        (Printf.sprintf "%d during the run, %d at the final snapshot" !(w.violations)
           final_violations);
      check "audit_failures" (audit_failures = 0)
        (Printf.sprintf "%d I1-I14 violations" audit_failures);
      check "teardown_leaks" (leaks = 0) (Printf.sprintf "%d frames still owner-marked" leaks);
      check "xdom_denials" (denials = 0) (Printf.sprintf "%d cross-domain denials" denials);
      check "live_target" live_ok
        (Printf.sprintf "peak %s of target %d per load (%d churning)"
           (String.concat "," (List.map (fun lg -> string_of_int (Loadgen.live_peak lg)) loads))
           w.conns w.active);
      check "gets_plus_sets" (gets + sets = served)
        (Printf.sprintf "%d GETs + %d SETs vs %d served" gets sets served);
      check "requests_completed" (ops > 0) (Printf.sprintf "%d in the window" ops);
      check "latency_reservoir" (hcount >= 1024)
        (Printf.sprintf "%d samples (p99 needs 1024 for ten beyond)" hcount);
    ]
  in
  let sim =
    [
      ("sim_req_per_mcycle", Printf.sprintf "%.4f" (Stat.per (1e6 *. float_of_int ops) cycles));
      ("sim_lat_p50_cycles", string_of_int p50);
      ("sim_lat_p99_cycles", string_of_int p99);
      ("sim_lat_p999_cycles", string_of_int p999);
      ("sim_lat_samples", string_of_int hcount);
      ("requests", string_of_int ops);
      ("window_cycles", string_of_int cycles);
      ("gets", string_of_int gets);
      ("sets", string_of_int sets);
      ("connects", string_of_int attempted);
      ("connects_refused", string_of_int (refused () - refused0));
      ("pipe_words", string_of_int w.pipe_words);
      ("tlb_live_start", string_of_int tlb0);
      ("tlb_live_end", string_of_int tlb1);
    ]
    @ List.map (fun (n, _) -> (n, string_of_int (delta n))) window_counters
  in
  let f = float_of_int in
  let ratio n others = Stat.ratio (delta n) (List.fold_left (fun a o -> a + delta o) (delta n) others) in
  let sum = Spans.summary p.sp in
  let per_call span field =
    let a = sum span in
    Stat.per (f (field a)) a.Spans.count
  in
  let ns a = a.Spans.self_ns and words a = a.Spans.self_words and cyc a = a.Spans.self_cycles in
  let pipe field =
    let s = sum "nk.pipe_send" and r = sum "nk.pipe_recv" in
    Stat.per (f (field s + field r)) (s.Spans.count + r.Spans.count)
  in
  (* Full oracle audits, by the op that fired them. *)
  let audits pick =
    Hashtbl.fold
      (fun op _ (n, t) ->
        if pick op then
          let a = sum ("oracle.audit." ^ op) in
          (n + a.Spans.count, t + a.Spans.self_ns)
        else (n, t))
      p.audit_ids (0, 0)
  in
  let starts pre s = String.starts_with ~prefix:pre s in
  let full_audits, audit_ns = audits (fun _ -> true) in
  let va = sum "oracle.va" and sched = sum "kernel.sched" in
  (* Every simulated cycle of the window lands in exactly one span's
     self time; the oracle's share must be zero (it is out of band). *)
  let self_sum = Spans.total_self_cycles p.sp and roots = Spans.root_cycles p.sp in
  let oracle_cycles =
    Hashtbl.fold
      (fun op _ acc -> acc + (sum ("oracle.audit." ^ op)).Spans.self_cycles)
      p.audit_ids va.Spans.self_cycles
  in
  let layer =
    [
      ("trace.conservation_gap_cycles", f (self_sum - cycles));
      ("loadgen.tick_ns", per_call "loadgen.tick" ns);
      ("loadgen.tick_words", per_call "loadgen.tick" words);
      ("loadgen.tick_cycles", per_call "loadgen.tick" cyc);
      ("evloop.step_ns", per_call "evloop.step" ns);
      ("evloop.step_words", per_call "evloop.step" words);
      ("evloop.step_cycles", per_call "evloop.step" cyc);
      ("evloop.events_per_step", Stat.ratio l.events l.steps);
      ("evloop.empty_step_frac", Stat.ratio l.empty l.steps);
      ("kernel.mmap_ns", per_call "kernel.mmap" ns);
      ("kernel.mmap_cycles", per_call "kernel.mmap" cyc);
      ("kernel.mmap_words", per_call "kernel.mmap" words);
      ("kernel.munmap_ns", per_call "kernel.munmap" ns);
      ("kernel.munmap_cycles", per_call "kernel.munmap" cyc);
      ("kernel.sched_self_ns", Stat.per (f sched.Spans.self_ns) l.n);
      ("kernel.sched_self_cycles", Stat.per (f sched.Spans.self_cycles) l.n);
      ("kernel.accept_local_ratio", ratio "accept_local" [ "accept_steal" ]);
      ("kernel.slab_hit_ratio", ratio "slab_hit" [ "slab_refill" ]);
      ("nk.pipe_ns", pipe ns);
      ("nk.pipe_cycles", pipe cyc);
      ("nk.audit_ms", f audit_ns_i1_i14 /. 1e6);
      ("nk.xdom_denials", f denials);
      ("nk.teardown_leaks", f leaks);
      ("hw.tlb_hit_ratio", ratio "tlb_hit" [ "tlb_miss" ]);
      ("hw.tlb_live_entries_start", f tlb0);
      ("hw.tlb_live_entries_end", f tlb1);
      ("hw.shootdown_filter_ratio", ratio "shootdowns_filtered" [ "shootdowns_sent" ]);
      ("oracle.audits_shootdown", f (fst (audits (starts "shootdown"))));
      ("oracle.audits_gate_exit", f (fst (audits (( = ) "gate_exit"))));
      ("oracle.audits_activate", f (fst (audits (( = ) "smp_activate"))));
      ( "oracle.audits_other",
        f (fst (audits (fun o -> not (starts "shootdown" o || o = "gate_exit" || o = "smp_activate"))))
      );
      ("oracle.va_checks", f va.Spans.count);
      ("oracle.audit_us", Stat.per (f audit_ns /. 1e3) full_audits);
      ("oracle.share", f (audit_ns + va.Spans.self_ns) /. f (max 1 window_ns));
    ]
    @ gc_layer g0 g1 ops
    @ List.map (fun (m, c) -> (m, f (delta c))) counted
    @ List.map (fun (m, c) -> (m, Stat.ratio (delta c) ops)) per_request
  in
  let checks =
    if not traced then checks
    else
      checks
      @ [
          check "cycle_conservation"
            (self_sum = cycles && roots = cycles && oracle_cycles = 0)
            (Printf.sprintf "span self cycles %d, root spans %d, window %d, oracle %d" self_sum
               roots cycles oracle_cycles);
        ]
  in
  {
    setup_ns;
    window_ns;
    quanta = Array.sub l.samples 0 (min l.n (Array.length l.samples));
    ops;
    attempted;
    refused = refused () - refused0;
    sim;
    checks;
    layer;
    trace = (if traced then Some p.sp else None);
  }

(* ---- check-core ------------------------------------------------------ *)

let check_cfg = { Nkcheck.default with Nkcheck.depth = 5; vocab = Nkcheck.Core }

(* The bound's size, for the core vocabulary at depth 5. *)
let expected_states = 1153
let expected_transitions = 4752

(* Set-up here is what every expansion of the explorer pays: one
   universe boot with its shutdown check ([run_checked []]), timed
   [boot_reps] times before the window ([setup_s], cold heap) and again
   after it ([check.boot_us], the warm cost the explorer sees). *)
let boot_reps = 25

let check_episode ~traced =
  let p = probe ~on:traced (Clock.create ()) in
  let boot = Spans.intern p.sp "check.boot" and run = Spans.intern p.sp "check.run" in
  let boot_fails = ref 0 in
  let boots () =
    Stat.median
      (List.init boot_reps (fun _ ->
           enter p boot;
           let t0 = now_ns () in
           boot_fails := !boot_fails + List.length (Nkcheck.run_checked []);
           let dt = now_ns () - t0 in
           leave p;
           float_of_int dt))
  in
  let setup_ns = int_of_float (boots ()) in
  let g0 = Gc.quick_stat () in
  let w0 = now_ns () in
  enter p run;
  let r = Nkcheck.run check_cfg in
  leave p;
  let window_ns = now_ns () - w0 in
  let g1 = Gc.quick_stat () in
  let boot_us = boots () /. 1e3 in
  let cxs = List.length r.Nkcheck.rp_counterexamples in
  let tr = r.Nkcheck.rp_transitions in
  let us_per_transition = Stat.per (float_of_int window_ns /. 1e3) tr in
  {
    setup_ns;
    window_ns;
    quanta = [||];
    ops = tr;
    attempted = tr;
    refused = cxs;
    sim =
      [
        ("states", string_of_int r.Nkcheck.rp_states);
        ("transitions", string_of_int tr);
        ("truncated", string_of_bool r.Nkcheck.rp_truncated);
        ("counterexamples", string_of_int cxs);
        ("ops", String.concat " " r.Nkcheck.rp_op_names);
      ];
    checks =
      [
        check "boot_clean" (!boot_fails = 0)
          (Printf.sprintf "%d failures over %d fresh boots" !boot_fails (2 * boot_reps));
        check "bound_exhausted" (not r.Nkcheck.rp_truncated)
          (Printf.sprintf "max_states %d" check_cfg.Nkcheck.max_states);
        check "counterexamples" (cxs = 0) (Printf.sprintf "%d counterexamples" cxs);
        check "bound_size"
          (r.Nkcheck.rp_states = expected_states && tr = expected_transitions)
          (Printf.sprintf "%d states / %d transitions (expected %d / %d)"
             r.Nkcheck.rp_states tr expected_states expected_transitions);
      ];
    layer =
      [
        ("check.states", float_of_int r.Nkcheck.rp_states);
        ("check.transitions", float_of_int tr);
        ("check.us_per_transition", us_per_transition);
        ("check.boot_us", boot_us);
        ("check.boot_share", Stat.per (boot_us *. float_of_int tr) (max 1 (window_ns / 1000)));
      ]
      @ gc_layer g0 g1 tr;
    trace = (if traced then Some p.sp else None);
  }

(* ---- the Table 3 calibration ----------------------------------------- *)

(* Every simulated cycle the benchmark reports derives from the cost
   table this reproduces; the serving model itself has no reference
   measurement and is unvalidated. *)
let calibration () =
  let r = Boundary.run ~iterations:10_000 () in
  let paper = Boundary.paper.Boundary.nk_call_us in
  check "table3_nk_call"
    (Float.abs (r.Boundary.nk_call_us -. paper) <= 0.005)
    (Printf.sprintf "%.4f us against the paper's %.4f +- 0.005" r.Boundary.nk_call_us paper)

(* ---- the host-speed reference ---------------------------------------- *)

(* The sandbox this benchmark was built on shares its machine: the same
   episode's host time moved by more than 50% within minutes, with the
   program unchanged.  So every end-to-end host time is reported
   normalized: each episode's times are scaled by [reference_nominal_ns]
   over the median time of this fixed, repository-independent loop
   (hashing, small allocations, a sort) timed just before and just after
   the episode.  A change to the program moves the normalized value; a
   slower machine moves both the window and the loop, and cancels. *)
type ref_cell = { key : int; link : int list }

let reference () =
  let t0 = now_ns () in
  let h = Hashtbl.create 16 and acc = ref 0 in
  for i = 0 to 100_000 do
    Hashtbl.replace h (i land 32767) { key = i; link = [ i; i + 1 ] };
    match Hashtbl.find_opt h ((i * 7) land 32767) with
    | Some c -> acc := !acc + c.key + List.length c.link
    | None -> ()
  done;
  let a = Array.init 50_000 (fun i -> (i * 7919) land 0xfffff) in
  Array.sort compare a;
  ignore (Sys.opaque_identity (!acc + a.(0)));
  now_ns () - t0

(* The loop's time on the unloaded machine the bounds were set on. *)
let reference_nominal_ns = 50_000_000

(* ---- runs, metrics and output ---------------------------------------- *)

let workloads = [ "serve-c10k"; "tenants-8"; "check-core" ]

(* Where the traced run writes its Chrome trace, relative to the
   checkout root the benchmark runs from. *)
let out_dir = "nkbench/out"

(* Measured-window lengths in executor quanta (after the ramp). *)
let window_quanta = function "serve-c10k" -> 40_000 | _ -> 3_000

(* Every per-layer metric, in output order, with its unit; a workload
   that does not exercise a layer reports 0 for it (METRICS.md says
   which workload each one belongs to). *)
let layer_metrics =
  [
    ("loadgen.tick_ns", "ns"); ("loadgen.tick_words", "words");
    ("loadgen.tick_cycles", "cycles"); ("evloop.step_ns", "ns");
    ("evloop.step_words", "words"); ("evloop.step_cycles", "cycles");
    ("evloop.events_per_step", "count"); ("evloop.empty_step_frac", "ratio");
    ("kernel.mmap_ns", "ns"); ("kernel.mmap_cycles", "cycles");
    ("kernel.mmap_words", "words"); ("kernel.munmap_ns", "ns");
    ("kernel.munmap_cycles", "cycles"); ("kernel.sched_self_ns", "ns");
    ("kernel.sched_self_cycles", "cycles"); ("kernel.syscalls", "count");
    ("kernel.ctx_switches", "count"); ("kernel.migrations", "count");
    ("kernel.steals", "count"); ("kernel.epoll_wakeups", "count");
    ("kernel.accept_local_ratio", "ratio"); ("kernel.slab_hit_ratio", "ratio");
    ("kernel.vm_faults", "count"); ("nk.gate_crossings_per_req", "count");
    ("nk.pte_writes_per_req", "count"); ("nk.pte_batches_per_req", "count");
    ("nk.declare_ptp_per_req", "count"); ("nk.remove_ptp_per_req", "count");
    ("nk.pipe_ns", "ns"); ("nk.pipe_cycles", "cycles"); ("nk.audit_ms", "ms");
    ("nk.xdom_denials", "count"); ("nk.teardown_leaks", "count");
    ("hw.tlb_hit_ratio", "ratio"); ("hw.tlb_live_entries_start", "count");
    ("hw.tlb_live_entries_end", "count"); ("hw.flush_full", "count");
    ("hw.flush_asid", "count"); ("hw.flush_page", "count");
    ("hw.flush_span", "count"); ("hw.shootdowns_sent", "count");
    ("hw.shootdown_filter_ratio", "ratio"); ("hw.shootdowns_coalesced", "count");
    ("hw.flush_deferred", "count"); ("hw.flush_on_reuse", "count");
    ("oracle.audits_shootdown", "count"); ("oracle.audits_gate_exit", "count");
    ("oracle.audits_activate", "count"); ("oracle.audits_other", "count");
    ("oracle.va_checks", "count"); ("oracle.audit_us", "us");
    ("oracle.share", "ratio"); ("check.states", "count");
    ("check.transitions", "count"); ("check.us_per_transition", "us");
    ("check.boot_us", "us"); ("check.boot_share", "ratio");
    ("gc.minor_words_per_op", "words"); ("gc.promoted_words_per_op", "words");
    ("gc.major_collections", "count"); ("sim.req_per_mcycle", "1/Mcycle");
    ("sim.lat_p50_cycles", "cycles"); ("sim.lat_p99_cycles", "cycles");
    ("sim.lat_samples", "count"); ("trace.overhead", "ratio");
    ("trace.spans", "count"); ("trace.conservation_gap_cycles", "cycles");
    ("window.quanta", "count"); ("window.decile_ratio", "ratio");
  ]

(* Host time per quantum: p50 and p99 over one window's samples.  The
   model checker is one opaque call, so check-core has no per-quantum
   clock and reports its mean time per transition for both. *)
let quantum_us e =
  if Array.length e.quanta = 0 then
    let mean = Stat.per (float_of_int e.window_ns /. 1e3) e.ops in
    (mean, mean)
  else
    let s = Stat.sorted e.quanta in
    (float_of_int (Stat.percentile s 0.5) /. 1e3, float_of_int (Stat.percentile s 0.99) /. 1e3)

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let json_metrics ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_num v) u)
         ms)
  ^ "}"

type opts = {
  mutable workload : string;
  mutable seed : int;
  mutable seconds : int;
  mutable trace : int;
}

let parse_args () =
  let o = { workload = ""; seed = 1; seconds = 10; trace = 0 } in
  let spec =
    [
      ("--workload", Arg.String (fun s -> o.workload <- s), " " ^ String.concat "|" workloads);
      ("--seed", Arg.Int (fun n -> o.seed <- n), "N workload seed");
      ("--seconds", Arg.Int (fun n -> o.seconds <- n), "S time to spend measuring");
      ("--trace", Arg.Int (fun n -> o.trace <- n), "0|1 untraced end-to-end run, or traced per-layer run");
    ]
  in
  let usage = "nkbench --workload W --seed N --seconds S --trace 0|1" in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if not (List.mem o.workload workloads) then begin
    prerr_endline ("nkbench: unknown workload " ^ o.workload ^ "\n" ^ usage);
    exit 2
  end;
  if o.trace <> 0 && o.trace <> 1 then begin
    prerr_endline "nkbench: --trace takes 0 or 1";
    exit 2
  end;
  o

let () =
  let o = parse_args () in
  let traced_run = o.trace = 1 in
  let quanta = window_quanta o.workload in
  let episode ~seed ~traced =
    match o.workload with
    | "serve-c10k" -> serve_episode ~setup:setup_c10k ~seed ~steps:quanta ~traced
    | "tenants-8" -> serve_episode ~setup:setup_tenants ~seed ~steps:quanta ~traced
    | _ -> check_episode ~traced
  in
  let start = now_ns () and budget = o.seconds * 1_000_000_000 in
  let calib = calibration () in
  (* The held-out seed: one more episode on a seed no tuning used; its
     checks count, its timings do not.  check-core ignores the seed. *)
  let held_out_seed = o.seed + 1_000_003 in
  let reserve = if o.workload = "check-core" then 0 else 1 in
  (* Episodes repeat until the next one (and the held-out one) would
     overrun the budget, with at least two so the same-seed determinism
     check always has a pair.  A traced run's first episode is its
     untraced baseline. *)
  let slots = ref [] in
  let time_reference () = slots := List.init 2 (fun _ -> float_of_int (reference ())) :: !slots in
  let fresh_episode ~seed ~traced =
    Gc.compact ();
    time_reference ();
    episode ~seed ~traced
  in
  let rec loop acc n =
    let t0 = now_ns () in
    let e = fresh_episode ~seed:o.seed ~traced:(traced_run && n > 0) in
    let acc = e :: acc and took = now_ns () - t0 in
    if n + 1 < 2 || now_ns () - start + ((1 + reserve) * took) <= budget then loop acc (n + 1)
    else List.rev acc
  in
  let eps = loop [] 0 in
  let held_out = List.init reserve (fun _ -> fresh_episode ~seed:held_out_seed ~traced:false) in
  time_reference ();
  (* Episode i ran between reference slots i and i + 1: its host times
     are scaled by the loop's speed around it. *)
  let slots = Array.of_list (List.rev !slots) in
  let norm i = float_of_int reference_nominal_ns /. Stat.median (slots.(i) @ slots.(i + 1)) in
  let first = List.hd eps in
  let same = List.for_all (fun e -> e.sim = first.sim) eps in
  let determinism =
    check "determinism" same
      (Printf.sprintf "%d episodes of seed %d, simulated results %s" (List.length eps) o.seed
         (if same then "byte-identical" else "DIFFER"))
  in
  let checks =
    (calib :: determinism :: List.concat_map (fun e -> e.checks) eps)
    @ List.map
        (fun c -> { c with c_name = "held_out_" ^ c.c_name })
        (List.concat_map (fun e -> e.checks) held_out)
  in
  let failed_checks = List.length (List.filter (fun c -> not c.c_ok) checks) in
  let all = eps @ held_out in
  let attempted = List.fold_left (fun a e -> a + e.attempted) (List.length checks) all in
  let failed = List.fold_left (fun a e -> a + e.refused) failed_checks all in
  let timed = if traced_run then [ first ] else eps in
  (* Each host number as (raw, normalized): medians over the timed
     episodes, times scaled by [norm], rates divided by it. *)
  let med ~rate f =
    let scale i = if rate then 1.0 /. norm i else norm i in
    ( Stat.median (List.map f timed),
      Stat.median (List.mapi (fun i e -> f e *. scale i) timed) )
  in
  let host_ops = med ~rate:true (fun e -> Stat.per (float_of_int e.ops) e.window_ns *. 1e9) in
  let q50 = med ~rate:false (fun e -> fst (quantum_us e)) in
  let q99 = med ~rate:false (fun e -> snd (quantum_us e)) in
  let setup_s = med ~rate:false (fun e -> secs e.setup_ns) in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let pr fmt = Printf.printf (fmt ^^ "\n") in
  pr "nkbench %s seed=%d trace=%d episodes=%d window=%s held-out seed=%s" o.workload o.seed
    o.trace (List.length eps)
    (if o.workload = "check-core" then "nkcheck core depth 5"
     else Printf.sprintf "%d quanta after a %d-quantum ramp" quanta ramp_quanta)
    (if held_out = [] then "n/a (exhaustive, seed-free)" else string_of_int held_out_seed);
  let ops_name = if o.workload = "check-core" then "host_transitions_per_s" else "host_req_per_s" in
  let samples = Array.length first.quanta in
  let tail =
    if samples = 0 then "mean per transition"
    else
      Printf.sprintf "%d samples beyond; the highest percentile with ten beyond is %s"
        (Stat.beyond ~n:samples 0.99)
        (match Stat.tail_quantile samples with
        | Some q -> Printf.sprintf "p%g" (100.0 *. q)
        | None -> "none")
  in
  (* (name, (raw, normalized), unit, note); memory is not normalized. *)
  let rows =
    [
      ( "host_ops_per_s", host_ops, "1/s",
        Printf.sprintf "%s per host second, median of %d windows"
          (if o.workload = "check-core" then "transitions checked" else "requests completed")
          (List.length timed) );
      ( "host_quantum_p50_us", q50, "us",
        if samples = 0 then "mean per transition"
        else Printf.sprintf "%d samples per window" samples );
      ("host_quantum_p99_us", q99, "us", tail);
      ("setup_s", setup_s, "s", "median of the episodes' set-ups");
      ("peak_heap_mb", (heap_mb, heap_mb), "MB", "Gc top heap of the whole process");
    ]
  in
  let end_to_end = List.map (fun (n, (_, v), u, _) -> (n, v, u)) rows in
  let factors = List.mapi (fun i _ -> norm i) timed in
  pr "  reference loop: %d timings, median %.2f ms (nominal %.2f ms); host-time factors %.3f..%.3f"
    (2 * Array.length slots)
    (Stat.median (List.concat (Array.to_list slots)) /. 1e6)
    (float_of_int reference_nominal_ns /. 1e6)
    (List.fold_left min infinity factors) (List.fold_left max 0.0 factors);
  List.iter
    (fun (n, (r, v), u, note) ->
      let n = if n = "host_ops_per_s" then ops_name else n in
      pr "  %-24s %14.4f %-4s (raw %.4f; %s)" n v u r note)
    rows;
  List.iter
    (fun (n, v) -> if String.starts_with ~prefix:"sim_" n then pr "  %-24s %14s" n v)
    first.sim;
  pr "  episodes: window_s %s; setup_s %s"
    (String.concat " " (List.map (fun e -> Printf.sprintf "%.3f" (secs e.window_ns)) eps))
    (String.concat " " (List.map (fun e -> Printf.sprintf "%.4f" (secs e.setup_ns)) eps));
  pr "  %-24s %14.6f       (%d failed of %d attempted)" "failed_frac" (Stat.ratio failed attempted)
    failed attempted;
  if samples > 0 then
    pr "  steadiness: host us per quantum by decile: %s"
      (String.concat " "
         (Array.to_list (Array.map (fun d -> Printf.sprintf "%.1f" (d /. 1e3)) (Stat.deciles first.quanta))));
  List.iter (fun (n, v) -> if n = "tlb_live_start" || n = "tlb_live_end" then pr "  %s %s" n v) first.sim;
  List.iter
    (fun c -> pr "  check %-26s %s  %s" c.c_name (if c.c_ok then "ok" else "FAIL") c.c_detail)
    checks;
  pr "  note: the Table 3 calibration is the model's only validation; the serving model is unvalidated";
  let metrics =
    if not traced_run then end_to_end
    else begin
      let traced = List.filter (fun (e : episode) -> e.trace <> None) eps in
      let last = List.nth traced (List.length traced - 1) in
      let sp = Option.get last.trace in
      (* Windows compared at reference speed, like the end-to-end times. *)
      let window i e = float_of_int e.window_ns *. norm i in
      let overhead =
        Stat.median (List.tl (List.mapi window eps)) /. window 0 first -. 1.0
      in
      let deciles = Stat.deciles last.quanta in
      let extra =
        [
          ("trace.overhead", overhead);
          ("trace.spans", float_of_int (Spans.length sp));
          ("window.quanta", float_of_int (Array.length last.quanta));
          ("window.decile_ratio", if deciles.(0) = 0.0 then 0.0 else deciles.(9) /. deciles.(0));
        ]
        @ List.filter_map
            (fun (n, v) ->
              match float_of_string_opt v with
              | Some f when String.starts_with ~prefix:"sim_" n ->
                  Some ("sim." ^ String.sub n 4 (String.length n - 4), f)
              | _ -> None)
            last.sim
      in
      let value n =
        match List.assoc_opt n last.layer with
        | Some v -> v
        | None -> Option.value (List.assoc_opt n extra) ~default:0.0
      in
      let ms = List.map (fun (n, u) -> (n, value n, u)) layer_metrics in
      (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
      let file = Filename.concat out_dir (o.workload ^ ".trace.json") in
      let oc = open_out file in
      Spans.write_chrome sp ~label:(Printf.sprintf "nkbench %s seed %d" o.workload o.seed) oc;
      close_out oc;
      pr "  trace: %d spans -> %s (tracing overhead %.1f%%)" (Spans.length sp) file (100.0 *. overhead);
      let sum = Spans.summary sp in
      let by_span =
        List.filter_map
          (fun n ->
            let c = (sum n).Spans.self_cycles in
            if c = 0 then None else Some (Printf.sprintf "%s %d" n c))
          (Spans.names sp)
      in
      if by_span <> [] then
        pr "  simulated cycles by span (self): %s" (String.concat ", " by_span);
      List.iter (fun (n, v, u) -> pr "  %-32s %16.4f %s" n v u) ms;
      ms
    end
  in
  pr "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}" (failed = 0) attempted
    failed (json_metrics metrics)
