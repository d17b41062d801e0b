(* SMP scaling workload: the same process mix driven across 1..8
   vCPUs by the deterministic executor.  Everything measured here is
   simulated-cycle arithmetic, so a fixed seed reproduces the numbers
   byte-for-byte. *)

open Outer_kernel

type point = {
  cpus : int;
  seed : int;
  steps : int;
  syscalls : int;
  cycles : int;
  throughput : float;
  shootdowns : int list;
  ipis : int;
  sent : int;
  filtered : int;
  coalesced : int;
  deferred : int;
  reuse : int;
  steals : int;
  migrations : int;
  oracle_violations : int;
  audit_failures : int;
}

let run_one ?(seed = Harness.default_seed) ?(procs = 8) ?(steps = 4000)
    cpus =
  (* The batched vMMU backend is the whole point at scale: without it
     fork's COW downgrades go through per-PTE writes and the per-batch
     shootdown coalescer never runs at all. *)
  let h, k =
    Harness.start (fun () -> Os.boot ~batched:true ~cpus Config.Perspicuos)
  in
  let sched = Sched.create k in
  let p0 = Kernel.current_proc k in
  for _ = 2 to procs do
    match Syscalls.fork k p0 with
    (* Pile every child onto the boot CPU: the idle APs must pull work
       over for themselves, so stealing (and the cross-CPU traffic it
       causes) is actually exercised instead of balanced away. *)
    | Ok pid -> Sched.add_on sched pid 0
    | Error _ -> ()
  done;
  Harness.open_window h;
  let tick = ref 0 in
  let taken =
    Sched.run_smp sched
      ~policy:(Nkhw.Smp.Executor.Seeded seed)
      ~steps
      (fun ~cpu:_ pid ->
        incr tick;
        (match Kernel.proc k pid with
        | None -> ()
        | Some p ->
            ignore (Syscalls.getpid k p);
            (* Every few quanta, an mmap/munmap pair: the unmap's TLB
               shootdown is what the extra CPUs have to absorb. *)
            if !tick mod 4 = 0 then
              (match Syscalls.mmap k p ~len:4096 ~rw:true ~populate:true () with
              | Ok va -> ignore (Syscalls.munmap k p va)
              | Error _ -> ());
            (* Forks on the first quanta of the measured window: the
               COW downgrade walks the parent's writable pages rw ->
               ro in one batch, which is the traffic the per-batch
               shootdown coalescer exists for (unmaps take the
               deferred path instead and never reach it).  The 8-page
               rw region mapped first guarantees contiguous downgrades
               to merge.  The very first ticks, because the forking
               ASID is then still resident on at most the boot CPU —
               a few quanta later every proc has migrated, and each
               downgrade span fans out to all the CPUs it visited, a
               cost that grows with the CPU count and drowns the
               scaling signal.  Like the setup forks, the children are
               never scheduled (and never exit): reaping one tears its
               tables down through broadcast flushes on every CPU.
               The region stays mapped for the same reason — its
               frames are share-held by the child, so an unmap would
               defer 8 flushes that can never hit a reuse barrier and
               all fire (cross-CPU) in the final drain instead. *)
            if !tick <= 2 then
              match
                Syscalls.mmap k p ~len:(8 * 4096) ~rw:true ~populate:true ()
              with
              | Error _ -> ()
              | Ok _ -> ignore (Syscalls.fork k p));
        true)
  in
  let oracle_violations, audit_failures = Harness.finish h ~op:"smp-scale-final" in
  let syscalls = Harness.delta h Nktrace.Syscall in
  let cycles = Harness.window_cycles h in
  {
    cpus;
    seed;
    steps = taken;
    syscalls;
    cycles;
    throughput = float_of_int syscalls /. (float_of_int cycles /. 1e6);
    shootdowns =
      List.init cpus (fun id -> Nkhw.Smp.shootdowns_rx k.Kernel.smp id);
    ipis = Harness.delta h Nktrace.Ipi_shootdown;
    sent = Harness.delta h Nktrace.Shootdown_sent;
    filtered = Harness.delta h Nktrace.Shootdown_filtered;
    coalesced = Harness.delta h Nktrace.Shootdown_coalesced;
    deferred = Harness.delta h Nktrace.Flush_deferred;
    reuse = Harness.delta h Nktrace.Flush_on_reuse;
    steals = Harness.delta h Nktrace.Sched_steal;
    migrations = Harness.delta h Nktrace.Cpu_migration;
    oracle_violations;
    audit_failures;
  }

let run () =
  let seed = Harness.seed () in
  List.map (run_one ~seed) [ 1; 2; 4; 8 ]

let fields =
  Harness.
    [
      int "cpus" ~col:"CPUs" (fun p -> p.cpus);
      int "steps" (fun p -> p.steps);
      int "syscalls" ~col:"syscalls" (fun p -> p.syscalls);
      int "cycles" (fun p -> p.cycles);
      col "Mcycles" (fun p -> Printf.sprintf "%.2f" (float_of_int p.cycles /. 1e6));
      field "syscalls_per_mcycle" ~col:"sys/Mcycle" (fun p ->
          Json.float 1 p.throughput);
      field "shootdowns_rx" ~col:"shootdowns rx/CPU"
        ~cell:(fun p -> String.concat "/" (List.map string_of_int p.shootdowns))
        (fun p -> Json.Arr (List.map Json.int p.shootdowns));
      int "ipi_shootdowns" (fun p -> p.ipis);
      int "shootdown_sent" ~col:"sent" (fun p -> p.sent);
      int "shootdown_filtered" ~col:"filt" (fun p -> p.filtered);
      int "shootdown_coalesced" ~col:"coal" (fun p -> p.coalesced);
      int "flush_deferred" ~col:"defer" (fun p -> p.deferred);
      int "flush_on_reuse" (fun p -> p.reuse);
      int "steals" ~col:"steals" (fun p -> p.steals);
      int "migrations" ~col:"migr" (fun p -> p.migrations);
      int "oracle_violations" (fun p -> p.oracle_violations);
      int "audit_failures" (fun p -> p.audit_failures);
    ]

let to_table points =
  Harness.table
    ~title:
      (Printf.sprintf
         "SMP scaling: identical workload, 1..8 vCPUs (sched seed %d)"
         (match points with p :: _ -> p.seed | [] -> Harness.default_seed))
    ~notes:
      [
        "single simulated clock: cycles accumulate across all CPUs, so \
         sys/Mcycle is whole-system efficiency, not per-CPU speedup";
        "unmap shootdowns are residency-filtered, span-coalesced per batch \
         and lazily deferred to frame reuse -- sent/filt/coal/defer count \
         what each mechanism did (section 3.10 extension)";
      ]
    fields points
