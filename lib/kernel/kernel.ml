open Nkhw

type t = {
  machine : Machine.t;
  config : Config.t;
  nk : Nested_kernel.State.t option;
  backend : Mmu_backend.t;
  env : Vmspace.env;
  falloc : Frame_alloc.t;
  kalloc : Kalloc.t;
  vfs : Vfs.t;
  kernel_root : Addr.frame;
  allproc : Proclist.t;
  shadow : Shadow_proc.t option;
  syscall_table : Syscall_table.t;
  handlers : (int, handler) Hashtbl.t;
  arg_specs : Ktypes.arg_kind list option array;
  span_cache : Nktrace.span array;
  syslog : syscall_log option;
  procs : (Ktypes.pid, Proc.t) Hashtbl.t;
  smp : Smp.t;
  running : Ktypes.pid option array;
  inject : Nkinject.t option;
  domain_tokens : (int, int) Hashtbl.t;
  mutable next_domain : int;
  mutable next_pid : Ktypes.pid;
  mutable legit_exits : Ktypes.pid list;
  mutable syscall_seq : int;
}

and handler = t -> Proc.t -> Ktypes.sysarg list -> (int, Ktypes.errno) result

and syscall_log = {
  sl_nk : Nested_kernel.State.t;
  sl_wd : Nested_kernel.State.wd;
  sl_base : Addr.va;
  sl_state : Nested_kernel.Policy.append_state;
  sl_record : Bytes.t;
  mutable sl_events : int;
  mutable sl_flushes : int;
}

(* Kernel-work constants (identical across configurations). *)
let cost_proc_create = 2200
let cost_proc_exit = 900
let cost_proc_reap = 600
let cost_sig_frame = 380
let cost_sig_handler_run = 280
let cost_exec_load = 1500

let syslog_bytes = 64 * 1024
let event_bytes = 16

let ( let* ) = Result.bind

(* --- address-space switching ------------------------------------- *)

(* Switch to a process root under its ASID tag when the pool is
   active: a clean (pcid, root) pair skips the full TLB flush. *)
let load_vm_root t (vm : Vmspace.t) =
  match Vmspace.ensure_asid t.env vm with
  | Some pcid -> t.backend.Mmu_backend.load_cr3_pcid ~pcid vm.Vmspace.root
  | None -> t.backend.Mmu_backend.load_cr3 vm.Vmspace.root

let load_kernel_root t =
  match t.env.Vmspace.asids with
  | Some _ ->
      t.backend.Mmu_backend.load_cr3_pcid ~pcid:Asid_pool.kernel_asid
        t.kernel_root
  | None -> t.backend.Mmu_backend.load_cr3 t.kernel_root

(* --- boot ------------------------------------------------------- *)

let boot_native_paging (m : Machine.t) falloc ~pcid =
  let root = Frame_alloc.alloc_exn falloc in
  Phys_mem.zero_frame m.Machine.mem root;
  let alloc_ptp () = Frame_alloc.alloc_exn falloc in
  (* The direct map is identical in every address space, so its leaves
     are global and survive CR3 reloads. *)
  Pt_builder.build_direct_map m.Machine.mem ~root ~alloc_ptp
    ~frames:(Phys_mem.num_frames m.Machine.mem)
    { Pte.kernel_rw with Pte.global = true };
  m.Machine.cr.Cr.cr3 <- Addr.pa_of_frame root;
  m.Machine.cr.Cr.cr4 <-
    (Cr.cr4_pae lor Cr.cr4_smep lor if pcid then Cr.cr4_pcide else 0);
  m.Machine.cr.Cr.efer <- Cr.efer_lme lor Cr.efer_nx;
  m.Machine.cr.Cr.cr0 <- Cr.cr0_pe lor Cr.cr0_pg lor Cr.cr0_wp;
  Tlb.flush_all m.Machine.tlb;
  (* Native trap stub: hand faults straight back to OCaml kernel code. *)
  let stub_frame = Frame_alloc.alloc_exn falloc in
  let stub = Insn.assemble_raw [ Insn.Callout 3 ] in
  Phys_mem.write_bytes m.Machine.mem (Addr.pa_of_frame stub_frame) stub;
  let idt_frame = Frame_alloc.alloc_exn falloc in
  let idt_pa = Addr.pa_of_frame idt_frame in
  for vector = 0 to 255 do
    Phys_mem.write_u64 m.Machine.mem (idt_pa + (vector * 8))
      (Addr.kva_of_frame stub_frame)
  done;
  m.Machine.idtr <- Some (Addr.kva_of_frame idt_frame);
  root

let boot ?(frames = 8192) ?(batched = false) ?(pcid = true) ?(trace = false)
    ?(cpus = 1) ?(domains = 0) ?inject config =
  (* One bit per CPU in an int: affinity and residency masks. *)
  if cpus < 1 || cpus > Sys.int_size then
    invalid_arg
      (Printf.sprintf "Kernel.boot: cpus must be between 1 and %d" Sys.int_size);
  if domains < 0 then invalid_arg "Kernel.boot: domains must be >= 0";
  let m = Machine.create ~frames () in
  if trace then Nktrace.enable m.Machine.trace;
  (* Boot itself is not a fault target: allocations and PTE writes
     before the kernel is up would turn an injected fault into a
     failed boot, not a degraded run.  The injector is disarmed for
     the duration and re-armed (to its prior state) just before
     [boot] returns. *)
  let inject_was_armed =
    match inject with
    | None -> false
    | Some inj ->
        let was = Nkinject.armed inj in
        Nkinject.set_armed inj false;
        Nkinject.set_trace inj (Some m.Machine.trace);
        was
  in
  let nk, falloc, backend, kernel_root =
    if Config.is_nested config then begin
      let nk = Nested_kernel.Api.boot_exn m in
      if pcid then begin
        (* CR4 updates are mediated; PCIDE is outside the protected
           bit set, so the nested kernel permits enabling it. *)
        match
          Nested_kernel.Api.load_cr4 nk (m.Machine.cr.Cr.cr4 lor Cr.cr4_pcide)
        with
        | Ok () -> ()
        | Error e ->
            failwith ("boot: enable PCID: " ^ Nested_kernel.Nk_error.to_string e)
      end;
      let first = Nested_kernel.Api.outer_first_frame nk in
      let falloc = Frame_alloc.create ~first ~count:(frames - first) in
      let backend =
        if batched then Mmu_backend.nested_batched nk else Mmu_backend.nested nk
      in
      (Some nk, falloc, backend, (nk).Nested_kernel.State.root_pml4)
    end
    else begin
      let falloc = Frame_alloc.create ~first:1 ~count:(frames - 1) in
      let backend =
        if config = Config.Hyper then Mmu_backend.hypervisor m
        else Mmu_backend.native m
      in
      let root = boot_native_paging m falloc ~pcid in
      (None, falloc, backend, root)
    end
  in
  (* Every fallible subsystem holds the same injector, so one seed
     drives one global, reproducible schedule of faults across frame
     allocation, the IPI fabric, the ASID pool, the gates, the
     protected heap and the MMU backend. *)
  let backend =
    match inject with
    | Some inj -> Mmu_backend.with_inject inj backend
    | None -> backend
  in
  (match inject with
  | Some inj -> (
      Frame_alloc.set_inject falloc (Some inj);
      match nk with
      | Some nk -> Nested_kernel.Api.set_inject nk (Some inj)
      | None -> ())
  | None -> ());
  (* Reuse barrier for lazy unmap invalidation: the instant the outer
     allocator hands a frame out again, any deferred shootdown still
     pending on it fires — before the new owner can zero or fill it. *)
  (match nk with
  | Some nk ->
      Frame_alloc.set_on_alloc falloc
        (Some (fun frame -> Nested_kernel.Api.nk_flush_deferred nk frame));
      (* Ownership-release barrier: a frame going back to the allocator
         sheds its tenant's claim, so the next owner starts unclaimed
         (one integer compare on host-owned frames). *)
      Frame_alloc.set_on_free falloc
        (Some (fun frame -> Nested_kernel.Api.nk_frame_released nk frame))
  | None -> ());
  (* Kernel stack for the boot CPU. *)
  let kstack = Frame_alloc.alloc_exn falloc in
  Cpu_state.set m.Machine.cpu Insn.RSP (Addr.kva_of_frame (kstack + 1));
  (* Bring up the application processors: each inherits the control
     registers established above (WP and all) and gets its own kernel
     stack; their TLBs join the shootdown target set immediately. *)
  let smp = Smp.create m in
  Smp.set_inject smp inject;
  for _ = 2 to cpus do
    let id = Smp.add_cpu smp in
    let ap_stack = Frame_alloc.alloc_exn falloc in
    Cpu_state.set (Smp.cpu_state smp id) Insn.RSP
      (Addr.kva_of_frame (ap_stack + 1))
  done;
  let kalloc = Kalloc.create m falloc ~chunk_size:64 in
  let kdata = Frame_alloc.alloc_exn falloc in
  Phys_mem.zero_frame m.Machine.mem kdata;
  let head_va = Addr.kva_of_frame kdata in
  let allproc = Proclist.create m kalloc ~head_va in
  let syscall_table =
    match (config, nk) with
    | Config.Write_once, Some nk -> (
        match Syscall_table.create_protected nk with
        | Ok table -> table
        | Error e ->
            failwith
              ("boot: protected syscall table: "
              ^ Nested_kernel.Nk_error.to_string e))
    | _ -> Syscall_table.create_native m ~table_va:(head_va + 2048)
  in
  let shadow =
    match (config, nk) with
    | Config.Write_log, Some nk -> (
        match Shadow_proc.create nk ~capacity:256 with
        | Ok s -> Some s
        | Error e ->
            failwith
              ("boot: shadow process list: "
              ^ Nested_kernel.Nk_error.to_string e))
    | _ -> None
  in
  let syslog =
    match (config, nk) with
    | Config.Append_only, Some nk -> (
        let st = Nested_kernel.Policy.append_state ~size:syslog_bytes () in
        let policy = Nested_kernel.Policy.append_only st in
        match Nested_kernel.Api.nk_alloc nk ~size:syslog_bytes policy with
        | Ok (wd, base) ->
            Some
              {
                sl_nk = nk;
                sl_wd = wd;
                sl_base = base;
                sl_state = st;
                sl_record = Bytes.create event_bytes;
                sl_events = 0;
                sl_flushes = 0;
              }
        | Error e ->
            failwith
              ("boot: protected syscall log: "
              ^ Nested_kernel.Nk_error.to_string e))
    | _ -> None
  in
  let env =
    {
      Vmspace.machine = m;
      backend;
      falloc;
      share = Hashtbl.create 256;
      asids =
        (if pcid then
           Some
             (if domains = 0 then Asid_pool.create m
              else
                (* Host partition plus one per expected tenant, two
                   slots each, so a tenant's recycling stays inside its
                   own range. *)
                Asid_pool.create
                  ~size:(1 + (2 * (domains + 1)))
                  ~domains:(domains + 1) m)
         else None);
    }
  in
  (match (env.Vmspace.asids, inject) with
  | Some pool, Some _ -> Asid_pool.set_inject pool inject
  | _ -> ());
  let t =
    {
      machine = m;
      config;
      nk;
      backend;
      env;
      falloc;
      kalloc;
      vfs = Vfs.create m;
      kernel_root;
      allproc;
      shadow;
      syscall_table;
      handlers = Hashtbl.create 64;
      arg_specs = Array.make Ktypes.max_syscall None;
      span_cache =
        Array.init Ktypes.max_syscall (fun i ->
            Nktrace.Syscall_dispatch (Ktypes.syscall_name i));
      syslog;
      procs = Hashtbl.create 64;
      smp;
      running = Array.make cpus None;
      inject;
      domain_tokens = Hashtbl.create 8;
      next_domain = 1;
      next_pid = 1;
      legit_exits = [];
      syscall_seq = 0;
    }
  in
  (* init (pid 1) *)
  (match
     let* vm = Vmspace.create env ~kernel_root in
     let* () =
       Vmspace.exec_reset env vm ~text_pages:16 ~data_pages:8 ~stack_pages:8
     in
     let* node = Proclist.insert allproc 1 in
     Ok (vm, node)
   with
  | Ok (vm, node) ->
      let p = Proc.make ~pid:1 ~parent:0 ~vm ~node_va:node () in
      Hashtbl.replace t.procs 1 p;
      t.running.(0) <- Some 1;
      t.next_pid <- 2;
      (match shadow with
      | Some s -> (
          match Shadow_proc.on_insert s 1 ~node_va:node with
          | Ok () -> ()
          | Error e -> failwith ("boot: shadow insert: " ^ e))
      | None -> ());
      ignore (load_vm_root t vm)
  | Error e -> failwith ("boot: init process: " ^ Ktypes.errno_to_string e));
  (match inject with
  | Some inj -> Nkinject.set_armed inj inject_was_armed
  | None -> ());
  t

(* --- processes --------------------------------------------------- *)

(* Scheduling truth is per-CPU: [running.(c)] is the process CPU [c]
   last dispatched.  "Current" always means the CPU driving the
   machine right now. *)
let cpu_current t = t.running.(Smp.active t.smp)

(* An idle CPU has no current process — an ordinary state under the
   SMP executor (an AP before its first dispatch, or after its queue
   drained), not an error.  Trap and IPI handlers running there must
   get [None], never an abort. *)
let current_proc_opt t =
  match cpu_current t with
  | None -> None
  | Some pid -> Hashtbl.find_opt t.procs pid

let current_proc t =
  match current_proc_opt t with
  | Some p -> p
  | None -> failwith "kernel: no process on this CPU"

let proc t pid = Hashtbl.find_opt t.procs pid

(* --- tenant domains ----------------------------------------------- *)

(* The outer kernel is the host trust anchor: it holds every tenant's
   entry token and switches the nested kernel's current domain as it
   dispatches processes.  Without a nested kernel, domains are plain
   scheduling/ASID labels — creation still hands out ids so the same
   workload code runs in every configuration. *)

let proc_domain (p : Proc.t) = p.Proc.vm.Vmspace.domain

let create_domain t =
  match t.nk with
  | None ->
      let id = t.next_domain in
      t.next_domain <- id + 1;
      Hashtbl.replace t.domain_tokens id 0;
      Ok id
  | Some nk -> (
      match Nested_kernel.Api.nk_domain_create nk with
      | Ok (id, token) ->
          Hashtbl.replace t.domain_tokens id token;
          t.next_domain <- id + 1;
          Ok id
      | Error _ -> Error Ktypes.Enomem)

(* Make the nested kernel's current domain match the address space
   about to run; a same-domain dispatch is one integer compare. *)
let enter_vm_domain t (vm : Vmspace.t) =
  match t.nk with
  | None -> Ok ()
  | Some nk ->
      let d = vm.Vmspace.domain in
      if Nested_kernel.Api.nk_domain_current nk = d then Ok ()
      else
        let token =
          if d = 0 then 0
          else Option.value ~default:(-1) (Hashtbl.find_opt t.domain_tokens d)
        in
        (match Nested_kernel.Api.nk_domain_enter nk ~domain:d ~token with
        | Ok () -> Ok ()
        | Error _ -> Error Ktypes.Eacces)

let enter_host_domain t =
  match t.nk with
  | None -> ()
  | Some nk ->
      if Nested_kernel.Api.nk_domain_current nk <> 0 then
        ignore (Nested_kernel.Api.nk_domain_enter nk ~domain:0 ~token:0)

(* Hand a process (and its whole page-table tree) to a tenant: the
   nested kernel claims the user half, and the space's next ASID comes
   from the tenant's own partition. *)
let adopt_domain t (p : Proc.t) ~domain =
  let vm = p.Proc.vm in
  let* () =
    match t.nk with
    | None -> Ok ()
    | Some nk -> (
        match
          Nested_kernel.Api.nk_domain_adopt nk ~domain ~root:vm.Vmspace.root
        with
        | Ok () -> Ok ()
        | Error _ -> Error Ktypes.Eacces)
  in
  vm.Vmspace.domain <- domain;
  (match t.env.Vmspace.asids with
  | Some pool when vm.Vmspace.asid <> 0 ->
      Asid_pool.free pool ~asid:vm.Vmspace.asid ~stamp:vm.Vmspace.asid_stamp;
      vm.Vmspace.asid <- 0;
      vm.Vmspace.asid_stamp <- 0
  | _ -> ());
  Ok ()

let switch_to t pid =
  match Hashtbl.find_opt t.procs pid with
  | None -> Error Ktypes.Esrch
  | Some p -> (
      let* () = enter_vm_domain t p.Proc.vm in
      match load_vm_root t p.Proc.vm with
      | Ok () ->
          t.running.(Smp.active t.smp) <- Some pid;
          Machine.count_ev t.machine Nktrace.Context_switch;
          Ok ()
      | Error _ -> Error Ktypes.Efault)

let fork_proc t (parent : Proc.t) =
  Machine.charge t.machine cost_proc_create;
  let* vm = Vmspace.fork t.env parent.Proc.vm in
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let* node =
    match Proclist.insert t.allproc pid with
    | Ok node -> Ok node
    | Error e ->
        Vmspace.destroy t.env vm;
        Error e
  in
  let child = Proc.make ~pid ~parent:parent.Proc.pid ~vm ~node_va:node () in
  Hashtbl.replace t.procs pid child;
  (match t.shadow with
  | Some s -> ignore (Shadow_proc.on_insert s pid ~node_va:node)
  | None -> ());
  Machine.count_ev t.machine Nktrace.Fork;
  Ok pid

let exec_proc t (p : Proc.t) ~text_pages ~data_pages ~stack_pages =
  Machine.charge t.machine cost_exec_load;
  Vmspace.exec_reset t.env p.Proc.vm ~text_pages ~data_pages ~stack_pages

let exit_proc t (p : Proc.t) code =
  Machine.charge t.machine cost_proc_exit;
  (* One close path for every descriptor kind: drop the table's
     reference and let each description's own close op run when the
     count hits zero. *)
  Fdtable.iter (fun _ d -> ignore (Fdesc.release d)) p.Proc.fds;
  Fdtable.clear p.Proc.fds;
  (* Switch to the kernel pmap before tearing down the dying address
     space — CR3 must never point into retired page tables. *)
  if Cr.root_frame t.machine.Machine.cr = p.Proc.vm.Vmspace.root then
    ignore (load_kernel_root t);
  Vmspace.destroy t.env p.Proc.vm;
  p.Proc.pstate <- Proc.Zombie;
  p.Proc.exit_code <- Some code;
  ignore (Proclist.set_state t.allproc ~node:p.Proc.node_va 1);
  Machine.count_ev t.machine Nktrace.Exit

let wait_proc t (parent : Proc.t) =
  Machine.charge t.machine cost_proc_reap;
  let zombie =
    Hashtbl.fold
      (fun _ (p : Proc.t) acc ->
        match acc with
        | Some _ -> acc
        | None ->
            if p.Proc.parent = parent.Proc.pid && p.Proc.pstate = Proc.Zombie
            then Some p
            else None)
      t.procs None
  in
  match zombie with
  | None -> Error Ktypes.Echild
  | Some child ->
      child.Proc.pstate <- Proc.Reaped;
      ignore (Proclist.remove t.allproc ~node:child.Proc.node_va);
      (match t.shadow with
      | Some s -> ignore (Shadow_proc.on_remove s child.Proc.pid)
      | None -> ());
      t.legit_exits <- child.Proc.pid :: t.legit_exits;
      Hashtbl.remove t.procs child.Proc.pid;
      Ok child.Proc.pid

(* Full tenant teardown, host-driven: exit and reap every process the
   domain still owns (descriptors released exactly once through the
   normal exit path), then have the nested kernel drain the domain's
   deferred unmaps, dissolve its pipes and clear leftover owner marks.
   Returns the number of frames whose owner mark the nested kernel had
   to clear itself — nonzero means the outer kernel leaked frames. *)
let destroy_domain t ~domain =
  if domain = 0 then Error Ktypes.Einval
  else begin
    enter_host_domain t;
    let victims =
      Hashtbl.fold
        (fun _ (p : Proc.t) acc ->
          if proc_domain p = domain then p :: acc else acc)
        t.procs []
      |> List.sort (fun a b -> compare a.Proc.pid b.Proc.pid)
    in
    List.iter
      (fun (p : Proc.t) ->
        if p.Proc.pstate = Proc.Running then exit_proc t p 0;
        if p.Proc.pstate = Proc.Zombie then begin
          p.Proc.pstate <- Proc.Reaped;
          ignore (Proclist.remove t.allproc ~node:p.Proc.node_va);
          (match t.shadow with
          | Some s -> ignore (Shadow_proc.on_remove s p.Proc.pid)
          | None -> ());
          t.legit_exits <- p.Proc.pid :: t.legit_exits;
          Hashtbl.remove t.procs p.Proc.pid
        end)
      victims;
    Hashtbl.remove t.domain_tokens domain;
    match t.nk with
    | None -> Ok 0
    | Some nk -> (
        match Nested_kernel.Api.nk_domain_destroy nk ~domain with
        | Ok leaked -> Ok leaked
        | Error _ -> Error Ktypes.Einval)
  end

(* --- syscall logging (Append_only) -------------------------------- *)

let log_sys_event t (p : Proc.t) sysno dir =
  match t.syslog with
  | None -> ()
  | Some sl ->
      if Nested_kernel.Policy.remaining sl.sl_state < event_bytes then begin
        (* Model of flushing the full log to stable storage. *)
        Nested_kernel.Policy.reset_append sl.sl_state;
        sl.sl_flushes <- sl.sl_flushes + 1;
        Machine.charge t.machine 5_000;
        Machine.count_ev t.machine Nktrace.Syslog_flush
      end;
      (* [sl_record] is a reused scratch: the mediated write path (and
         any write-log policy) copies the bytes before returning, so no
         one retains the buffer across events. *)
      let record = sl.sl_record in
      t.syscall_seq <- t.syscall_seq + 1;
      Bytes.set_int64_le record 0 (Int64.of_int t.syscall_seq);
      let tag =
        (p.Proc.pid lsl 16) lor (sysno lsl 1)
        lor (match dir with `Entry -> 0 | `Exit -> 1)
      in
      Bytes.set_int64_le record 8 (Int64.of_int tag);
      let dest = sl.sl_base + Nested_kernel.Policy.tail sl.sl_state in
      (match Nested_kernel.Api.nk_write sl.sl_nk sl.sl_wd ~dest record with
      | Ok () -> sl.sl_events <- sl.sl_events + 1
      | Error _ -> ());
      Machine.count_ev t.machine Nktrace.Syslog_event

(* --- dispatch ----------------------------------------------------- *)

let register_handler t id fn = Hashtbl.replace t.handlers id fn

let install_syscall t ~sysno ~handler_id =
  Syscall_table.set t.syscall_table ~sysno ~handler_id

let register_argspec t ~sysno spec =
  if sysno >= 0 && sysno < Array.length t.arg_specs then
    t.arg_specs.(sysno) <- Some spec

(* Dispatcher work beyond the bare SYSCALL/SYSRET boundary: argument
   copyin, credential checks, table indexing. *)
let cost_dispatch = 140

let syscall t (p : Proc.t) sysno args =
  (* Per-syscall dispatch-latency span: covers the roundtrip charge,
     table lookup, handler body and log events, so the histogram keyed
     ["sys_<name>"] is the end-to-end cycle cost of one invocation.
     Span values for in-range numbers come from the boot-time cache —
     no per-call variant or name allocation. *)
  let tr = t.machine.Machine.trace in
  let sp =
    if sysno >= 0 && sysno < Array.length t.span_cache then
      t.span_cache.(sysno)
    else Nktrace.Syscall_dispatch (Ktypes.syscall_name sysno)
  in
  Nktrace.span_begin tr sp;
  Machine.charge t.machine
    (t.machine.Machine.costs.Costs.syscall_roundtrip + cost_dispatch);
  Machine.count_ev t.machine Nktrace.Syscall;
  log_sys_event t p sysno `Entry;
  (* Dispatcher-level faults: a transient kernel failure surfaces to
     the caller as a plain errno before the handler runs — the coarse
     model of any mid-syscall allocation the handler would have made
     failing at its first step. *)
  let injected =
    if Nkinject.fire_opt t.inject Nkinject.Sys_enomem then Some Ktypes.Enomem
    else if Nkinject.fire_opt t.inject Nkinject.Sys_efault then
      Some Ktypes.Efault
    else None
  in
  (* Table-driven argument validation: a handler with a registered
     spec never sees a malformed vector — wrong arity or a mistyped
     position is EINVAL here, uniformly, instead of each handler
     silently substituting defaults. *)
  let args_ok =
    if sysno >= 0 && sysno < Array.length t.arg_specs then
      match t.arg_specs.(sysno) with
      | Some spec -> Ktypes.check_args spec args
      | None -> true
    else true
  in
  (* The errno path threads through shared constants ([Ktypes.err] and
     the packed [Syscall_table.lookup]) — a failing syscall allocates
     nothing between dispatch entry and the caller's [Error]. *)
  let result =
    match injected with
    | Some e -> Ktypes.err e
    | None when not args_ok -> Error Ktypes.Einval
    | None -> (
        let id = Syscall_table.lookup t.syscall_table ~sysno in
        if id < 0 then Error Ktypes.Efault
        else if id = 0 then Error Ktypes.Enosys
        else
          match Hashtbl.find t.handlers id with
          | exception Not_found -> Error Ktypes.Enosys
          | h -> h t p args)
  in
  log_sys_event t p sysno `Exit;
  Nktrace.span_end tr sp;
  result

(* --- user memory and faults -------------------------------------- *)

let trap_cost t =
  t.machine.Machine.costs.Costs.trap_roundtrip
  +
  match t.nk with
  | Some nk -> Nested_kernel.Api.trap_overhead nk
  | None -> 0

let touch_user t (p : Proc.t) va kind =
  let attempt () =
    match kind with
    | Fault.Read | Fault.Exec ->
        Result.map (fun (_ : int) -> ()) (Machine.read_u8 t.machine ~ring:Mmu.User va)
    | Fault.Write -> Machine.write_u8 t.machine ~ring:Mmu.User va 0xAB
  in
  let rec go tries =
    match attempt () with
    | Ok () -> Ok ()
    | Error _ when tries > 0 -> (
        Machine.charge t.machine (trap_cost t);
        match Vmspace.handle_fault t.env p.Proc.vm va kind with
        | Ok () -> go (tries - 1)
        | Error e -> Error e)
    | Error _ -> Error Ktypes.Efault
  in
  go 2

let user_write_bytes t (p : Proc.t) va data =
  let rec go va data tries =
    match Machine.write_bytes t.machine ~ring:Mmu.User va data with
    | Ok () -> Ok ()
    | Error (Fault.Page_fault { va = fva; _ }) when tries > 0 -> (
        Machine.charge t.machine (trap_cost t);
        match Vmspace.handle_fault t.env p.Proc.vm fva Fault.Write with
        | Ok () -> go va data (tries - 1)
        | Error e -> Error e)
    | Error _ -> Error Ktypes.Efault
  in
  go va data (2 + (Bytes.length data / Addr.page_size))

(* --- signals ------------------------------------------------------ *)

let deliver_signal t (p : Proc.t) signal =
  match Hashtbl.find_opt p.Proc.sighandlers signal with
  | None -> Ok () (* default action: ignore, for the benchmark's purposes *)
  | Some _tag ->
      Machine.charge t.machine (trap_cost t + cost_sig_frame);
      (* Push the signal frame onto the user stack. *)
      let frame = Bytes.make 128 '\000' in
      let sp = Vmspace.user_stack_top - 512 in
      let* () = user_write_bytes t p sp frame in
      Machine.charge t.machine cost_sig_handler_run;
      (* sigreturn *)
      Machine.charge t.machine t.machine.Machine.costs.Costs.syscall_roundtrip;
      Machine.count_ev t.machine Nktrace.Signal_delivered;
      Ok ()

(* --- inspection --------------------------------------------------- *)

let ps t = Proclist.pids t.allproc
let ps_shadow t = Option.map Shadow_proc.pids t.shadow
