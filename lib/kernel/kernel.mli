open Nkhw

(** The outer kernel: a small monolithic kernel over the simulated
    machine, bootable in each of the paper's five configurations.

    The kernel owns process management, the VM subsystem, the VFS, the
    system-call table and dispatcher, and signals; all of its MMU
    updates flow through the configured {!Mmu_backend}. *)

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
  shadow : Shadow_proc.t option;  (** Write_log configuration *)
  syscall_table : Syscall_table.t;
  handlers : (int, handler) Hashtbl.t;
  arg_specs : Ktypes.arg_kind list option array;
      (** per-syscall argument specs checked by the dispatcher, indexed
          by syscall number (flat array: the steady-state lookup
          allocates nothing) *)
  span_cache : Nktrace.span array;
      (** boot-built [Syscall_dispatch] span per syscall number, so
          dispatch tracing reuses one span value instead of consing a
          variant (and its name) per call *)
  syslog : syscall_log option;  (** Append_only configuration *)
  procs : (Ktypes.pid, Proc.t) Hashtbl.t;
  smp : Smp.t;  (** per-CPU contexts, mailboxes and the executor substrate *)
  running : Ktypes.pid option array;
      (** per-CPU dispatch slots, indexed by CPU id — the scheduling
          source of truth; there is no global current process *)
  inject : Nkinject.t option;
      (** the run's fault injector, shared by every wired subsystem *)
  domain_tokens : (int, int) Hashtbl.t;
      (** tenant entry tokens — the host's capability store *)
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
      (** reused 16-byte event scratch; every consumer of the mediated
          write path copies before returning *)
  mutable sl_events : int;
  mutable sl_flushes : int;
}

val boot :
  ?frames:int -> ?batched:bool -> ?pcid:bool -> ?trace:bool -> ?cpus:int ->
  ?domains:int -> ?inject:Nkinject.t -> Config.t -> t
(** Boot the machine and kernel in the given configuration.  The
    system-call table is empty; {!Syscalls.install_all} (or {!Os.boot})
    populates it.  [batched] selects the batched vMMU backend
    (section 5.4 ablation; nested configurations only).  [pcid]
    (default on) enables CR4.PCIDE and tagged address-space switching
    backed by an ASID pool; turn it off for the ablation baseline.
    [trace] (default off) enables the cycle-stamped
    {!Nktrace} tracer on the machine from the first instruction;
    tracing charges no simulated cycles either way.  [cpus] (default 1)
    brings up that many CPUs: CPU 0 boots init (pid 1), the application
    processors come up idle with their own kernel stacks, control
    registers and TLBs, ready for {!Sched} run queues.  CPU sets are
    int bitmasks, so [cpus] above [Sys.int_size] (63) raises
    [Invalid_argument] before anything is allocated.  [inject]
    attaches a deterministic fault injector ({!Nkinject}) to every
    wired subsystem — frame allocator, IPI fabric, ASID pool, nested-
    kernel gate and heap, MMU backend, syscall dispatcher; it is
    disarmed for the duration of boot itself, then restored, so boot
    always succeeds and faults start with the first post-boot
    operation.  [domains] (default 0) sizes the ASID pool for that many
    tenant domains — each tenant (and the host) gets its own
    partition, so a recycled tag never crosses domains. *)

(** {1 Tenant domains}

    The outer kernel is the host (domain 0): it creates tenants, holds
    their entry tokens, and switches the nested kernel's current
    domain as it dispatches.  Without a nested kernel, domains are
    plain scheduling/ASID labels, so the same multi-tenant workload
    runs in every configuration. *)

val proc_domain : Proc.t -> int

val create_domain : t -> (int, Ktypes.errno) result
(** Register a new tenant; its entry token stays in [domain_tokens]. *)

val adopt_domain : t -> Proc.t -> domain:int -> (unit, Ktypes.errno) result
(** Hand a process to a tenant: the nested kernel claims its page-table
    tree's user half, and its next ASID comes from the tenant's own
    partition. *)

val destroy_domain : t -> domain:int -> (int, Ktypes.errno) result
(** Exit and reap every process of the tenant, then tear the domain
    down in the nested kernel (deferred unmaps drained, pipes
    dissolved, token killed).  Returns the count of frames whose owner
    mark the nested kernel had to clear — nonzero means the outer
    kernel leaked frames. *)

val enter_vm_domain : t -> Vmspace.t -> (unit, Ktypes.errno) result
(** Make the nested kernel's current domain match the space's owner (a
    same-domain dispatch is one integer compare); {!switch_to} calls
    this before every address-space load. *)

val current_proc_opt : t -> Proc.t option
(** The process running on the active CPU, or [None] when that CPU is
    idle — an ordinary state under the SMP executor; trap and IPI
    handlers on an idle CPU must use this, never {!current_proc}. *)

val current_proc : t -> Proc.t
(** [current_proc_opt] for contexts that know a process is running
    (e.g. right after boot on the boot CPU); raises [Failure] if the
    CPU is in fact idle. *)

val proc : t -> Ktypes.pid -> Proc.t option

val register_handler : t -> int -> handler -> unit
val install_syscall : t -> sysno:int -> handler_id:int -> (unit, string) result

val register_argspec : t -> sysno:int -> Ktypes.arg_kind list -> unit
(** Declare the argument vector the syscall accepts; the dispatcher
    rejects any call that doesn't match with [Einval] before the
    handler runs. *)

val syscall :
  t -> Proc.t -> int -> Ktypes.sysarg list -> (int, Ktypes.errno) result
(** Full dispatch path: boundary cost, (configured) entry/exit event
    logging, table lookup, handler execution. *)

val switch_to : t -> Ktypes.pid -> (unit, Ktypes.errno) result
(** Context switch on the active CPU: load the target's address-space
    root (through the ASID/PCID path when enabled) and update that
    CPU's dispatch slot. *)

val fork_proc : t -> Proc.t -> (Ktypes.pid, Ktypes.errno) result
val exec_proc :
  t -> Proc.t -> text_pages:int -> data_pages:int -> stack_pages:int ->
  (unit, Ktypes.errno) result
val exit_proc : t -> Proc.t -> int -> unit
val wait_proc : t -> Proc.t -> (Ktypes.pid, Ktypes.errno) result

val touch_user :
  t -> Proc.t -> Addr.va -> Fault.access_kind -> (unit, Ktypes.errno) result
(** One user-mode access with full fault handling: a miss costs a trap
    (plus the nested-kernel trap-gate overhead when active) and runs
    the VM fault handler, then retries. *)

val deliver_signal : t -> Proc.t -> int -> (unit, Ktypes.errno) result
(** Signal delivery to the current process: trap cost, signal-frame
    push onto the user stack, handler execution, sigreturn. *)

val ps : t -> (Ktypes.pid * int) list
(** Stock ps: walks [allproc]. *)

val ps_shadow : t -> Ktypes.pid list option
(** Shadow-aware ps (Write_log configuration only). *)
