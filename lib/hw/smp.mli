(** SMP: multiple logical CPUs multiplexed over one machine.

    Each CPU is a first-class context — registers, control registers
    (so CR0.WP is genuinely per-CPU, the fact Invariant I13 turns on),
    TLB, an IPI mailbox, and a local cycle account.  Exactly one CPU
    drives the machine at a time; the rest stay live as shootdown and
    IPI targets.  This models the multiprocessor setting of the
    paper's sections 3.2 and 5: while CPU 1 runs inside the nested
    kernel with WP clear, CPU 0 still has WP set and its stores to
    nested-kernel memory fault.

    {!Executor} advances CPUs under a deterministic interleaving
    policy — round-robin or seeded-random — so any concurrency bug it
    finds replays from a single seed. *)

type cpu_id = int

(** Inter-processor interrupts delivered through per-CPU mailboxes. *)
type ipi =
  | Reschedule  (** target should re-examine its run queue; wakes idle CPUs *)
  | Shootdown
      (** TLB-invalidation acknowledgement obligation (the flush itself
          is synchronous in {!Machine}); must drain before the target
          runs a migrated process *)
  | Halt  (** target parks after draining *)

type ctx = {
  id : cpu_id;
  cpu : Cpu_state.t;
  cr : Cr.t;
  tlb : Tlb.t;
  mailbox : ipi Queue.t;
  delayed : ipi Queue.t;
      (** IPIs an {!Nkinject.Ipi_delay} fault deferred; they enter the
          mailbox at the next drain, one drain later than an undelayed
          send *)
  mutable local_cycles : int;
      (** cycles accumulated while this CPU was driving the machine *)
  mutable shootdowns_rx : int;  (** shootdown IPIs ever posted to this CPU *)
  mutable halted : bool;
}

type t

val create : Machine.t -> t
(** Wrap the machine's boot CPU as CPU 0 (active) and install the
    shootdown-notify hook that posts [Shootdown] IPIs into the
    mailboxes of exactly the peers the machine flushed — under scoped
    shootdowns a residency-filtered peer receives nothing (pure
    bookkeeping; charges nothing). *)

val add_cpu : t -> cpu_id
(** Bring up another CPU: it inherits the current control-register
    values (the nested kernel configured them at boot) but gets fresh
    registers and an empty TLB, which from now on receives
    shootdowns.  Ids are dense: 1, 2, ... *)

val cpu_count : t -> int
val active : t -> cpu_id

val ctx : t -> cpu_id -> ctx
(** The per-CPU context (live view — the active CPU's [cpu]/[cr]/[tlb]
    are the machine's own).  Raises [Invalid_argument] for unknown
    ids. *)

val cpu_state : t -> cpu_id -> Cpu_state.t
(** Register file of [cpu_id]; the kernel writes an AP's RSP here
    before first dispatch. *)

val local_cycles : t -> cpu_id -> int
(** Cycles the global clock advanced while [cpu_id] was active
    (including the current tenure). *)

val shootdowns_rx : t -> cpu_id -> int
val pending_ipis : t -> cpu_id -> int
val halted : t -> cpu_id -> bool

val activate : t -> cpu_id -> unit
(** Make [cpu_id] the machine's view: repoints register file, control
    registers and TLB, fixes up the peer TLB/CR lists, retags the
    tracer, counts one [cpu_migration].  No-op if already active.
    Raises [Invalid_argument] for unknown ids. *)

val with_cpu : t -> cpu_id -> (unit -> 'a) -> 'a
(** Run [f] with [cpu_id] active, then switch back.  The round trip
    counts once as [smp_borrow] and never as [cpu_migration], so
    migration counts track real scheduling moves only. *)

val send_ipi : t -> target:cpu_id -> ipi -> unit
(** Post an IPI into [target]'s mailbox and charge the sender one
    cross-CPU interrupt.  [Reschedule] additionally un-halts the
    target.  Under an attached injector, [Ipi_drop] loses the IPI and
    [Ipi_delay] defers it to the target's next mailbox drain (a
    delayed [Reschedule] still un-halts immediately — the wake-up
    line is level-triggered); the sender is charged either way. *)

val drain_ipis : t -> cpu_id -> ipi list
(** Empty [cpu_id]'s mailbox, applying [Halt]s, and return what was
    drained in arrival order.  Injected-delay IPIs then move from the
    delay queue into the (now empty) mailbox for the next drain. *)

val set_inject : t -> Nkinject.t option -> unit
(** Attach a fault injector to the IPI fabric ([Ipi_drop] /
    [Ipi_delay] sites, covering both explicit sends and the
    shootdown-notify hook). *)

val pending_delayed : t -> cpu_id -> int

type smp = t
(** Alias so {!Executor} can name the SMP complex alongside its own [t]. *)

(** Deterministic multi-CPU executor: advances one CPU per step under
    a policy that is a pure function of the seed, so the interleaving
    (and therefore every trace and bench number) reproduces exactly. *)
module Executor : sig
  type policy =
    | Round_robin
    | Seeded of int  (** pseudo-random pick, reproducible from the seed *)

  type t

  val create : smp -> policy -> t

  val run :
    t ->
    ?max_steps:int ->
    quantum:(cpu_id -> [ `Ran | `Idle | `Halted ]) ->
    unit ->
    int
  (** Step until every CPU halts (or [max_steps]); returns the number
      of steps taken. *)

  val steps : t -> int
  (** Total steps taken so far. *)
end
