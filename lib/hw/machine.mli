(** The machine: physical memory, control registers, MMU + TLB, one
    CPU, an IDT register, an IOMMU, pending-interrupt state, the SMM
    handler owner, and a cycle clock.

    All memory accessors here go {e through the MMU} with full
    permission checking and cost accounting — they model loads and
    stores executed by code running on the CPU at the given ring.  Raw
    physical access (DRAM, devices) lives in {!Phys_mem} and {!Dma}. *)

type smm_owner =
  | Smm_nested_kernel  (** the nested kernel controls the SMI handler *)
  | Smm_unprotected  (** anybody may install an SMI handler (native) *)

(** Shootdown target scope.  [Broadcast] flushes (and charges an IPI
    for) every peer CPU — the legacy behaviour, and the only sound
    choice when the affected VA range may carry kernel/global
    mappings.  [Asids asids] targets only the CPUs the residency
    bookkeeping says have run one of those ASIDs since last flushing
    it, {e plus} any parked TLB whose occupancy probe still finds a
    live entry in the flushed range — so filtering can never skip a
    CPU that actually caches the translation. *)
type shootdown_scope =
  | Broadcast
  | Asids of int list
  | Cpuset of int
      (** exact CPU bitmask pinned down when the invalidation was
          decided (deferred unmaps: later-resident CPUs walked the
          already-cleared PTE), still occupancy-backstopped *)

type t = {
  mem : Phys_mem.t;
  mutable cr : Cr.t;  (** the {e active} CPU's control registers *)
  mutable tlb : Tlb.t;  (** the active CPU's TLB *)
  clock : Clock.t;
  costs : Costs.t;
  iommu : Iommu.t;
  mutable cpu : Cpu_state.t;  (** the active CPU's architectural state *)
  mutable cur_cpu : int;
      (** id of the CPU currently driving the machine; 0 on the boot
          CPU, maintained by {!Smp.activate}.  Per-CPU bookkeeping
          (gate depth, trace spans) keys off this *)
  mutable peer_tlbs : Tlb.t array;
      (** TLBs of the other (inactive) CPUs; protection downgrades
          shoot these down too *)
  mutable peer_crs : Cr.t array;
      (** control registers of the other (inactive) CPUs; the gate's
          WP-isolation invariant audits these *)
  mutable peer_ids : int array;
      (** CPU ids matching [peer_tlbs] position-for-position; {!Smp}
          maintains it (refilled in place on context switch) so scoped
          shootdowns can consult residency and report which peers were
          actually IPI'd *)
  asid_residency : int array;
      (** per-ASID bitmask of CPUs that have run under that ASID since
          their last flush of it, indexed by the 12-bit PCID; drives
          ASID-scoped shootdown targeting.  Over-approximation is
          sound (costs an IPI, never a stale entry) *)
  mutable max_res_asid : int;
      (** upper bound on ASIDs with a possibly-nonzero residency mask;
          bounds the sweep of CPU-wide clears *)
  mutable global_residency : int;
      (** bitmask of CPUs that may cache global entries *)
  mutable res_memo_asid : int;
      (** memo of the last (asid, cpu) noted, so the hot access path
          pays two integer compares; [-1] = invalid *)
  mutable res_memo_cpu : int;
  mutable shoot_targets : int array;
      (** scratch holding the peer CPU ids flushed by the shootdown in
          progress — valid in [0 .. shoot_ntargets-1] when the notify
          hook fires; reused across shootdowns so none allocates *)
  mutable shoot_ntargets : int;
  mmu_fault : Fault.t ref;
      (** fault cell the packed translation path writes through; holds
          the cause of the most recent negative {!translate_fast}
          result *)
  msrs : (int, int) Hashtbl.t;
  mutable idtr : Addr.va option;  (** base VA of the 256-entry IDT *)
  mutable pending_interrupts : int list;
  mutable smm_owner : smm_owner;
  mutable smi_handler : (t -> unit) option;
      (** installed SMI payload; runs with paging semantics off *)
  mutable in_nested_kernel : bool;
      (** diagnostic marker maintained by the gates; carries no
          enforcement power *)
  mutable last_trap : (int * Fault.t option) option;
      (** vector and cause of the most recently delivered trap *)
  mutable coherence_hook : (op:string -> va:Addr.va -> unit) option;
      (** differential-oracle callback (see {!Coherence}): [va >= 0]
          targets one translation, [va = -1] asks for a full audit (an
          int sentinel so the per-access fire allocates nothing).
          [None] by default, in which case every check site is a
          single match with zero cost *)
  mutable shootdown_notify : (unit -> unit) option;
      (** fired once per shootdown; the peer CPU ids actually flushed
          are in [shoot_targets.(0 .. shoot_ntargets-1)], so the SMP
          layer can post [Shootdown] IPIs into exactly those mailboxes
          without a per-shootdown list.  Not fired when filtering
          leaves no targets.  Pure host-side bookkeeping: must never
          charge simulated cycles *)
  trace : Nktrace.t;
      (** typed event tracer, cycle source wired to [clock]; disabled
          by default, in which case every emission site is one boolean
          test.  Tracing never charges simulated cycles. *)
}

val create : ?frames:int -> unit -> t
(** Fresh machine with paging disabled; [frames] defaults to 8192
    (32 MiB). *)

val restore : src:t -> t -> unit
(** [restore ~src dst] copies [src]'s state into [dst]'s existing
    objects: memory, clock, IOMMU, MSRs, residency tables, interrupt,
    SMM and trap state, the trace counters, [cur_cpu], and the contents
    of the active view ([cr], [tlb], [cpu]) into the objects [dst]'s
    view points at.  Left as they are: [dst]'s peer arrays (see
    {!Smp.restore}), its [coherence_hook] and [shootdown_notify], which
    close over [dst] itself, and the trace ring.  The two machines must
    have the same number of frames. *)

val msr_efer : int

val charge : t -> int -> unit

val count_ev : t -> Nktrace.counter -> unit
(** Count a typed architectural event in the {!Nktrace} registry.
    Counters are always live; the cycle-stamped ring entry is recorded
    only while tracing is enabled.  Never charges simulated cycles. *)

val read_u8 : t -> ring:Mmu.ring -> Addr.va -> (int, Fault.t) result
val write_u8 : t -> ring:Mmu.ring -> Addr.va -> int -> (unit, Fault.t) result
val read_u64 : t -> ring:Mmu.ring -> Addr.va -> (int, Fault.t) result
val write_u64 : t -> ring:Mmu.ring -> Addr.va -> int -> (unit, Fault.t) result

val write_bytes : t -> ring:Mmu.ring -> Addr.va -> bytes -> (unit, Fault.t) result
(** Bulk accesses check permissions on every page they touch and charge
    bulk-copy costs. *)

val kread_u64 : t -> Addr.va -> (int, Fault.t) result
val kwrite_u64 : t -> Addr.va -> int -> (unit, Fault.t) result
val kread_bytes : t -> Addr.va -> int -> (bytes, Fault.t) result
val kwrite_bytes : t -> Addr.va -> bytes -> (unit, Fault.t) result
(** Supervisor-ring shorthands: accesses issued by kernel code. *)

val kread_word : t -> Addr.va -> int
(** [kread_u64] packed into a bare int: the word value ([>= 0]) or [-1]
    when the translation faults.  Identical cycle charges and TLB
    traffic; allocates nothing — the steady-state read for dispatch
    hot paths like the syscall vector table. *)

val flush_full : t -> unit
(** Local CR3-reload-style flush: non-global entries of every ASID.
    Charges [tlb_flush_full], counts ["tlb_flush_full"] and drops the
    current CPU from every ASID's residency mask. *)

val flush_asid : t -> asid:int -> unit
(** Local INVPCID single-context flush.  Charges [invpcid], counts
    ["tlb_flush_asid"] and drops the current CPU from that ASID's
    residency mask. *)

val shootdown_page : ?scope:shootdown_scope -> t -> vpage:int -> unit
(** Flush one page from the local TLB and IPI the peer CPUs in [scope]
    (default [Broadcast]) to do the same, charging the per-peer
    shootdown cost for each peer actually flushed and counting
    ["shootdown_sent"]/["shootdown_filtered"] per peer. *)

val shootdown_span : ?scope:shootdown_scope -> t -> vpage:int -> count:int -> unit
(** Flush [count] consecutive pages locally and on every targeted peer
    — the shootdown a 2 MiB-leaf downgrade needs, since its constituent
    4 KiB translations are cached individually.  Charges per-page
    INVLPG cost capped at one full flush, and counts
    ["tlb_flush_span"]. *)

val shootdown_all : t -> unit
(** Full local flush — all ASIDs {e and} global entries, since a
    downgrade with unknown VA may affect kernel mappings — plus a
    broadcast shootdown.  Always broadcast: with no VA there is
    nothing to filter against.  Clears residency (globals included)
    for the local CPU and every flushed peer. *)

val shootdown_asid : t -> asid:int -> unit
(** Remote-capable {!flush_asid}: flush the ASID locally and on every
    peer CPU that is resident for it (or whose parked TLB still holds
    a live entry under it), then retire the ASID's residency mask.
    Required before re-binding an ASID to a different root — a
    local-only INVPCID would leave parked peers caching translations
    for the old address space under the recycled tag. *)

val note_asid_active : t -> unit
(** Record the active (CPU, ASID) pair in the residency table —
    called at CR3 loads so the CPU joins the shootdown target set
    before its first access fills anything.  Free of simulated cost. *)

val residency : t -> asid:int -> int
(** Current residency bitmask for [asid] (bit [i] = CPU [i]); [0] when
    no CPU has run it since its last ASID-wide flush.  For tests and
    diagnostics. *)

val coherence_check : t -> op:string -> unit
(** Fire the installed coherence hook (if any) for a full cross-check
    of every cached TLB entry against the live page tables.  [op] tags
    the event for violation reports. *)

val raise_interrupt : t -> int -> unit
(** Queue an external interrupt vector. *)

val idt_entry_va : t -> int -> Addr.va option
(** VA of IDT slot [vector], when an IDT is loaded. *)

val read_idt_entry : t -> int -> (Addr.va, Fault.t) result
(** Handler address stored in IDT slot [vector]; a supervisor read
    through the MMU, as the hardware performs at delivery. *)
