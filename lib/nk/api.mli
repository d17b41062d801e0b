open Nkhw

(** Facade over the nested kernel: the public API an outer kernel (or
    an example program) uses day to day.  Thin re-exports of {!Init},
    {!Vmmu} and {!Wp_service} plus a few convenience wrappers. *)

type t = State.t
type wd = State.wd

val boot : ?layout:Init.boot_layout -> Machine.t -> (t, string) result
val boot_exn : ?layout:Init.boot_layout -> Machine.t -> t

(** {1 vMMU (paper Table 2)} *)

val declare_ptp : t -> level:int -> Addr.frame -> (unit, Nk_error.t) result

val write_pte :
  t -> ptp:Addr.frame -> index:int -> Pte.t -> (unit, Nk_error.t) result
(** The former [?va] shootdown hint is gone: the vMMU derives the
    shootdown scope from its own reverse maps (see {!Vmmu.write_pte}). *)

val write_pte_batch :
  t -> (Addr.frame * int * Pte.t) list -> (unit, Nk_error.t) result

val remove_ptp : t -> Addr.frame -> (unit, Nk_error.t) result
val load_cr0 : t -> int -> (unit, Nk_error.t) result
val load_cr3 : t -> Addr.frame -> (unit, Nk_error.t) result

val load_cr3_pcid : t -> pcid:int -> Addr.frame -> (unit, Nk_error.t) result
(** Tagged switch: no TLB flush when the (pcid, root) pair is clean —
    see {!Vmmu.load_cr3_pcid}. *)

val load_cr4 : t -> int -> (unit, Nk_error.t) result
val load_efer : t -> int -> (unit, Nk_error.t) result

(** {1 Write-protection service (paper Table 1)} *)

val nk_declare :
  t -> base:Addr.va -> size:int -> Policy.t -> (wd, Nk_error.t) result

val nk_alloc :
  t -> size:int -> Policy.t -> (wd * Addr.va, Nk_error.t) result

val nk_free : t -> wd -> (unit, Nk_error.t) result
val nk_write : t -> wd -> dest:Addr.va -> bytes -> (unit, Nk_error.t) result
val nk_read : t -> wd -> src:Addr.va -> len:int -> (bytes, Nk_error.t) result

val nk_emulate_colocated_write :
  t -> dest:Addr.va -> bytes -> (unit, Nk_error.t) result
(** Trap-and-emulate for unprotected data co-located on protected
    pages (paper section 3.8) — see {!Wp_service.emulate_colocated_write}. *)

(** {1 Code integrity} *)

val validate_code : bytes -> (unit, Nk_error.t) result

val install_code :
  t -> frames:Addr.frame list -> bytes -> (unit, Nk_error.t) result

val retire_code : t -> frames:Addr.frame list -> (unit, Nk_error.t) result

(** {1 Introspection} *)

val audit : t -> Invariants.violation list
val audit_ok : t -> bool

val nk_root_of_asid : t -> int -> Addr.frame option
(** The root a PCID is currently bound to, per the vMMU's clean-pair
    table — the ASID resolver the coherence oracle uses.  Apply it to
    [t] once and keep the resolver: it memoizes its answers so that a
    repeated one allocates nothing. *)

val nk_flush_deferred : t -> Addr.frame -> unit
(** Fire any lazy unmap invalidations still pending on this frame —
    the reuse barrier kernel boot wires into the outer frame
    allocator's [on_alloc] hook.  See {!Vmmu.flush_deferred_frame}. *)

val nk_flush_all_deferred : t -> unit
(** Drain the whole deferred-invalidation queue. *)

val nk_deferred_live : t -> int
(** Number of pending lazy-invalidation records. *)

val nk_is_deferred : t -> vpage:int -> Tlb.entry -> bool
(** The oracle exemption predicate: is this cached translation one of
    the declared pending lazy invalidations?  See {!State.is_deferred}. *)

(** {1 Tenant domains}

    N mutually distrusting outer domains above one nested kernel
    (ROADMAP item 5).  Domain 0 is the host; see {!Domain} for the
    model.  Every mediated MMU operation above also enforces the
    ownership lattice (I14) against the current domain. *)

val nk_domain_create : t -> (int * int, Nk_error.t) result
val nk_domain_enter : t -> domain:int -> token:int -> (unit, Nk_error.t) result
val nk_domain_destroy : t -> domain:int -> (int, Nk_error.t) result
val nk_domain_adopt :
  t -> domain:int -> root:Addr.frame -> (unit, Nk_error.t) result

val nk_domain_current : t -> int
val nk_domain_denials : t -> int -> int

val nk_pipe_open :
  t -> ?cap:int -> src:int -> dst:int -> unit -> (unit, Nk_error.t) result

val nk_pipe_send : t -> dst:int -> int -> (unit, Nk_error.t) result
val nk_pipe_recv : t -> src:int -> (int option, Nk_error.t) result

val nk_request_shootdown :
  t -> Machine.shootdown_scope -> (unit, Nk_error.t) result

val nk_frame_released : t -> Addr.frame -> unit
(** Owner-release hook for the outer frame allocator's on-free path. *)

val nk_frame_owner : t -> Addr.frame -> int

(** Out-of-band diagnostic instruments, behind one uniform
    enable/disable/snapshot surface.  Neither instrument ever charges
    simulated cycles, so they can stay on during measurement runs
    without perturbing them. *)
module Diagnostics : sig
  (** The differential TLB-coherence oracle ({!Nkhw.Coherence}). *)
  module Coherence : sig
    val enable :
      ?on_violation:(Coherence.violation list -> unit) -> t -> unit
    (** Install the oracle on this instance's machine, resolving parked
        ASIDs through the vMMU's PCID-root bindings and exempting the
        declared pending lazy invalidations ({!nk_is_deferred}).
        Raises [Coherence.Violation] on any stale-and-more-permissive
        cached translation unless [on_violation] is given. *)

    val disable : t -> unit

    val snapshot : ?op:string -> t -> Coherence.violation list
    (** One-shot full audit of every TLB against the live page tables,
        under the same resolver and deferred exemption as {!enable};
        [op] tags any violations found. *)
  end

  (** The cycle-stamped event tracer ({!Nktrace}). *)
  module Tracing : sig
    val tracer : t -> Nktrace.t
    (** The machine's tracer, for direct observation calls. *)

    val enable : t -> unit
    val disable : t -> unit
    val clear : t -> unit
    val snapshot : t -> Nktrace.snapshot
  end
end

val machine : t -> Machine.t
val outer_first_frame : t -> Addr.frame
val denied_writes : t -> int

val trap_overhead : t -> int
(** Cycle cost the trap gate adds to every interrupt/trap delivery. *)

val nk_null : t -> (unit, Nk_error.t) result
(** An empty nested-kernel operation: a full entry/exit gate crossing
    around a null body — the paper's Table 3 microbenchmark. *)

val set_inject : t -> Nkinject.t option -> unit
(** Attach (or detach) a fault injector to the nested kernel's own
    fallible internals: the entry gate ([Gate_denied]) and the
    protected heap ([Pheap_exhausted]).  Mediated PTE writes are
    injected one layer up, in the outer kernel's [Mmu_backend]. *)
