open Nkhw

(** Virtual privilege switches: the nested-kernel entry, exit and trap
    gates (paper Figures 2 and 3, section 3.6).

    The gates are real machine code installed in nested-kernel code
    pages.  The entry gate saves flags, disables interrupts, clears
    CR0.WP, and switches to the secure nested-kernel stack; the exit
    gate restores the caller's stack, sets CR0.WP {e and loops until it
    observes the bit set} — the check that defeats a jump into the
    gate's [mov %rax, %cr0] with a WP-clearing value in RAX (section
    3.7); the trap gate re-enables WP before any outer-kernel
    interrupt/trap handler can run (Invariant I11).

    Gate crossings are interpreted instruction-by-instruction on the
    machine for the first crossings (and always when [strict] is set);
    thereafter the measured cycle cost is replayed and the
    architectural effects (WP toggle, stack switch) applied directly,
    which keeps multi-million-crossing benchmarks tractable without
    changing machine state semantics. *)

type t = {
  entry_va : Addr.va;
  exit_va : Addr.va;
  trap_va : Addr.va;
  secure_stack_top : Addr.va;
  code_len : int;  (** bytes of gate code installed *)
  mutable strict : bool;  (** always interpret, never fast-path *)
  mutable entry_cost : int option;
  mutable exit_cost : int option;
  mutable trap_cost : int option;
  mutable crossings : int;
  mutable fast_rsp : int array array;
  mutable fast_flags : int array array;
  mutable fast_depth : int array;
      (** per-CPU (caller rsp, caller flags) stacks for fast-path
          crossings as parallel int arrays indexed by
          [Machine.cur_cpu], live depth in [fast_depth]: concurrent
          syscalls on different CPUs pair their enters and exits
          independently, and a steady-state crossing allocates
          nothing *)
  mutable wp_isolation_failures : int;
      (** times a peer CPU was observed with CR0.WP clear while this
          CPU crossed a gate; must stay 0 — one CPU's open gate never
          relaxes another CPU's protection *)
  mutable inject : Nkinject.t option;
      (** fault injector for the [Gate_denied] site; a denied entry
          refuses the crossing before touching any state *)
}

val callout_exit_done : int
val callout_trap : int
(** [Callout] codes marking the end of each gate routine. *)

val entry_gate_code : secure_stack_top:Addr.va -> Insn.asm_item list
val exit_gate_code : unit -> Insn.asm_item list
(** The instruction sequences, for inspection and tests. *)

val install :
  Phys_mem.t ->
  code_base_pa:Addr.pa ->
  code_base_va:Addr.va ->
  secure_stack_top:Addr.va ->
  t
(** Assemble the three routines and write them into physical memory at
    [code_base_pa] (boot-time, pre-paging); their virtual addresses are
    offsets from [code_base_va]. *)

type crossing_error =
  | Unexpected_stop of Exec.stop
  | Denied  (** injected gate-entry refusal; no state was touched *)

val enter : Machine.t -> t -> (unit, crossing_error) result
(** Cross into the nested kernel.  On success the machine has WP clear,
    interrupts disabled, and the CPU on the secure stack.  Under an
    attached injector the [Gate_denied] site refuses the crossing
    up-front: WP, stack and crossing counters are untouched. *)

val exit_ : Machine.t -> t -> (unit, crossing_error) result
(** Cross back out.  On success WP is set and the caller's stack and
    flags are restored. *)

val pending_fast_frames : t -> int
(** Total fast-path frames currently pushed across all CPUs; 0 whenever
    every fast enter has been paired with its exit (tests assert
    this). *)

val trap_overhead : Machine.t -> t -> int
(** Cycle cost of the trap gate's WP-restore preamble, measured by
    interpreting it once on the machine (then memoized).  Charged on
    every interrupt/trap delivered while the nested kernel architecture
    is active. *)

val pp_crossing_error : Format.formatter -> crossing_error -> unit
