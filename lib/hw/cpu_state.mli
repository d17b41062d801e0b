(** Architectural CPU state: general-purpose registers, RIP, the two
    flags the gate code depends on (ZF and IF), and the privilege
    ring. *)

type t = {
  regs : int array;
  mutable rip : Addr.va;
  mutable zf : bool;
  mutable intf : bool;  (** RFLAGS.IF — interrupts enabled *)
  mutable ring : Mmu.ring;
  mutable halted : bool;
}

val create : unit -> t
(** Supervisor ring, interrupts enabled, all registers zero. *)

val get : t -> Insn.reg -> int
val set : t -> Insn.reg -> int -> unit

val flags_word : t -> int
(** Pack ZF and IF into the word pushed by [pushfq]. *)

val set_flags_word : t -> int -> unit

val copy : t -> t
