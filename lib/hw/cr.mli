(** Control registers of the simulated machine.

    These carry exactly the bits the nested kernel's security argument
    depends on (paper section 3.2): CR0.{PE,PG,WP}, CR4.{PAE,SMEP},
    EFER.{LME,NX}.  CR3 holds the physical address of the active
    top-level page-table page (PML4). *)

val cr0_pe : int
val cr0_wp : int
val cr0_pg : int
val cr4_pae : int
val cr4_pcide : int
val cr4_smep : int
val efer_lme : int
val efer_nx : int
(** Bit masks, at their x86-64 positions. *)

val max_pcid : int
(** Largest valid PCID (4095). *)

type t = {
  mutable cr0 : int;
  mutable cr3 : int;  (** physical address of the root PTP *)
  mutable cr4 : int;
  mutable efer : int;
}

val create : unit -> t
(** All registers zero: real-mode-like reset state, paging off. *)

val copy : t -> t

val long_mode_paging : t -> bool
(** True when translation is active: PE, PG, PAE and LME all set. *)

val wp_enabled : t -> bool
val smep_enabled : t -> bool
val nx_enabled : t -> bool
val paging_enabled : t -> bool
val pcid_enabled : t -> bool

val root_frame : t -> Addr.frame
(** Frame of the active root PTP.  With CR4.PCIDE set the low 12 bits
    of CR3 hold the PCID instead of address bits; they are masked off
    either way. *)

val pcid : t -> int
(** Low 12 bits of CR3 — meaningful only when [pcid_enabled]. *)

val asid : t -> int
(** The address-space tag translations are cached under: the PCID when
    CR4.PCIDE is set, 0 otherwise (pre-PCID behaviour). *)

val cr3_value : frame:Addr.frame -> pcid:int -> int
(** CR3 image selecting [frame] as root with the given PCID tag. *)

val pp : Format.formatter -> t -> unit
