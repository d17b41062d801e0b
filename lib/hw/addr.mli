(** Virtual and physical addresses for the simulated x86-64-style machine.

    The machine uses 4 KiB pages and a 4-level hierarchical page table
    (PML4 -> PDPT -> PD -> PT), each level indexed by 9 bits of the
    virtual address, exactly as on x86-64.  Addresses are modelled as
    plain OCaml [int]s; the 48-bit virtual address space fits easily in
    OCaml's 63-bit integers. *)

type va = int
(** A virtual address. *)

type pa = int
(** A physical address. *)

type frame = int
(** A physical page-frame number ([pa / page_size]). *)

val page_size : int
(** Bytes per page (4096). *)

val page_shift : int
(** [log2 page_size] = 12. *)

val entries_per_table : int
(** Page-table entries per page-table page (512). *)

val kernbase : va
(** Base virtual address of the kernel direct map: physical frame [f] is
    mapped at [kernbase + f * page_size] for the whole of physical
    memory, mirroring FreeBSD's DMAP region. *)

val frame_of_pa : pa -> frame
val pa_of_frame : frame -> pa
val page_offset : pa -> int

val kva_of_frame : frame -> va
(** Kernel direct-map virtual address of a physical frame. *)

val kva_of_pa : pa -> va
val is_kernel_va : va -> bool

val pml4_index : va -> int
val pdpt_index : va -> int
val pd_index : va -> int
val pt_index : va -> int
(** 9-bit table indices extracted from a virtual address. *)

val index_at_level : level:int -> va -> int
(** [index_at_level ~level va] is the table index used at paging level
    [level], where level 4 is the PML4 and level 1 the PT. *)

val make_va :
  pml4:int -> pdpt:int -> pd:int -> pt:int -> offset:int -> va
(** Reassemble a virtual address from its components.  Inverse of the
    index accessors; indices must be in [0, 511] and offset in
    [0, page_size). *)

val vpage : va -> int
(** Virtual page number ([va / page_size]). *)

val is_page_aligned : va -> bool
val align_down : va -> va
val align_up : va -> va

val pp_va : Format.formatter -> va -> unit
