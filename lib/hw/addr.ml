type va = int
type pa = int
type frame = int

let page_shift = 12
let page_size = 1 lsl page_shift
let entries_per_table = 512

(* Bit 47 set: PML4 slot 256 — the canonical upper half, as on x86-64;
   user space occupies slots 0-255. *)
let kernbase = 0x8000_0000_0000

let frame_of_pa pa = pa lsr page_shift
let pa_of_frame f = f lsl page_shift
let page_offset pa = pa land (page_size - 1)
let kva_of_frame f = kernbase + pa_of_frame f
let kva_of_pa pa = kernbase + pa
let is_kernel_va va = va >= kernbase

let pml4_index va = (va lsr 39) land 0x1ff
let pdpt_index va = (va lsr 30) land 0x1ff
let pd_index va = (va lsr 21) land 0x1ff
let pt_index va = (va lsr 12) land 0x1ff

let index_at_level ~level va =
  match level with
  | 4 -> pml4_index va
  | 3 -> pdpt_index va
  | 2 -> pd_index va
  | 1 -> pt_index va
  | _ -> invalid_arg "Addr.index_at_level: level must be in 1..4"

let make_va ~pml4 ~pdpt ~pd ~pt ~offset =
  if
    pml4 < 0 || pml4 > 511 || pdpt < 0 || pdpt > 511 || pd < 0 || pd > 511
    || pt < 0 || pt > 511
    || offset < 0
    || offset >= page_size
  then invalid_arg "Addr.make_va: component out of range";
  (pml4 lsl 39) lor (pdpt lsl 30) lor (pd lsl 21) lor (pt lsl 12) lor offset

let vpage va = va lsr page_shift
let is_page_aligned va = va land (page_size - 1) = 0
let align_down va = va land lnot (page_size - 1)
let align_up va = align_down (va + page_size - 1)
let pp_va ppf va = Format.fprintf ppf "0x%012x" va
