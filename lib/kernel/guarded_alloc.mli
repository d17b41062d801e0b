open Nkhw

(** Kernel object allocator with optionally protected metadata.

    The paper's section 6 proposes "moving the kernel memory allocator
    into the nested kernel [to] protect the kernel from memory safety
    attacks that overwrite allocator meta-data" (the classic FreeBSD
    UMA exploit of Phrack 0x42).

    This allocator exists in both worlds:

    - {!create_inline} stores free-list links {e inside the freed
      chunks themselves}, exactly like UMA's per-slab free lists — so a
      use-after-free write of 8 bytes redirects the free list and turns
      the next two allocations into a write-anything-anywhere
      primitive;
    - {!create_guarded} keeps every link in nested-kernel protected
      memory, updated via [nk_write]; corrupting freed chunk bytes then
      has no effect on where the allocator sends future allocations. *)

type t

val create_inline : Machine.t -> Frame_alloc.t -> chunk_size:int -> t

val create_guarded :
  Machine.t ->
  Frame_alloc.t ->
  Nested_kernel.State.t ->
  chunk_size:int ->
  (t, Nested_kernel.Nk_error.t) result

val alloc : t -> (Addr.va, Ktypes.errno) result
(** A chunk of kernel memory (not zeroed — like real slab allocators,
    freed contents persist). *)

val free : t -> Addr.va -> (unit, Ktypes.errno) result

val live : t -> int
