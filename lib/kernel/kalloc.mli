open Nkhw

(** Slab-style kernel object allocator with per-CPU magazines.

    Carves fixed-size chunks out of physical frames taken from the
    outer kernel's pool and hands them out as kernel virtual addresses
    (direct map).  Process-list nodes and other kernel structures that
    must live in {e simulated} memory — so that attacks can corrupt
    them — are allocated here.

    Each CPU keeps a private magazine of chunks (keyed on the CPU
    driving the machine, [Machine.cur_cpu]): the hot alloc/free path
    touches only CPU-local state, and the shared free list is visited
    once per [magazine] chunks for a batch refill or flush.  The
    [slab_cpu_hit]/[slab_cpu_refill]/[slab_cpu_flush] counters expose
    the hit rate. *)

type t

val create : Machine.t -> Frame_alloc.t -> chunk_size:int -> t
(** [chunk_size] must divide the page size; per-CPU batches hold 32
    chunks. *)

val alloc : t -> Addr.va option
(** A zeroed chunk, or [None] when the frame pool is exhausted. *)

val free : t -> Addr.va -> unit
val live_chunks : t -> int
