(** Physical memory: an array of 4 KiB page frames.

    All accessors take raw physical addresses and perform no permission
    checking — this is DRAM, not the MMU.  Multi-byte accesses may cross
    page boundaries.  Words are stored little-endian; the machine's word
    values always fit in 62 bits, so reads return non-negative ints. *)

type t

val create : frames:int -> t
(** [create ~frames] makes a memory of [frames] zero-filled pages. *)

val num_frames : t -> int
val size_bytes : t -> int

val read_u8 : t -> Addr.pa -> int
val write_u8 : t -> Addr.pa -> int -> unit

val read_u64 : t -> Addr.pa -> int
(** Read 8 little-endian bytes as an OCaml int (bit 63 discarded). *)

val read_table_word : t -> frame:Addr.frame -> index:int -> int
(** Unchecked aligned word read of table entry [index] (< 512) of page
    [frame], for the page-table walkers.  The caller must have
    validated [frame] with {!valid_frame}; same result as {!read_u64}
    of the entry's address. *)

val write_u64 : t -> Addr.pa -> int -> unit

val read_bytes : t -> Addr.pa -> int -> bytes
val write_bytes : t -> Addr.pa -> bytes -> unit
val blit_to_bytes : t -> Addr.pa -> bytes -> int -> int -> unit
val blit_from_bytes : bytes -> int -> t -> Addr.pa -> int -> unit

val zero_frame : t -> Addr.frame -> unit
val frame_copy : t -> src:Addr.frame -> dst:Addr.frame -> unit

val valid_pa : t -> Addr.pa -> bool
val valid_frame : t -> Addr.frame -> bool

(** {2 Store log}

    For checkers that must notice every change to the frames they
    depend on, however it was made: each of the store paths above
    records a store to a {e watched} frame, once per frame until the
    log is cleared.  With nothing watched the log is off and a store
    pays a single length test; no path ever charges simulated cycles. *)

val watch_frame : t -> Addr.frame -> unit
(** Start logging stores to the frame.  The first call turns the log
    on (allocating one byte per frame). *)

val unwatch_frame : t -> Addr.frame -> unit

val logged_stores : t -> int
(** Number of distinct watched frames stored to since the last
    {!clear_store_log}. *)

val logged_store : t -> int -> Addr.frame
(** [logged_store t i] for [0 <= i < logged_stores t]. *)

val store_log_overflowed : t -> bool
(** More watched frames were stored to than the log holds: the entries
    present are a subset, and the reader must assume any watched frame
    changed. *)

val clear_store_log : t -> unit
(** Empty the log; the watch set is kept. *)

val stop_store_log : t -> unit
(** Drop the watch set and turn the log off. *)

val restore : src:t -> t -> unit
(** [restore ~src dst] makes [dst] a copy of [src] in place: the whole
    byte plane, the watch set and the store log.  No buffer is shared
    afterwards.  Raises [Invalid_argument] if the two differ in size. *)
