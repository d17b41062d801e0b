(* One flat byte plane instead of a Bytes page per frame.  A physical
   address indexes the plane directly, so every accessor is a single
   primitive on one backing store: no per-page indirection, no chunked
   page-boundary loops, and bulk copies are one memcpy.

   The plane is a [Bytes.t], deliberately not a [Bigarray] and not an
   [int array]: a flat Bytes block is opaque to the GC (the marker
   visits its header, never its 32 MB of contents, and it carries none
   of the custom-block dependent-memory pacing that on OCaml 5.1
   forces a major cycle per minor in machine-heavy suites — measured
   at 65k major collections and a 3x wall-clock hit across a workload
   run booting ~60 machines with Bigarray planes).  The 8-aligned word
   read the page-table walkers and the coherence oracle issue compiles
   to an unboxed 64-bit load: ocamlopt unboxes the Int64 intermediate
   in [read_u64]'s straight-line mask-and-truncate.

   Storage is the historical encoding, bit for bit: a u64 store keeps
   all 64 bits (the sign of a negative word value, e.g. an NX-tagged
   PTE, lands in stored bit 63); an in-page u64 read returns stored
   bits 0..62 (bit 62 is the OCaml sign, so NX PTEs read back
   negative); a page-straddling read masks to [max_int] and a
   page-straddling write never stores the sign. *)

(* Store log: a checker (the coherence oracle) watches the frames its
   verdicts depend on, and every store to a watched frame — whatever
   path made it — is recorded once until the log is cleared.  [watch]
   holds one byte per frame ('\000' unwatched, '\001' watched,
   '\002' watched and already logged) and is allocated at the first
   [watch_frame]; while it is empty the log is off and a store pays one
   length test.  The log itself is an int array that doubles from 16
   up to [log_capacity]; a store that finds it full there sets
   [overflow] instead, and the checker falls back to a full re-check. *)
let log_capacity = 1024

type t = {
  plane : Bytes.t;
  frames : int;
  bytes : int;
  mutable watch : Bytes.t;
  mutable log : int array;
  mutable nlog : int;
  mutable overflow : bool;
}

let create ~frames =
  if frames <= 0 then invalid_arg "Phys_mem.create: frames must be positive";
  let bytes = frames * Addr.page_size in
  {
    plane = Bytes.make bytes '\000';
    frames;
    bytes;
    watch = Bytes.empty;
    log = [||];
    nlog = 0;
    overflow = false;
  }

let num_frames t = t.frames
let size_bytes t = t.bytes
let valid_pa t pa = pa >= 0 && pa < t.bytes
let valid_frame t f = f >= 0 && f < t.frames

let check t pa len =
  if pa < 0 || pa + len > t.bytes then
    invalid_arg
      (Printf.sprintf "Phys_mem: access [0x%x, +%d) out of range" pa len)

let note_frame t f =
  if Bytes.unsafe_get t.watch f = '\001' then begin
    let n = Array.length t.log in
    if t.nlog = n && n < log_capacity then begin
      let b = Array.make (2 * n) 0 in
      Array.blit t.log 0 b 0 n;
      t.log <- b
    end;
    if t.nlog < Array.length t.log then begin
      Bytes.unsafe_set t.watch f '\002';
      t.log.(t.nlog) <- f;
      t.nlog <- t.nlog + 1
    end
    else t.overflow <- true
  end

(* Every store path funnels through here with the byte range it
   wrote; with no watcher it is a single length test. *)
let note_store t pa len =
  if Bytes.length t.watch <> 0 && len > 0 then
    for f = pa lsr Addr.page_shift to (pa + len - 1) lsr Addr.page_shift do
      note_frame t f
    done

let watch_frame t f =
  if Bytes.length t.watch = 0 then begin
    t.watch <- Bytes.make t.frames '\000';
    if Array.length t.log = 0 then t.log <- Array.make 16 0
  end;
  if Bytes.get t.watch f = '\000' then Bytes.set t.watch f '\001'

let unwatch_frame t f =
  if Bytes.length t.watch <> 0 then Bytes.set t.watch f '\000'

let logged_stores t = t.nlog
let logged_store t i = t.log.(i)
let store_log_overflowed t = t.overflow

let clear_store_log t =
  for i = 0 to t.nlog - 1 do
    let f = t.log.(i) in
    if Bytes.get t.watch f = '\002' then Bytes.set t.watch f '\001'
  done;
  t.nlog <- 0;
  t.overflow <- false

let stop_store_log t =
  t.watch <- Bytes.empty;
  t.nlog <- 0;
  t.overflow <- false

(* The plane is one memcpy.  The watch set and log are copied too, into
   [dst]'s own buffers when the sizes agree (the common case: both logs
   off, or both armed by the same checker), so a restored memory never
   shares a mutable buffer with its source. *)
let restore ~src dst =
  if src.frames <> dst.frames then
    invalid_arg "Phys_mem.restore: memories differ in size";
  Bytes.blit src.plane 0 dst.plane 0 src.bytes;
  (if Bytes.length src.watch = 0 then dst.watch <- Bytes.empty
   else if Bytes.length dst.watch = Bytes.length src.watch then
     Bytes.blit src.watch 0 dst.watch 0 (Bytes.length src.watch)
   else dst.watch <- Bytes.copy src.watch);
  dst.log <- Copy.ints_into ~src:src.log dst.log;
  dst.nlog <- src.nlog;
  dst.overflow <- src.overflow

let read_u8 t pa =
  check t pa 1;
  Char.code (Bytes.unsafe_get t.plane pa)

let write_u8 t pa v =
  check t pa 1;
  note_store t pa 1;
  Bytes.unsafe_set t.plane pa (Char.unsafe_chr (v land 0xff))

(* [check] already validated the range, so the word paths use the raw
   compiler primitives and skip the stdlib's second bounds check. *)
external unsafe_get_64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external unsafe_set_64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external bswap_64 : int64 -> int64 = "%bswap_int64"

let get_64_le b i =
  if Sys.big_endian then bswap_64 (unsafe_get_64 b i) else unsafe_get_64 b i

let set_64_le b i v =
  if Sys.big_endian then unsafe_set_64 b i (bswap_64 v)
  else unsafe_set_64 b i v

let mask62 = 0x7FFF_FFFF_FFFF_FFFFL

let read_u64 t pa =
  check t pa 8;
  let v = Int64.to_int (Int64.logand (get_64_le t.plane pa) mask62) in
  if Addr.page_offset pa <= Addr.page_size - 8 then v else v land max_int

(* Aligned in-page table-entry read for the page-table walkers: the
   caller has bounds-checked [frame] ([valid_frame]) and [index] is a
   table index below 512, so the access can neither leave the plane
   nor straddle a page — the range check and straddle branch of
   [read_u64] are statically dead and skipped. *)
let read_table_word t ~frame ~index =
  Int64.to_int
    (Int64.logand
       (get_64_le t.plane ((frame * Addr.page_size) + (index lsl 3)))
       mask62)

let write_u64 t pa v =
  check t pa 8;
  note_store t pa 8;
  if Addr.page_offset pa <= Addr.page_size - 8 then
    set_64_le t.plane pa (Int64.of_int v)
  else set_64_le t.plane pa (Int64.logand (Int64.of_int v) mask62)

let blit_to_bytes t pa dst dst_off len =
  check t pa len;
  Bytes.blit t.plane pa dst dst_off len

let blit_from_bytes src src_off t pa len =
  check t pa len;
  note_store t pa len;
  Bytes.blit src src_off t.plane pa len

let read_bytes t pa len =
  let b = Bytes.create len in
  blit_to_bytes t pa b 0 len;
  b

let write_bytes t pa b = blit_from_bytes b 0 t pa (Bytes.length b)

(* The bulk frame ops note the store after the Bytes primitive has
   bounds-checked the frame. *)
let zero_frame t f =
  Bytes.fill t.plane (f * Addr.page_size) Addr.page_size '\000';
  note_store t (f * Addr.page_size) Addr.page_size

let frame_copy t ~src ~dst =
  Bytes.blit t.plane (src * Addr.page_size) t.plane (dst * Addr.page_size)
    Addr.page_size;
  note_store t (dst * Addr.page_size) Addr.page_size
