type entry = {
  frame : Addr.frame;
  writable : bool;
  user : bool;
  nx : bool;
  global : bool;
}

(* Entries are never eagerly erased on flush: each slot remembers its
   table's epoch and, for a per-ASID entry, its ASID's generation at
   fill time, and is live only while both still match.  A full flush
   is an epoch bump, a per-ASID flush a generation bump — both O(1),
   the way real hardware retags rather than walks its arrays.  Stale
   slots are reclaimed lazily on lookup and in bulk once enough inserts
   have accumulated, so the table cannot grow without bound.

   The store is two values of one open-addressed flat int-array
   [table] — per-ASID entries under [key ~asid ~vpage], globals under
   [key ~asid:(-1) ~vpage] = vpage — rather than a Hashtbl of records:
   a lookup is a linear probe over unboxed ints with zero allocation,
   and the cached translation is a single word in the Pte bit layout
   (P|RW|US|G|NX plus the frame in bits 12..47).  Key slots use -1 for
   empty and -2 for a tombstone left by the physical removals (INVLPG
   and lazy reclamation).  Globals keep their own small table so an
   INVLPG scan walks only per-ASID slots and reaches the global copy
   of the page with a single probe.

   [occ] indexes the slots whose key is not -1 (occupied or tombstone),
   each exactly once: a slot is appended when it leaves the empty state
   and the index is rebuilt wholesale by rehash/purge, the only places
   a key returns to -1.  Whole-table walks — the coherence oracle's
   full audit, INVLPG/span flushes, the occupancy probes shootdown
   filtering leans on — iterate the index instead of the capacity, so
   their cost tracks how full the table actually is rather than how
   big it ever grew. *)

let sweep_interval = 4096

(* Packed-entry bits: the Pte layout, so the MMU can test permissions
   directly on the cached word.  A live entry always has [pk_p] set,
   which is what lets 0 serve as the packed miss value (NX lives in
   bit 62, so packed entries can be negative and -1 cannot be the
   sentinel). *)
let pk_p = Pte.bit_p
let pk_rw = Pte.bit_rw
let pk_us = Pte.bit_us
let pk_g = Pte.bit_g
let pk_nx = Pte.bit_nx
let pk_frame_shift = Addr.page_shift
let miss = 0

let pack_entry ~frame ~writable ~user ~nx ~global =
  pk_p
  lor (if writable then pk_rw else 0)
  lor (if user then pk_us else 0)
  lor (if global then pk_g else 0)
  lor (if nx then pk_nx else 0)
  lor (frame lsl pk_frame_shift)

let pack e =
  pack_entry ~frame:e.frame ~writable:e.writable ~user:e.user ~nx:e.nx
    ~global:e.global

let packed_frame w = (w land Pte.frame_mask) lsr pk_frame_shift
let packed_writable w = w land pk_rw <> 0
let packed_user w = w land pk_us <> 0
let packed_global w = w land pk_g <> 0
let packed_nx w = w land pk_nx <> 0

let unpack w =
  {
    frame = packed_frame w;
    writable = packed_writable w;
    user = packed_user w;
    nx = packed_nx w;
    global = packed_global w;
  }

let vpage_bits = 36
let vpage_mask = (1 lsl vpage_bits) - 1
let key ~asid ~vpage = ((asid + 1) lsl vpage_bits) lor vpage
let key_asid k = (k lsr vpage_bits) - 1
let key_vpage k = k land vpage_mask

type table = {
  (* parallel arrays, power-of-two capacity *)
  mutable keys : int array; (* -1 empty, -2 tombstone, else a [key] *)
  mutable vals : int array;
  mutable eps : int array; (* table epoch when filled *)
  mutable gns : int array; (* ASID generation when filled *)
  mutable mask : int;
  mutable used : int; (* occupied + tombstones: grow/compact trigger *)
  mutable occ : int array; (* slots ever occupied since last rebuild *)
  mutable nocc : int;
  mutable epoch : int;
}

type t = {
  tab : table; (* per-ASID entries *)
  glob : table; (* global entries *)
  mutable gens : int array; (* asid -> generation *)
  mutable inserts : int;
  mutable ilog : int array; (* insert log, [||] = off; see [start_insert_log] *)
  mutable nilog : int; (* > length ilog once the log has overflowed *)
  mutable hits : int;
  mutable misses : int;
  mutable epoch_limit : int; (* wraparound bound; purge-and-reset when reached *)
}

let table cap =
  {
    keys = Array.make cap (-1);
    vals = Array.make cap 0;
    eps = Array.make cap 0;
    gns = Array.make cap 0;
    mask = cap - 1;
    used = 0;
    occ = Array.make cap 0;
    nocc = 0;
    epoch = 0;
  }

let create ?(epoch_limit = max_int) () =
  {
    tab = table 2048;
    glob = table 128;
    gens = Array.make 64 0;
    inserts = 0;
    ilog = [||];
    nilog = 0;
    hits = 0;
    misses = 0;
    epoch_limit = max 1 epoch_limit;
  }

let[@inline] gen t asid =
  if asid >= 0 && asid < Array.length t.gens then t.gens.(asid) else 0

let ensure_gen t asid =
  let n = Array.length t.gens in
  if asid >= n then begin
    let n' = ref (n * 2) in
    while asid >= !n' do
      n' := !n' * 2
    done;
    let a = Array.make !n' 0 in
    Array.blit t.gens 0 a 0 n;
    t.gens <- a
  end

(* Multiplicative scramble so consecutive vpages spread; the land
   max_int keeps the probe start non-negative after overflow. *)
let hash k = ((k * 0x9E3779B97F4A7C1) lxor (k lsr 17)) land max_int

(* Probe for [key]; returns its slot or -1.  Tombstones keep the probe
   chain alive, an empty slot ends it. *)
let[@inline] find_slot tb key =
  let keys = tb.keys and mask = tb.mask in
  let i = ref (hash key land mask) in
  let r = ref (-3) in
  while !r = -3 do
    let k = Array.unsafe_get keys !i in
    if k = key then r := !i
    else if k = -1 then r := -1
    else i := (!i + 1) land mask
  done;
  !r

(* The probe helpers below are [@inline] so the lookup path and the
   scan loops make no calls.

   Slot [i] of [tb], holding key [k >= 0], is live while its table's
   epoch is unchanged and, for a per-ASID key (one above [vpage_mask]),
   its ASID's generation too. *)
let[@inline] live t tb i k =
  tb.eps.(i) = tb.epoch
  && (k <= vpage_mask || tb.gns.(i) = gen t (key_asid k))

(* The live entry under [k], or [miss]; side-effect-free. *)
let[@inline] get t tb k =
  let i = find_slot tb k in
  if i >= 0 && live t tb i k then tb.vals.(i) else miss

(* [get], reclaiming a stale slot it finds under [k]. *)
let[@inline] take t tb k =
  let i = find_slot tb k in
  if i < 0 then miss
  else if live t tb i k then tb.vals.(i)
  else begin
    tb.keys.(i) <- -2;
    miss
  end

(* Rebuild [tb] at capacity [cap], keeping live entries only: dead
   slots and tombstones are dropped. *)
let rehash t tb cap =
  let keys = Array.make cap (-1)
  and vals = Array.make cap 0
  and eps = Array.make cap 0
  and gns = Array.make cap 0 in
  let mask = cap - 1 in
  let used = ref 0 in
  let old = tb.keys in
  for i = 0 to Array.length old - 1 do
    let k = old.(i) in
    if k >= 0 && live t tb i k then begin
      let j = ref (hash k land mask) in
      while keys.(!j) <> -1 do
        j := (!j + 1) land mask
      done;
      keys.(!j) <- k;
      vals.(!j) <- tb.vals.(i);
      eps.(!j) <- tb.eps.(i);
      gns.(!j) <- tb.gns.(i);
      incr used
    end
  done;
  tb.keys <- keys;
  tb.vals <- vals;
  tb.eps <- eps;
  tb.gns <- gns;
  tb.mask <- mask;
  tb.used <- !used;
  if Array.length tb.occ < cap then tb.occ <- Array.make cap 0;
  tb.nocc <- 0;
  for i = 0 to cap - 1 do
    if keys.(i) <> -1 then begin
      tb.occ.(tb.nocc) <- i;
      tb.nocc <- tb.nocc + 1
    end
  done

(* Bulk reclamation: growing doubles; a mostly-dead table compacts at
   the same size. *)
let sweep_table t tb =
  let cap = tb.mask + 1 in
  rehash t tb (if tb.used * 2 > cap then cap * 2 else cap)

let sweep t =
  sweep_table t t.tab;
  sweep_table t t.glob

(* --- packed fast path ---------------------------------------------- *)

(* Globals hit under every ASID, so they are probed first. *)
let peek_packed t ~asid ~vpage =
  let w = get t t.glob vpage in
  if w <> miss then w else get t t.tab (key ~asid ~vpage)

let lookup_packed t ~asid ~vpage =
  let w = take t t.glob vpage in
  let w = if w = miss then take t t.tab (key ~asid ~vpage) else w in
  if w <> miss then t.hits <- t.hits + 1;
  w

(* Insert log: while a checker has armed it, every fill is recorded as
   its [key] (globals under asid -1), so the checker can re-examine
   exactly the entries that changed.  The log doubles from 16 up to
   [insert_log_capacity]; a full one saturates [nilog] one past the
   capacity, and the checker then rescans the whole TLB. *)
let insert_log_capacity = 1024

let log_insert t k =
  let n = Array.length t.ilog in
  if t.nilog = n && n < insert_log_capacity then begin
    let b = Array.make (2 * n) 0 in
    Array.blit t.ilog 0 b 0 n;
    t.ilog <- b
  end;
  if t.nilog < Array.length t.ilog then t.ilog.(t.nilog) <- k;
  if t.nilog <= Array.length t.ilog then t.nilog <- t.nilog + 1

let start_insert_log t =
  if Array.length t.ilog = 0 then t.ilog <- Array.make 16 0;
  t.nilog <- 0

let stop_insert_log t =
  t.ilog <- [||];
  t.nilog <- 0

let clear_insert_log t = t.nilog <- 0
let insert_log_overflowed t = t.nilog > Array.length t.ilog
let logged_inserts t = min t.nilog (Array.length t.ilog)
let logged_key t i = t.ilog.(i)

(* Replace-or-install: the key's own slot if it is on the probe chain,
   else the chain's first tombstone, else the empty slot ending it. *)
let insert_packed t ~asid ~vpage w =
  let asid = if packed_global w then -1 else asid in
  let tb = if asid < 0 then t.glob else t.tab in
  let key = key ~asid ~vpage in
  let mask = tb.mask in
  let i = ref (hash key land mask) in
  let ins = ref (-1) in
  let stop = ref false in
  while not !stop do
    let k = tb.keys.(!i) in
    if k = key then begin
      ins := !i;
      stop := true
    end
    else if k = -1 then begin
      if !ins < 0 then ins := !i;
      stop := true
    end
    else begin
      if k = -2 && !ins < 0 then ins := !i;
      i := (!i + 1) land mask
    end
  done;
  let i = !ins in
  if tb.keys.(i) <> key then begin
    if tb.keys.(i) = -1 then begin
      tb.used <- tb.used + 1;
      tb.occ.(tb.nocc) <- i;
      tb.nocc <- tb.nocc + 1
    end;
    tb.keys.(i) <- key
  end;
  tb.vals.(i) <- w;
  tb.eps.(i) <- tb.epoch;
  tb.gns.(i) <- gen t asid;
  if tb.used * 2 > tb.mask + 1 then rehash t tb ((tb.mask + 1) * 2);
  if Array.length t.ilog <> 0 then log_insert t key;
  t.inserts <- t.inserts + 1;
  if t.inserts mod sweep_interval = 0 then sweep t

let live_packed t ~asid ~vpage =
  get t (if asid < 0 then t.glob else t.tab) (key ~asid ~vpage)

(* --- record-level API (tests, the coherence oracle) ---------------- *)

let peek t ~asid ~vpage =
  let w = peek_packed t ~asid ~vpage in
  if w = miss then None else Some (unpack w)

let lookup t ~asid ~vpage =
  let w = lookup_packed t ~asid ~vpage in
  if w = miss then None else Some (unpack w)

let insert t ~asid ~vpage e = insert_packed t ~asid ~vpage (pack e)

let iter_table t tb ~f =
  let keys = tb.keys and occ = tb.occ in
  for n = 0 to tb.nocc - 1 do
    let i = occ.(n) in
    let k = keys.(i) in
    if k >= 0 && live t tb i k then
      f ~asid:(key_asid k) ~vpage:(key_vpage k) tb.vals.(i)
  done

let iter_live_packed t ~f =
  iter_table t t.tab ~f;
  iter_table t t.glob ~f

(* --- flushes ------------------------------------------------------- *)

(* Occupancy-index scans over the slots whose key [k], masked by [m],
   lies in [lo .. hi]: [m = vpage_mask] selects a vpage span in every
   ASID, [m = -1] a key range such as one ASID's.  Every [occ] entry is
   a slot below the capacity, hence the unchecked reads; with [live]
   inlined the loop makes no call, so nothing is spilled per slot —
   these scans run on every shootdown-targeting decision. *)
let remove_range tb ~m ~lo ~hi =
  let keys = tb.keys and occ = tb.occ in
  for n = 0 to tb.nocc - 1 do
    let i = Array.unsafe_get occ n in
    let k = Array.unsafe_get keys i in
    if k >= 0 then begin
      let x = k land m in
      if x >= lo && x <= hi then keys.(i) <- -2
    end
  done

let holds_range t tb ~m ~lo ~hi =
  let keys = tb.keys and occ = tb.occ in
  let found = ref false in
  for n = 0 to tb.nocc - 1 do
    let i = Array.unsafe_get occ n in
    let k = Array.unsafe_get keys i in
    if k >= 0 then begin
      let x = k land m in
      if x >= lo && x <= hi && live t tb i k then found := true
    end
  done;
  !found

(* Epoch/generation words are compared for equality only, so the
   counters may wrap at [epoch_limit] (tests bound it low to exercise
   the path): the wrap physically purges everything the counter
   guarded, so no surviving slot can alias the reset value. *)

let purge tb =
  Array.fill tb.keys 0 (Array.length tb.keys) (-1);
  tb.used <- 0;
  tb.nocc <- 0

(* Bump [tb]'s epoch; true if it wrapped, purging the table. *)
let bump t tb =
  tb.epoch <- tb.epoch + 1;
  if tb.epoch >= t.epoch_limit then begin
    purge tb;
    tb.epoch <- 0;
    true
  end
  else false

let flush_all t =
  if bump t t.tab then Array.fill t.gens 0 (Array.length t.gens) 0

let flush_global_too t =
  flush_all t;
  ignore (bump t t.glob)

let flush_asid t ~asid =
  ensure_gen t asid;
  let g = t.gens.(asid) + 1 in
  if g >= t.epoch_limit then begin
    (* purge this ASID's slots so the generation can restart at 0 *)
    remove_range t.tab ~m:(-1) ~lo:(key ~asid ~vpage:0)
      ~hi:(key ~asid ~vpage:vpage_mask);
    t.gens.(asid) <- 0
  end
  else t.gens.(asid) <- g

(* INVLPG invalidates the page in every PCID and in the globals — an
   occupancy-index scan here, but it models a single-page hardware op
   and is the hook shootdowns rely on for cross-ASID coherence.  The
   range form is one scan instead of [count], for the shootdown of a
   large-leaf span (512 consecutive 4 KiB translations cached
   individually from one 2 MiB entry). *)
let flush_span t ~vpage ~count =
  let last = vpage + count - 1 in
  remove_range t.tab ~m:vpage_mask ~lo:vpage ~hi:last;
  for vp = vpage to last do
    let gi = find_slot t.glob vp in
    if gi >= 0 then t.glob.keys.(gi) <- -2
  done

let flush_page t ~vpage = flush_span t ~vpage ~count:1

(* Occupancy probes: does this TLB hold any live translation in the
   span (any ASID, globals included) / any live entry under [asid]?
   Host-side bookkeeping for shootdown targeting — the simulator plays
   the omniscient interconnect here, so probing charges nothing and
   must stay side-effect-free (no reclamation, no hit/miss counts). *)
let holds_span t ~vpage ~count =
  let hi = vpage + count - 1 in
  holds_range t t.glob ~m:vpage_mask ~lo:vpage ~hi
  || holds_range t t.tab ~m:vpage_mask ~lo:vpage ~hi

let holds_asid t ~asid =
  holds_range t t.tab ~m:(-1) ~lo:(key ~asid ~vpage:0)
    ~hi:(key ~asid ~vpage:vpage_mask)

(* Every array is copied into [dst]'s own when the lengths agree, so a
   TLB restored from the same-sized source allocates nothing; a
   length mismatch (either side grown, or an insert log armed on one
   side only) takes a fresh copy instead. *)
let restore_table ~src dst =
  dst.keys <- Copy.ints_into ~src:src.keys dst.keys;
  dst.vals <- Copy.ints_into ~src:src.vals dst.vals;
  dst.eps <- Copy.ints_into ~src:src.eps dst.eps;
  dst.gns <- Copy.ints_into ~src:src.gns dst.gns;
  dst.mask <- src.mask;
  dst.used <- src.used;
  dst.occ <- Copy.ints_into ~src:src.occ dst.occ;
  dst.nocc <- src.nocc;
  dst.epoch <- src.epoch

let restore ~src dst =
  restore_table ~src:src.tab dst.tab;
  restore_table ~src:src.glob dst.glob;
  dst.gens <- Copy.ints_into ~src:src.gens dst.gens;
  dst.inserts <- src.inserts;
  dst.ilog <- Copy.ints_into ~src:src.ilog dst.ilog;
  dst.nilog <- src.nilog;
  dst.hits <- src.hits;
  dst.misses <- src.misses;
  dst.epoch_limit <- src.epoch_limit

let hits t = t.hits
let misses t = t.misses
let record_miss t = t.misses <- t.misses + 1

let size t =
  let n = ref 0 in
  iter_live_packed t ~f:(fun ~asid:_ ~vpage:_ _ -> incr n);
  !n
