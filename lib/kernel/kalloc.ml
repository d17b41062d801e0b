open Nkhw

(* Cycle costs.  A magazine hit touches only CPU-local state — no
   shared free-list (lock) traffic — so it is markedly cheaper than
   the historical single-list path (40/25); the batch transfers pay
   the shared-list cost once per [magazine] chunks. *)
let cost_cpu_alloc = 12
let cost_cpu_free = 8
let cost_refill = 200
let cost_flush = 150

(* Chunks per per-CPU batch. *)
let magazine = 32

type cache = { mutable mag : Addr.va list; mutable n : int }

type t = {
  machine : Machine.t;
  falloc : Frame_alloc.t;
  chunk_size : int;
  mutable free_list : Addr.va list;
  mutable live : int;
  mutable caches : cache array;
}

let create machine falloc ~chunk_size =
  if chunk_size <= 0 || Addr.page_size mod chunk_size <> 0 then
    invalid_arg "Kalloc.create: chunk size must divide the page size";
  {
    machine;
    falloc;
    chunk_size;
    free_list = [];
    live = 0;
    caches = [||];
  }

let grow t =
  match Frame_alloc.alloc t.falloc with
  | None -> false
  | Some frame ->
      Phys_mem.zero_frame t.machine.Machine.mem frame;
      Machine.charge t.machine t.machine.Machine.costs.Costs.page_zero;
      let base = Addr.kva_of_frame frame in
      for i = (Addr.page_size / t.chunk_size) - 1 downto 0 do
        t.free_list <- (base + (i * t.chunk_size)) :: t.free_list
      done;
      true

(* The magazine of the CPU driving the machine right now; the array
   grows on demand so late-added APs just work. *)
let cache_for t =
  let cpu = t.machine.Machine.cur_cpu in
  if cpu >= Array.length t.caches then begin
    let caches = Array.init (cpu + 1) (fun _ -> { mag = []; n = 0 }) in
    Array.blit t.caches 0 caches 0 (Array.length t.caches);
    t.caches <- caches
  end;
  t.caches.(cpu)

(* Move up to a magazine's worth of chunks from the shared list into
   the CPU's cache, growing the shared list from the frame pool if it
   is dry. *)
let refill t c =
  Machine.charge t.machine cost_refill;
  Machine.count_ev t.machine Nktrace.Slab_cpu_refill;
  let moved = ref 0 in
  while
    !moved < magazine
    && (t.free_list <> [] || grow t)
  do
    match t.free_list with
    | va :: rest ->
        t.free_list <- rest;
        c.mag <- va :: c.mag;
        c.n <- c.n + 1;
        incr moved
    | [] -> ()
  done;
  !moved > 0

let alloc t =
  let c = cache_for t in
  let take () =
    match c.mag with
    | [] -> None
    | va :: rest ->
        c.mag <- rest;
        c.n <- c.n - 1;
        t.live <- t.live + 1;
        Machine.charge t.machine cost_cpu_alloc;
        Some va
  in
  match take () with
  | Some va ->
      Machine.count_ev t.machine Nktrace.Slab_cpu_hit;
      Some va
  | None -> if refill t c then take () else None

let free t va =
  let c = cache_for t in
  c.mag <- va :: c.mag;
  c.n <- c.n + 1;
  t.live <- t.live - 1;
  Machine.charge t.machine cost_cpu_free;
  (* Overflow: return one magazine to the shared list, keeping one
     magazine's worth local so an alloc burst right after a free burst
     still hits. *)
  if c.n > 2 * magazine then begin
    Machine.charge t.machine cost_flush;
    Machine.count_ev t.machine Nktrace.Slab_cpu_flush;
    for _ = 1 to magazine do
      match c.mag with
      | va :: rest ->
          c.mag <- rest;
          c.n <- c.n - 1;
          t.free_list <- va :: t.free_list
      | [] -> ()
    done
  end

let live_chunks t = t.live
