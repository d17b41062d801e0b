type counter =
  | Tlb_flush_full
  | Tlb_flush_asid
  | Tlb_flush_page
  | Tlb_flush_span
  | Tlb_hit
  | Tlb_miss
  | Pte_write
  | Pte_write_batch
  | Declare_ptp
  | Remove_ptp
  | Load_cr0
  | Load_cr3
  | Load_cr3_pcid
  | Load_cr4
  | Load_efer
  | Nk_enter
  | Nk_declare
  | Nk_alloc
  | Nk_free
  | Nk_write
  | Nk_write_denied
  | Colocated_trap
  | Colocated_emulated_write
  | Syscall
  | Context_switch
  | Fork
  | Fork_vm
  | Exec
  | Exit
  | Vm_fault
  | Cow_copy
  | Vm_destroy
  | Cpu_migration
  | Cpu_borrow
  | Ipi_reschedule
  | Ipi_shootdown
  | Ipi_halt
  | Shootdown_sent
  | Shootdown_filtered
  | Shootdown_coalesced
  | Flush_deferred
  | Flush_on_reuse
  | Sched_steal
  | Signal_delivered
  | Syslog_event
  | Syslog_flush
  | Sock_conn_open
  | Sock_conn_close
  | Sock_backlog_drop
  | Accept_local
  | Accept_steal
  | Epoll_wakeup
  | Slab_cpu_hit
  | Slab_cpu_refill
  | Slab_cpu_flush
  | Custom of string

let counter_name = function
  | Tlb_flush_full -> "tlb_flush_full"
  | Tlb_flush_asid -> "tlb_flush_asid"
  | Tlb_flush_page -> "tlb_flush_page"
  | Tlb_flush_span -> "tlb_flush_span"
  | Tlb_hit -> "tlb_hit"
  | Tlb_miss -> "tlb_miss"
  | Pte_write -> "pte_write"
  | Pte_write_batch -> "pte_write_batch"
  | Declare_ptp -> "declare_ptp"
  | Remove_ptp -> "remove_ptp"
  | Load_cr0 -> "load_cr0"
  | Load_cr3 -> "load_cr3"
  | Load_cr3_pcid -> "load_cr3_pcid"
  | Load_cr4 -> "load_cr4"
  | Load_efer -> "load_efer"
  | Nk_enter -> "nk_enter"
  | Nk_declare -> "nk_declare"
  | Nk_alloc -> "nk_alloc"
  | Nk_free -> "nk_free"
  | Nk_write -> "nk_write"
  | Nk_write_denied -> "nk_write_denied"
  | Colocated_trap -> "colocated_trap"
  | Colocated_emulated_write -> "colocated_emulated_write"
  | Syscall -> "syscall"
  | Context_switch -> "context_switch"
  | Fork -> "fork"
  | Fork_vm -> "fork_vm"
  | Exec -> "exec"
  | Exit -> "exit"
  | Vm_fault -> "vm_fault"
  | Cow_copy -> "cow_copy"
  | Vm_destroy -> "vm_destroy"
  | Cpu_migration -> "cpu_migration"
  | Cpu_borrow -> "smp_borrow"
  | Ipi_reschedule -> "ipi_reschedule"
  | Ipi_shootdown -> "ipi_shootdown"
  | Ipi_halt -> "ipi_halt"
  | Shootdown_sent -> "shootdown_sent"
  | Shootdown_filtered -> "shootdown_filtered"
  | Shootdown_coalesced -> "shootdown_coalesced"
  | Flush_deferred -> "flush_deferred"
  | Flush_on_reuse -> "flush_on_reuse"
  | Sched_steal -> "sched_steal"
  | Signal_delivered -> "signal_delivered"
  | Syslog_event -> "syslog_event"
  | Syslog_flush -> "syslog_flush"
  | Sock_conn_open -> "sock_conn_open"
  | Sock_conn_close -> "sock_conn_close"
  | Sock_backlog_drop -> "sock_backlog_drop"
  | Accept_local -> "accept_local"
  | Accept_steal -> "accept_steal"
  | Epoll_wakeup -> "epoll_wakeup"
  | Slab_cpu_hit -> "slab_cpu_hit"
  | Slab_cpu_refill -> "slab_cpu_refill"
  | Slab_cpu_flush -> "slab_cpu_flush"
  | Custom s -> s

type span =
  | Gate_crossing
  | Gate_enter
  | Gate_exit
  | Gate_trap
  | Vmmu_op of string
  | Shootdown of string
  | Wp_write
  | Syscall_dispatch of string

let span_name = function
  | Gate_crossing -> "gate_crossing"
  | Gate_enter -> "gate_enter"
  | Gate_exit -> "gate_exit"
  | Gate_trap -> "gate_trap"
  | Vmmu_op op -> "vmmu_" ^ op
  | Shootdown scope -> "shootdown_" ^ scope
  | Wp_write -> "wp_write"
  | Syscall_dispatch name -> "sys_" ^ name

(* Dense indices for the static counters, in declaration order.  The
   hot [count] path bumps a flat int array slot instead of hashing a
   name string — no [Some] box from [Hashtbl.find_opt], no string —
   and the ring stores the index as a plain int.  [Custom] counters
   (cold: ad-hoc probes) keep a hash table keyed by name. *)
let all_counters =
  [|
    Tlb_flush_full; Tlb_flush_asid; Tlb_flush_page; Tlb_flush_span;
    Tlb_hit; Tlb_miss; Pte_write; Pte_write_batch; Declare_ptp;
    Remove_ptp; Load_cr0; Load_cr3; Load_cr3_pcid; Load_cr4; Load_efer;
    Nk_enter; Nk_declare; Nk_alloc; Nk_free; Nk_write; Nk_write_denied;
    Colocated_trap; Colocated_emulated_write; Syscall; Context_switch;
    Fork; Fork_vm; Exec; Exit; Vm_fault; Cow_copy; Vm_destroy;
    Cpu_migration; Cpu_borrow; Ipi_reschedule; Ipi_shootdown; Ipi_halt;
    Shootdown_sent; Shootdown_filtered; Shootdown_coalesced;
    Flush_deferred; Flush_on_reuse; Sched_steal; Signal_delivered;
    Syslog_event; Syslog_flush; Sock_conn_open; Sock_conn_close;
    Sock_backlog_drop; Accept_local; Accept_steal; Epoll_wakeup;
    Slab_cpu_hit; Slab_cpu_refill; Slab_cpu_flush;
  |]

let n_counters = Array.length all_counters

let counter_index = function
  | Tlb_flush_full -> 0
  | Tlb_flush_asid -> 1
  | Tlb_flush_page -> 2
  | Tlb_flush_span -> 3
  | Tlb_hit -> 4
  | Tlb_miss -> 5
  | Pte_write -> 6
  | Pte_write_batch -> 7
  | Declare_ptp -> 8
  | Remove_ptp -> 9
  | Load_cr0 -> 10
  | Load_cr3 -> 11
  | Load_cr3_pcid -> 12
  | Load_cr4 -> 13
  | Load_efer -> 14
  | Nk_enter -> 15
  | Nk_declare -> 16
  | Nk_alloc -> 17
  | Nk_free -> 18
  | Nk_write -> 19
  | Nk_write_denied -> 20
  | Colocated_trap -> 21
  | Colocated_emulated_write -> 22
  | Syscall -> 23
  | Context_switch -> 24
  | Fork -> 25
  | Fork_vm -> 26
  | Exec -> 27
  | Exit -> 28
  | Vm_fault -> 29
  | Cow_copy -> 30
  | Vm_destroy -> 31
  | Cpu_migration -> 32
  | Cpu_borrow -> 33
  | Ipi_reschedule -> 34
  | Ipi_shootdown -> 35
  | Ipi_halt -> 36
  | Shootdown_sent -> 37
  | Shootdown_filtered -> 38
  | Shootdown_coalesced -> 39
  | Flush_deferred -> 40
  | Flush_on_reuse -> 41
  | Sched_steal -> 42
  | Signal_delivered -> 43
  | Syslog_event -> 44
  | Syslog_flush -> 45
  | Sock_conn_open -> 46
  | Sock_conn_close -> 47
  | Sock_backlog_drop -> 48
  | Accept_local -> 49
  | Accept_steal -> 50
  | Epoll_wakeup -> 51
  | Slab_cpu_hit -> 52
  | Slab_cpu_refill -> 53
  | Slab_cpu_flush -> 54
  | Custom _ -> -1

type event =
  | Count of counter
  | Span_begin of span
  | Span_end of span * int
  | Mark of string

type record = { seq : int; cycles : int; cpu : int; event : event }

type hist_summary = {
  h_count : int;
  h_min : int;
  h_max : int;
  h_mean : float;
  p50 : int;
  p95 : int;
  p99 : int;
  p999 : int;
}

type snapshot = {
  events : record list;
  dropped : int;
  counters : (string * int) list;
  histograms : (string * hist_summary) list;
}

(* Bounded sample reservoir.  Once full, sample [total] replaces slot
   [total mod capacity] — deterministic (no Random), and every later
   observation still has a chance to land in the window. *)
type hist = {
  samples : int array;
  mutable stored : int;
  mutable total : int;
  mutable sum : int;
  mutable lo : int;
  mutable hi : int;
}

(* One open-span stack: begin cycles for the spans currently open under
   one (span, cpu) pair, flat ints — pushing and popping a span frame
   allocates nothing once the stack exists. *)
type stack = { mutable sp_starts : int array; mutable sp_depth : int }

(* The ring is stored as parallel int planes rather than an array of
   boxed records: recording an event while tracing is on writes six
   ints (seq, cycles, cpu, kind, code, arg) and allocates nothing.
   [kind] discriminates the event; [code] is a static counter index, an
   interned span id, or an interned string id; [arg] carries a span-end
   duration.  Boxed [record] values exist only in [snapshot] output. *)
let k_count = 0 (* code = static counter index *)
let k_count_custom = 1 (* code = interned string id *)
let k_begin = 2 (* code = span id *)
let k_end = 3 (* code = span id, arg = duration *)
let k_mark = 4 (* code = interned string id *)

type t = {
  r_seq : int array;
  r_cycles : int array;
  r_cpu : int array;
  r_kind : int array;
  r_code : int array;
  r_arg : int array;
  mutable head : int; (* next write position *)
  mutable filled : int; (* live records in the ring *)
  mutable dropped : int;
  mutable seq : int;
  mutable enabled : bool;
  mutable now : unit -> int;
  mutable cpu : int;
  hist_capacity : int;
  cvals : int array; (* static counter values, by counter_index *)
  ctouched : bool array; (* ever bumped (net-zero counters still report) *)
  ccustom : (string, int ref) Hashtbl.t; (* Custom counters (cold) *)
  hists : (string, hist) Hashtbl.t;
  span_ids : (span, int) Hashtbl.t; (* span value -> interned id *)
  mutable span_vals : span array; (* id -> span value *)
  mutable span_hists : hist option array; (* id -> histogram, once ended *)
  mutable span_count : int;
  str_ids : (string, int) Hashtbl.t; (* mark / custom-counter names *)
  mutable str_vals : string array;
  mutable str_count : int;
  open_spans : (int, stack) Hashtbl.t; (* (span id lsl 16) lor cpu *)
}

let create ?(ring_capacity = 4096) ?(hist_capacity = 1024) () =
  let cap = max 1 ring_capacity in
  {
    r_seq = Array.make cap 0;
    r_cycles = Array.make cap 0;
    r_cpu = Array.make cap 0;
    r_kind = Array.make cap 0;
    r_code = Array.make cap 0;
    r_arg = Array.make cap 0;
    head = 0;
    filled = 0;
    dropped = 0;
    seq = 0;
    enabled = false;
    now = (fun () -> 0);
    cpu = 0;
    hist_capacity = max 1 hist_capacity;
    cvals = Array.make n_counters 0;
    ctouched = Array.make n_counters false;
    ccustom = Hashtbl.create 16;
    hists = Hashtbl.create 16;
    span_ids = Hashtbl.create 16;
    span_vals = [||];
    span_hists = [||];
    span_count = 0;
    str_ids = Hashtbl.create 16;
    str_vals = [||];
    str_count = 0;
    open_spans = Hashtbl.create 8;
  }

let set_now t f = t.now <- f
let set_cpu t cpu = t.cpu <- cpu
let enable t = t.enabled <- true
let disable t = t.enabled <- false
let enabled t = t.enabled

let clear t =
  t.head <- 0;
  t.filled <- 0;
  t.dropped <- 0;
  t.seq <- 0;
  Array.fill t.cvals 0 n_counters 0;
  Array.fill t.ctouched 0 n_counters false;
  Hashtbl.reset t.ccustom;
  Hashtbl.reset t.hists;
  Hashtbl.reset t.open_spans;
  Hashtbl.reset t.span_ids;
  t.span_vals <- [||];
  t.span_hists <- [||];
  t.span_count <- 0;
  Hashtbl.reset t.str_ids;
  t.str_vals <- [||];
  t.str_count <- 0

let restore_counters ~src dst =
  Array.blit src.cvals 0 dst.cvals 0 n_counters;
  Array.blit src.ctouched 0 dst.ctouched 0 n_counters;
  Hashtbl.reset dst.ccustom;
  Hashtbl.iter (fun name r -> Hashtbl.replace dst.ccustom name (ref !r)) src.ccustom;
  dst.cpu <- src.cpu

let push t kind code arg =
  let cap = Array.length t.r_kind in
  if t.filled = cap then t.dropped <- t.dropped + 1
  else t.filled <- t.filled + 1;
  let h = t.head in
  t.r_seq.(h) <- t.seq;
  t.r_cycles.(h) <- t.now ();
  t.r_cpu.(h) <- t.cpu;
  t.r_kind.(h) <- kind;
  t.r_code.(h) <- code;
  t.r_arg.(h) <- arg;
  t.seq <- t.seq + 1;
  t.head <- (h + 1) mod cap

let intern_str t s =
  match Hashtbl.find t.str_ids s with
  | id -> id
  | exception Not_found ->
      let id = t.str_count in
      if id >= Array.length t.str_vals then begin
        let nv = Array.make (max 8 (2 * (id + 1))) "" in
        Array.blit t.str_vals 0 nv 0 id;
        t.str_vals <- nv
      end;
      t.str_vals.(id) <- s;
      t.str_count <- id + 1;
      Hashtbl.add t.str_ids s id;
      id

let bump_custom t name n =
  match Hashtbl.find t.ccustom name with
  | r -> r := !r + n
  | exception Not_found -> Hashtbl.add t.ccustom name (ref n)

(* Counters are always live — they are the simulator's single event
   registry, asserted on by tests and benches that never enable the
   ring.  Only the cycle-stamped ring entry stays gated. *)
let count_n t c n =
  let i = counter_index c in
  if i >= 0 then begin
    t.cvals.(i) <- t.cvals.(i) + n;
    t.ctouched.(i) <- true;
    if t.enabled then push t k_count i 0
  end
  else begin
    let name = counter_name c in
    bump_custom t name n;
    if t.enabled then push t k_count_custom (intern_str t name) 0
  end

let count t c = count_n t c 1

let counter_value t c =
  let i = counter_index c in
  if i >= 0 then t.cvals.(i)
  else
    match Hashtbl.find_opt t.ccustom (counter_name c) with
    | Some r -> !r
    | None -> 0

let hist_of t name =
  match Hashtbl.find t.hists name with
  | h -> h
  | exception Not_found ->
      let h =
        {
          samples = Array.make t.hist_capacity 0;
          stored = 0;
          total = 0;
          sum = 0;
          lo = max_int;
          hi = min_int;
        }
      in
      Hashtbl.add t.hists name h;
      h

let hist_observe_h h v =
  let cap = Array.length h.samples in
  if h.stored < cap then begin
    h.samples.(h.stored) <- v;
    h.stored <- h.stored + 1
  end
  else h.samples.(h.total mod cap) <- v;
  h.total <- h.total + 1;
  h.sum <- h.sum + v;
  if v < h.lo then h.lo <- v;
  if v > h.hi then h.hi <- v

let hist_observe t name v = hist_observe_h (hist_of t name) v

let observe t name v =
  if t.enabled then begin
    hist_observe t name v;
    push t k_mark (intern_str t name) 0
  end

let mark t name = if t.enabled then push t k_mark (intern_str t name) 0

(* Span values are interned to a dense id on first use; the id names
   the ring code, the per-CPU open stack and the (lazily-registered)
   histogram, so a steady-state begin/end pair does one hash lookup on
   the span value and one on the packed (id, cpu) key — no string
   concatenation, no list cons, no option box. *)
let intern_span t sp =
  match Hashtbl.find t.span_ids sp with
  | id -> id
  | exception Not_found ->
      let id = t.span_count in
      if id >= Array.length t.span_vals then begin
        let n = max 8 (2 * (id + 1)) in
        let nv = Array.make n sp and nh = Array.make n None in
        Array.blit t.span_vals 0 nv 0 id;
        Array.blit t.span_hists 0 nh 0 id;
        t.span_vals <- nv;
        t.span_hists <- nh
      end;
      t.span_vals.(id) <- sp;
      t.span_hists.(id) <- None;
      t.span_count <- id + 1;
      Hashtbl.add t.span_ids sp id;
      id

(* Open spans pair per CPU: a span begun on CPU 2 can only be closed
   by an end observed on CPU 2, so concurrent gate crossings on
   different CPUs each time their own enter/exit pair even when the
   executor interleaves them.  Durations still land in one shared
   histogram per span name. *)
let stack_key sid cpu = (sid lsl 16) lor (cpu land 0xffff)

let stack_for t key =
  match Hashtbl.find t.open_spans key with
  | s -> s
  | exception Not_found ->
      let s = { sp_starts = Array.make 8 0; sp_depth = 0 } in
      Hashtbl.add t.open_spans key s;
      s

let span_begin t sp =
  if t.enabled then begin
    let sid = intern_span t sp in
    let st = stack_for t (stack_key sid t.cpu) in
    let d = st.sp_depth in
    if d >= Array.length st.sp_starts then begin
      let nv = Array.make (2 * (d + 1)) 0 in
      Array.blit st.sp_starts 0 nv 0 d;
      st.sp_starts <- nv
    end;
    st.sp_starts.(d) <- t.now ();
    st.sp_depth <- d + 1;
    push t k_begin sid 0
  end

let span_hist t sid =
  match t.span_hists.(sid) with
  | Some h -> h
  | None ->
      let h = hist_of t (span_name t.span_vals.(sid)) in
      t.span_hists.(sid) <- Some h;
      h

let span_end t sp =
  if t.enabled then begin
    (* unmatched ends (never-begun span, empty stack) are ignored *)
    match Hashtbl.find t.span_ids sp with
    | exception Not_found -> ()
    | sid -> (
        match Hashtbl.find t.open_spans (stack_key sid t.cpu) with
        | exception Not_found -> ()
        | st ->
            if st.sp_depth > 0 then begin
              let d = st.sp_depth - 1 in
              st.sp_depth <- d;
              let dur = t.now () - st.sp_starts.(d) in
              hist_observe_h (span_hist t sid) dur;
              push t k_end sid dur
            end)
  end

let summarize h =
  if h.total = 0 then
    {
      h_count = 0;
      h_min = 0;
      h_max = 0;
      h_mean = 0.;
      p50 = 0;
      p95 = 0;
      p99 = 0;
      p999 = 0;
    }
  else begin
    let sorted = Array.sub h.samples 0 h.stored in
    Array.sort compare sorted;
    let pct p =
      (* nearest-rank on the stored reservoir *)
      let n = Array.length sorted in
      let rank = int_of_float (ceil (p *. float_of_int n /. 100.)) in
      sorted.(max 0 (min (n - 1) (rank - 1)))
    in
    {
      h_count = h.total;
      h_min = h.lo;
      h_max = h.hi;
      h_mean = float_of_int h.sum /. float_of_int h.total;
      p50 = pct 50.;
      p95 = pct 95.;
      p99 = pct 99.;
      p999 = pct 99.9;
    }
  end

let histogram t name =
  match Hashtbl.find_opt t.hists name with
  | Some h -> Some (summarize h)
  | None -> None

let sorted_bindings tbl f =
  Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Rebuild a boxed event from one ring slot (snapshot-time only). *)
let event_of t idx =
  let code = t.r_code.(idx) in
  let kind = t.r_kind.(idx) in
  if kind = k_count then Count all_counters.(code)
  else if kind = k_count_custom then Count (Custom t.str_vals.(code))
  else if kind = k_begin then Span_begin t.span_vals.(code)
  else if kind = k_end then Span_end (t.span_vals.(code), t.r_arg.(idx))
  else Mark t.str_vals.(code)

let snapshot t =
  let cap = Array.length t.r_kind in
  let events = ref [] in
  (* walk backwards from the newest record so the result is oldest-first *)
  for i = 0 to t.filled - 1 do
    let idx = (t.head - 1 - i + (2 * cap)) mod cap in
    events :=
      {
        seq = t.r_seq.(idx);
        cycles = t.r_cycles.(idx);
        cpu = t.r_cpu.(idx);
        event = event_of t idx;
      }
      :: !events
  done;
  let counters =
    let acc = ref (Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.ccustom []) in
    for i = n_counters - 1 downto 0 do
      if t.ctouched.(i) then
        acc := (counter_name all_counters.(i), t.cvals.(i)) :: !acc
    done;
    List.sort (fun (a, _) (b, _) -> String.compare a b) !acc
  in
  {
    events = !events;
    dropped = t.dropped;
    counters;
    histograms = sorted_bindings t.hists summarize;
  }

(* ---- JSON rendering (dependency-free) ---- *)

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let summary_to_json s =
  Printf.sprintf
    "{\"count\":%d,\"min\":%d,\"max\":%d,\"mean\":%.2f,\"p50\":%d,\"p95\":%d,\"p99\":%d,\"p999\":%d}"
    s.h_count s.h_min s.h_max s.h_mean s.p50 s.p95 s.p99 s.p999

let event_to_json = function
  | Count c -> Printf.sprintf "{\"count\":\"%s\"}" (json_escape (counter_name c))
  | Span_begin sp ->
      Printf.sprintf "{\"begin\":\"%s\"}" (json_escape (span_name sp))
  | Span_end (sp, d) ->
      Printf.sprintf "{\"end\":\"%s\",\"cycles\":%d}" (json_escape (span_name sp)) d
  | Mark m -> Printf.sprintf "{\"mark\":\"%s\"}" (json_escape m)

let record_to_json (r : record) =
  Printf.sprintf "{\"seq\":%d,\"cycles\":%d,\"cpu\":%d,\"event\":%s}" r.seq
    r.cycles r.cpu (event_to_json r.event)

let to_json (snap : snapshot) =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"dropped\":";
  Buffer.add_string b (string_of_int snap.dropped);
  Buffer.add_string b ",\"counters\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\"%s\":%d" (json_escape k) v))
    snap.counters;
  Buffer.add_string b "},\"histograms\":{";
  List.iteri
    (fun i (k, s) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "\"%s\":%s" (json_escape k) (summary_to_json s)))
    snap.histograms;
  Buffer.add_string b "},\"events\":[";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (record_to_json r))
    snap.events;
  Buffer.add_string b "]}";
  Buffer.contents b
