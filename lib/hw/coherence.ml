(* Differential TLB-coherence oracle.

   The nested kernel's security argument assumes that after any
   protection downgrade no CPU retains a stale, more-permissive
   translation.  This module checks that assumption mechanically: an
   independent reference translator walks the live page tables with no
   caching whatsoever, and every cached TLB entry — on the active CPU
   and on every parked peer — is cross-checked against it.

   Only stale-AND-MORE-PERMISSIVE entries are violations: an entry
   that is writable, user-accessible or executable where the tree says
   otherwise, maps a different frame, or exists where the tree has no
   mapping at all.  A stale but *less* permissive entry (e.g. still
   read-only after an upgrade) merely causes a spurious fault and is
   the software's job to tolerate, exactly as on hardware, so it is
   not flagged.  The global bit is likewise advisory (it only affects
   flush behaviour, not access rights) and is not compared. *)

type walk = {
  w_frame : Addr.frame;
  w_writable : bool;
  w_user : bool;
  w_nx : bool;
  w_global : bool;
}

type violation = {
  v_cpu : int;
  v_asid : int option;
  v_vpage : int;
  v_cached : Tlb.entry;
  v_walked : walk option;
  v_why : string;
  v_op : string;
}

exception Violation of violation list

(* Deliberately NOT Page_table.walk: the oracle must not share code
   with the fast path it is auditing.  Same accumulation rules as the
   hardware walk — writable/user AND down the levels, NX ORs in — and
   a 2 MiB leaf resolves to the constituent 4 KiB frame.

   The result is one packed word in the {!Pte} bit layout (0 =
   unmapped; P is always set on a successful walk, so 0 is never
   ambiguous), and [path.(0..3)] receives the frame of every table the
   walk read, root first, -1 past the last: the verdict on a cached
   entry is a function of the root and of those frames alone, which is
   what lets the incremental oracle re-walk only when one of them is
   stored to.  A loop over unboxed locals, so the walk allocates
   nothing — it runs after every MMU access on an oracle run. *)
let reference_walk mem ~root va path =
  for i = 0 to 3 do
    Array.unsafe_set path i (-1)
  done;
  let ptp = ref root and level = ref 4 and result = ref 0 and go = ref true in
  let writable = ref true and user = ref true and nx = ref false in
  while !go do
    if not (Phys_mem.valid_frame mem !ptp) then go := false
    else begin
      path.(4 - !level) <- !ptp;
      let index = Addr.index_at_level ~level:!level va in
      let pte = Phys_mem.read_table_word mem ~frame:!ptp ~index in
      if not (Pte.is_present pte) then go := false
      else begin
        writable := !writable && Pte.is_writable pte;
        user := !user && Pte.is_user pte;
        nx := !nx || Pte.is_nx pte;
        if !level = 1 || (!level = 2 && Pte.is_large pte) then begin
          let frame =
            if !level = 2 then Pte.frame pte + (Addr.vpage va land 0x1ff)
            else Pte.frame pte
          in
          result :=
            Tlb.pack_entry ~frame ~writable:!writable ~user:!user ~nx:!nx
              ~global:(Pte.is_global pte);
          go := false
        end
        else begin
          ptp := Pte.frame pte;
          decr level
        end
      end
    end
  done;
  !result

(* Path sink for the walks that do not keep their dependencies. *)
let scratch_path = Array.make 4 (-1)

let reference_translate_packed mem ~root va =
  reference_walk mem ~root va scratch_path

let walk_of_packed w =
  {
    w_frame = Tlb.packed_frame w;
    w_writable = Tlb.packed_writable w;
    w_user = Tlb.packed_user w;
    w_nx = Tlb.packed_nx w;
    w_global = Tlb.packed_global w;
  }

let reference_translate mem ~root va =
  let w = reference_translate_packed mem ~root va in
  if w = 0 then None else Some (walk_of_packed w)

(* Both sides in the packed layout; returns the violation string only
   when the cached entry is stale AND more permissive. *)
let stale_reason_packed cached walked =
  if walked = 0 then Some "cached translation for an unmapped VA"
  else if Tlb.packed_frame cached <> Tlb.packed_frame walked then
    Some "cached frame differs from walk"
  else if Tlb.packed_writable cached && not (Tlb.packed_writable walked) then
    Some "stale writable bit"
  else if Tlb.packed_user cached && not (Tlb.packed_user walked) then
    Some "stale user bit"
  else if (not (Tlb.packed_nx cached)) && Tlb.packed_nx walked then
    Some "stale executable permission"
  else None

let pp_violation ppf v =
  Format.fprintf ppf
    "@[<h>cpu%d %s vpage=%#x after %s: %s; cached frame=%#x w=%b u=%b nx=%b, walk=%s@]"
    v.v_cpu
    (match v.v_asid with
    | None -> "global"
    | Some a -> Printf.sprintf "asid=%d" a)
    v.v_vpage v.v_op v.v_why v.v_cached.Tlb.frame v.v_cached.Tlb.writable
    v.v_cached.Tlb.user v.v_cached.Tlb.nx
    (match v.v_walked with
    | None -> "unmapped"
    | Some w ->
        Printf.sprintf "frame=%#x w=%b u=%b nx=%b" w.w_frame w.w_writable
          w.w_user w.w_nx)

let () =
  Printexc.register_printer (function
    | Violation vs ->
        Some
          (Format.asprintf "Coherence.Violation [@[<v>%a@]]"
             (Format.pp_print_list pp_violation)
             vs)
    | _ -> None)

(* Violations carry the real CPU id — [cur_cpu] for the active TLB,
   [peer_ids.(i)] for the i-th parked one (a hand-assembled peer array
   without ids falls back to position + 1) — and every list is sorted
   in one canonical order: CPU, ASID (globals first), vpage.  The full
   and the incremental audit therefore return comparable lists. *)
let peer_cpu (m : Machine.t) i =
  if i < Array.length m.Machine.peer_ids then m.Machine.peer_ids.(i) else i + 1

let asid_key v = match v.v_asid with None -> -1 | Some a -> a

let compare_violation a b =
  let c = Int.compare a.v_cpu b.v_cpu in
  if c <> 0 then c
  else
    let c = Int.compare (asid_key a) (asid_key b) in
    if c <> 0 then c else Int.compare a.v_vpage b.v_vpage

let violation ~cpu ~asid ~vpage ~cached ~walked ~why ~op =
  {
    v_cpu = cpu;
    v_asid = (if asid < 0 then None else Some asid);
    v_vpage = vpage;
    v_cached = Tlb.unpack cached;
    v_walked = (if walked = 0 then None else Some (walk_of_packed walked));
    v_why = why;
    v_op = op;
  }

(* Full audit: every live entry of every TLB against the live trees.
   [root_of_asid] resolves the root a non-active ASID's entries were
   filled from (the vMMU's pcid bindings); an ASID it cannot resolve
   is unreachable — rebinding the PCID flushes it first — so its
   entries are skipped.  Global entries hit under every ASID; kernel
   mappings are identical in every root, so the active root audits
   them. *)
let no_deferred ~vpage:_ (_ : Tlb.entry) = false
let no_root _ = None

let check_machine ?(root_of_asid = no_root) ?(deferred = no_deferred)
    ?(op = "audit") (m : Machine.t) =
  if not (Cr.paging_enabled m.Machine.cr) then []
  else begin
    let active_root = Cr.root_frame m.Machine.cr in
    let active_asid = Cr.asid m.Machine.cr in
    let violations = ref [] in
    let check_tlb ~active ~cpu tlb =
      Tlb.iter_live_packed tlb ~f:(fun ~asid ~vpage p ->
          let root =
            if asid = -1 then active_root
            else if active && asid = active_asid then active_root
            else match root_of_asid asid with Some r -> r | None -> -1
          in
          if root >= 0 then
            let walked =
              reference_translate_packed m.Machine.mem ~root
                (vpage * Addr.page_size)
            in
            match stale_reason_packed p walked with
            | None -> ()
            (* A pending lazy invalidation is a declared, bounded
               staleness: the nested kernel queued the flush and
               guarantees it fires before the frame is reused.  The
               exemption is as narrow as the queue entry — (vpage,
               old frame) must both match. *)
            | Some _ when deferred ~vpage (Tlb.unpack p) -> ()
            | Some why ->
                violations :=
                  violation ~cpu ~asid ~vpage ~cached:p ~walked ~why ~op
                  :: !violations)
    in
    check_tlb ~active:true ~cpu:m.Machine.cur_cpu m.Machine.tlb;
    Array.iteri
      (fun i tlb -> check_tlb ~active:false ~cpu:(peer_cpu m i) tlb)
      m.Machine.peer_tlbs;
    List.sort compare_violation !violations
  end

(* Targeted audit of the one translation the MMU just served: O(1), so
   it can run after every access without making the fuzzer quadratic.
   No optional arguments on the path the hook takes: each would box a
   [Some] per access. *)
let va_violations ~deferred ~op (m : Machine.t) va =
  if not (Cr.paging_enabled m.Machine.cr) then []
  else
    let vpage = Addr.vpage va in
    let asid = Cr.asid m.Machine.cr in
    let p = Tlb.peek_packed m.Machine.tlb ~asid ~vpage in
    if p = Tlb.miss then []
    else
      let walked =
        reference_translate_packed m.Machine.mem
          ~root:(Cr.root_frame m.Machine.cr) va
      in
      match stale_reason_packed p walked with
      | None -> []
      | Some _ when deferred ~vpage (Tlb.unpack p) -> []
      | Some why ->
          [
            violation ~cpu:m.Machine.cur_cpu
              ~asid:(if Tlb.packed_global p then -1 else asid)
              ~vpage ~cached:p ~walked ~why ~op;
          ]

let check_va ?(deferred = no_deferred) ?(op = "access") m va =
  va_violations ~deferred ~op m va

(* ---- incremental audit ------------------------------------------- *)

(* The full audit re-walks every live entry of every TLB; on a busy
   machine that is a couple of hundred walks per hook event, nearly all
   re-confirming kernel entries nothing touched.  The hook's audit
   instead keeps, for every cached entry, the root and the page-table
   frames its last walk read (a reverse index frame -> entries), and
   re-walks an entry only when

   - a frame on its walk path was stored to (the {!Phys_mem} store
     log, which watches exactly the indexed frames);
   - it was filled since the last event (the {!Tlb} insert log);
   - its root changed: a CR3/ASID switch, a different active CPU, or a
     different [root_of_asid] answer;
   - its last verdict was not plainly clean: a violation is reported
     again at every event until it is flushed, and a [deferred]
     exemption can lapse without any store.

   A walk's result is a function of the root and of the frames on its
   path alone, so when no trigger applies the verdict is provably
   unchanged and the audit returns exactly what [check_machine] would.
   The triggers come from the hardware models, never from the vMMU
   under audit, so a raw store behind the vMMU's back is seen like any
   other.  A log overflow falls back to re-walking (stores) or
   rescanning (fills) wholesale.

   Everything below is flat int arrays: an event with no trigger
   allocates nothing. *)

(* Index keys: TLB slot, ASID + 1 (0 = global), vpage. *)
let asid_shift = 36
let slot_shift = 49
let key ~slot ~asid ~vpage =
  (slot lsl slot_shift) lor ((asid + 1) lsl asid_shift) lor vpage
let key_slot k = k lsr slot_shift
let key_asid k = ((k lsr asid_shift) land 0x1fff) - 1
let key_vpage k = k land ((1 lsl asid_shift) - 1)

(* splitmix64's finalizer, constants truncated to OCaml's int width:
   the slot bits sit far above the table mask and must reach it. *)
let hash k =
  let h = (k lxor (k lsr 30)) * 0x3f58476d1ce4e5b9 in
  let h = (h lxor (h lsr 27)) * 0x14d049bb133111eb in
  (h lxor (h lsr 31)) land max_int

let unresolved = -2

type state = {
  m : Machine.t;
  resolve : int -> Addr.frame option;
  deferred : vpage:int -> Tlb.entry -> bool;
  path : int array;
  mutable ev : int;  (* hook events so far: the dirty-mark stamp *)
  mutable viols : violation list;  (* this event's, unsorted *)
  (* TLB registry, slot -> TLB by physical identity *)
  mutable tlbs : Tlb.t array;
  mutable ntlbs : int;
  mutable s_seen : int array;  (* event the slot was last present at *)
  mutable s_cpu : int array;  (* its CPU id at that event *)
  mutable s_scan : int array;  (* 1 = rescan the whole TLB *)
  mutable s_cnt : int array;  (* indexed entries *)
  (* indexed entries; the path nodes of entry [e] are [4e .. 4e+3] *)
  mutable e_key : int array;  (* -1 = free *)
  mutable e_root : int array;  (* root of the last walk, -1 = skipped *)
  mutable e_top : int array;  (* the root-table word that walk read *)
  mutable e_mark : int array;  (* event the entry was last queued at *)
  mutable n_frame : int array;  (* frame the node hangs off, -1 = none *)
  mutable n_next : int array;
  mutable n_prev : int array;
  mutable nent : int;  (* ids ever handed out *)
  mutable live : int array;
      (* every id handed out, the [nlive] in use first (sweeps walk
         these), then the free ones *)
  mutable nlive : int;
  mutable e_pos : int array;  (* id -> index in [live] *)
  mutable swept : int;  (* [nlive] after the last sweep of dead entries *)
  mutable f_head : int array;  (* frame -> first dependent node *)
  (* key -> entry for the [live] ids: linear probing, backward-shift
     deletion *)
  mutable hkeys : int array;
  mutable hvals : int array;
  mutable dirty : int array;  (* this event's re-walk queue *)
  mutable ndirty : int;
  mutable special : int array;  (* entries last judged exempt or violating *)
  mutable nspecial : int;
  (* ASIDs with indexed entries, and the root each resolved to *)
  mutable a_cnt : int array;
  mutable a_root : int array;
  mutable a_pos : int array;
  mutable a_list : int array;
  mutable na : int;
  (* the active context the index was last judged under *)
  mutable act_slot : int;
  mutable act_root : int;
  mutable act_asid : int;
}

let create_state ~resolve ~deferred (m : Machine.t) =
  let cap = 16 in
  {
    m;
    resolve;
    deferred;
    path = Array.make 4 (-1);
    ev = 0;
    viols = [];
    tlbs = [||];
    ntlbs = 0;
    s_seen = [||];
    s_cpu = [||];
    s_scan = [||];
    s_cnt = [||];
    e_key = Array.make cap (-1);
    e_root = Array.make cap (-1);
    e_top = Array.make cap 0;
    e_mark = Array.make cap (-1);
    n_frame = Array.make (4 * cap) (-1);
    n_next = Array.make (4 * cap) (-1);
    n_prev = Array.make (4 * cap) (-1);
    nent = 0;
    live = Array.make cap 0;
    nlive = 0;
    e_pos = Array.make cap 0;
    swept = 0;
    f_head = [||];
    hkeys = Array.make (2 * cap) (-1);
    hvals = Array.make (2 * cap) 0;
    dirty = Array.make cap 0;
    ndirty = 0;
    special = Array.make cap 0;
    nspecial = 0;
    a_cnt = [||];
    a_root = [||];
    a_pos = [||];
    a_list = [||];
    na = 0;
    act_slot = -1;
    act_root = -1;
    act_asid = -1;
  }

let grow a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* --- key -> entry hash --------------------------------------------- *)

let hslot st k =
  let mask = Array.length st.hkeys - 1 in
  let i = ref (hash k land mask) in
  while st.hkeys.(!i) <> k && st.hkeys.(!i) <> -1 do
    i := (!i + 1) land mask
  done;
  !i

let hfind st k =
  let i = hslot st k in
  if st.hkeys.(i) = k then st.hvals.(i) else -1

let hinsert st k e =
  let i = hslot st k in
  st.hkeys.(i) <- k;
  st.hvals.(i) <- e

(* [e] has just joined [live]; past half load, rebuild at double size. *)
let hadd st k e =
  if 2 * st.nlive > Array.length st.hkeys then begin
    let n = 2 * Array.length st.hkeys in
    st.hkeys <- Array.make n (-1);
    st.hvals <- Array.make n 0;
    for j = 0 to st.nlive - 1 do
      let e = st.live.(j) in
      hinsert st st.e_key.(e) e
    done
  end
  else hinsert st k e

let hremove st k =
  let mask = Array.length st.hkeys - 1 in
  let hole = ref (hslot st k) in
  st.hkeys.(!hole) <- -1;
  let j = ref ((!hole + 1) land mask) in
  while st.hkeys.(!j) <> -1 do
    let h = hash st.hkeys.(!j) land mask in
    (* the key at [j] may fill the hole unless its home lies
       cyclically in (hole, j] *)
    let stays =
      if !hole <= !j then h > !hole && h <= !j else h > !hole || h <= !j
    in
    if not stays then begin
      st.hkeys.(!hole) <- st.hkeys.(!j);
      st.hvals.(!hole) <- st.hvals.(!j);
      st.hkeys.(!j) <- -1;
      hole := !j
    end;
    j := (!j + 1) land mask
  done

(* --- reverse index frame -> dependent path nodes ------------------- *)

let unlink st node =
  let f = st.n_frame.(node) in
  let prev = st.n_prev.(node) and next = st.n_next.(node) in
  if prev < 0 then st.f_head.(f) <- next else st.n_next.(prev) <- next;
  if next >= 0 then st.n_prev.(next) <- prev;
  st.n_frame.(node) <- -1;
  if st.f_head.(f) < 0 then Phys_mem.unwatch_frame st.m.Machine.mem f

let link st node f =
  if f >= Array.length st.f_head then begin
    let n = ref (max 64 (Array.length st.f_head)) in
    while f >= !n do
      n := 2 * !n
    done;
    st.f_head <- grow st.f_head !n (-1)
  end;
  let next = st.f_head.(f) in
  if next < 0 then Phys_mem.watch_frame st.m.Machine.mem f
  else st.n_prev.(next) <- node;
  st.n_next.(node) <- next;
  st.n_prev.(node) <- -1;
  st.n_frame.(node) <- f;
  st.f_head.(f) <- node

(* Hang entry [e] off the frames in [st.path], moving only the nodes
   whose frame changed. *)
let relink st e =
  for i = 0 to 3 do
    let node = (4 * e) + i and f = st.path.(i) in
    if st.n_frame.(node) <> f then begin
      if st.n_frame.(node) >= 0 then unlink st node;
      if f >= 0 then link st node f
    end
  done

(* --- entries -------------------------------------------------------- *)

let asid_ref st a =
  if a >= Array.length st.a_cnt then begin
    let n = max 64 (2 * (a + 1)) in
    st.a_cnt <- grow st.a_cnt n 0;
    st.a_root <- grow st.a_root n unresolved;
    st.a_pos <- grow st.a_pos n 0;
    st.a_list <- grow st.a_list n 0
  end;
  if st.a_cnt.(a) = 0 then begin
    st.a_pos.(a) <- st.na;
    st.a_list.(st.na) <- a;
    st.na <- st.na + 1;
    st.a_root.(a) <- unresolved
  end;
  st.a_cnt.(a) <- st.a_cnt.(a) + 1

let asid_unref st a =
  st.a_cnt.(a) <- st.a_cnt.(a) - 1;
  if st.a_cnt.(a) = 0 then begin
    let last = st.a_list.(st.na - 1) in
    st.a_list.(st.a_pos.(a)) <- last;
    st.a_pos.(last) <- st.a_pos.(a);
    st.na <- st.na - 1
  end

let grow_entries st =
  let cap = Array.length st.e_key in
  let n = 2 * cap in
  st.e_key <- grow st.e_key n (-1);
  st.e_root <- grow st.e_root n (-1);
  st.e_top <- grow st.e_top n 0;
  st.e_mark <- grow st.e_mark n (-1);
  st.n_frame <- grow st.n_frame (4 * n) (-1);
  st.n_next <- grow st.n_next (4 * n) (-1);
  st.n_prev <- grow st.n_prev (4 * n) (-1);
  st.live <- grow st.live n 0;
  st.e_pos <- grow st.e_pos n 0;
  st.dirty <- grow st.dirty n 0;
  st.special <- grow st.special n 0

let add_entry st k =
  if st.nlive = st.nent then begin
    if st.nent = Array.length st.e_key then grow_entries st;
    st.live.(st.nent) <- st.nent;
    st.e_pos.(st.nent) <- st.nent;
    st.nent <- st.nent + 1
  end;
  let e = st.live.(st.nlive) in
  st.nlive <- st.nlive + 1;
  st.e_key.(e) <- k;
  st.e_root.(e) <- -1;
  st.e_mark.(e) <- -1;
  hadd st k e;
  let slot = key_slot k and asid = key_asid k in
  st.s_cnt.(slot) <- st.s_cnt.(slot) + 1;
  if asid >= 0 then asid_ref st asid;
  e

let remove_entry st e =
  let k = st.e_key.(e) in
  for i = 0 to 3 do
    if st.n_frame.((4 * e) + i) >= 0 then unlink st ((4 * e) + i)
  done;
  hremove st k;
  let slot = key_slot k and asid = key_asid k in
  st.s_cnt.(slot) <- st.s_cnt.(slot) - 1;
  if asid >= 0 then asid_unref st asid;
  st.e_key.(e) <- -1;
  (* swap [e] with the last id in use: it becomes the first free one *)
  let pos = st.e_pos.(e) and last = st.live.(st.nlive - 1) in
  st.live.(pos) <- last;
  st.e_pos.(last) <- pos;
  st.nlive <- st.nlive - 1;
  st.live.(st.nlive) <- e;
  st.e_pos.(e) <- st.nlive

let mark st e =
  if st.e_mark.(e) <> st.ev then begin
    st.e_mark.(e) <- st.ev;
    st.dirty.(st.ndirty) <- e;
    st.ndirty <- st.ndirty + 1
  end

(* Queue the entry for (slot, asid, vpage) — indexing it first when it
   is new and still live (a fill already flushed again needs nothing). *)
let note_fill st ~slot ~asid ~vpage =
  let k = key ~slot ~asid ~vpage in
  let e = hfind st k in
  if e >= 0 then mark st e
  else if Tlb.live_packed st.tlbs.(slot) ~asid ~vpage <> Tlb.miss then
    mark st (add_entry st k)

(* --- TLB registry --------------------------------------------------- *)

let register st tlb =
  let s = st.ntlbs in
  if s = Array.length st.tlbs then begin
    let n = max 8 (2 * s) in
    st.tlbs <- grow st.tlbs n tlb;
    st.s_seen <- grow st.s_seen n (-1);
    st.s_cpu <- grow st.s_cpu n 0;
    st.s_scan <- grow st.s_scan n 0;
    st.s_cnt <- grow st.s_cnt n 0
  end;
  st.tlbs.(s) <- tlb;
  st.s_scan.(s) <- 1;
  st.s_cnt.(s) <- 0;
  st.ntlbs <- s + 1;
  Tlb.start_insert_log tlb;
  s

let present st tlb ~cpu =
  let s = ref (-1) in
  for i = 0 to st.ntlbs - 1 do
    if !s < 0 && st.tlbs.(i) == tlb then s := i
  done;
  let s = if !s >= 0 then !s else register st tlb in
  st.s_seen.(s) <- st.ev;
  st.s_cpu.(s) <- cpu;
  s

let expected_root st ~slot ~asid =
  if asid < 0 || (slot = st.act_slot && asid = st.act_asid) then st.act_root
  else st.a_root.(asid)

let top_word st ~root ~vpage =
  Phys_mem.read_table_word st.m.Machine.mem ~frame:root
    ~index:(Addr.index_at_level ~level:4 (vpage * Addr.page_size))

(* Re-walk one entry against its current root and file the verdict. *)
let recheck st e ~op =
  let k = st.e_key.(e) in
  let slot = key_slot k and asid = key_asid k and vpage = key_vpage k in
  let p = Tlb.live_packed st.tlbs.(slot) ~asid ~vpage in
  if p = Tlb.miss then remove_entry st e
  else begin
    let root = expected_root st ~slot ~asid in
    st.e_root.(e) <- root;
    let walked =
      if root < 0 then begin
        Array.fill st.path 0 4 (-1);
        0
      end
      else
        reference_walk st.m.Machine.mem ~root (vpage * Addr.page_size) st.path
    in
    relink st e;
    if st.path.(0) >= 0 then st.e_top.(e) <- top_word st ~root ~vpage;
    if root >= 0 then
      match stale_reason_packed p walked with
      | None -> ()
      | Some why ->
          st.special.(st.nspecial) <- e;
          st.nspecial <- st.nspecial + 1;
          if not (st.deferred ~vpage (Tlb.unpack p)) then
            st.viols <-
              violation ~cpu:st.s_cpu.(slot) ~asid ~vpage ~cached:p ~walked
                ~why ~op
              :: st.viols
  end

(* An entry flushed with no trigger (a full flush, nothing stored)
   lingers until its next re-walk finds it gone.  Once the index has
   doubled since the last sweep, drop every entry its TLB no longer
   holds, so the index stays within about twice the live TLB contents
   at amortized O(1) per fill. *)
let sweep_dead st =
  if st.nlive > (2 * st.swept) + 64 then begin
    for j = st.nlive - 1 downto 0 do
      let e = st.live.(j) in
      let k = st.e_key.(e) in
      let tlb = st.tlbs.(key_slot k) in
      if Tlb.live_packed tlb ~asid:(key_asid k) ~vpage:(key_vpage k) = Tlb.miss
      then remove_entry st e
    done;
    st.swept <- st.nlive
  end

let mark_where st pred =
  for j = 0 to st.nlive - 1 do
    let e = st.live.(j) in
    if pred e then mark st e
  done

let audit st ~op =
  let m = st.m in
  if not (Cr.paging_enabled m.Machine.cr) then []
  else begin
    st.ev <- st.ev + 1;
    st.ndirty <- 0;
    (* Which TLBs are on the machine now, and under which CPU ids.  A
       TLB that left drops its entries and is rescanned if it returns. *)
    let act = present st m.Machine.tlb ~cpu:m.Machine.cur_cpu in
    for i = 0 to Array.length m.Machine.peer_tlbs - 1 do
      ignore (present st m.Machine.peer_tlbs.(i) ~cpu:(peer_cpu m i))
    done;
    for s = 0 to st.ntlbs - 1 do
      if st.s_seen.(s) <> st.ev then begin
        (* downward: removal swaps the last live id into the hole *)
        if st.s_cnt.(s) > 0 then
          for j = st.nlive - 1 downto 0 do
            let e = st.live.(j) in
            if key_slot st.e_key.(e) = s then remove_entry st e
          done;
        st.s_scan.(s) <- 1
      end
    done;
    sweep_dead st;
    (* Trigger 1: stores to frames some indexed walk read. *)
    let mem = m.Machine.mem in
    if Phys_mem.store_log_overflowed mem then mark_where st (fun _ -> true)
    else
      for i = 0 to Phys_mem.logged_stores mem - 1 do
        let f = Phys_mem.logged_store mem i in
        if f < Array.length st.f_head then begin
          let node = ref st.f_head.(f) in
          while !node >= 0 do
            mark st (!node lsr 2);
            node := st.n_next.(!node)
          done
        end
      done;
    Phys_mem.clear_store_log mem;
    (* Trigger 2: fills. *)
    for s = 0 to st.ntlbs - 1 do
      if st.s_seen.(s) = st.ev then begin
        let tlb = st.tlbs.(s) in
        if st.s_scan.(s) = 1 || Tlb.insert_log_overflowed tlb then begin
          mark_where st (fun e -> key_slot st.e_key.(e) = s);
          Tlb.iter_live_packed tlb ~f:(fun ~asid ~vpage _ ->
              note_fill st ~slot:s ~asid ~vpage);
          st.s_scan.(s) <- 0
        end
        else
          for i = 0 to Tlb.logged_inserts tlb - 1 do
            note_fill st ~slot:s ~asid:(Tlb.logged_asid tlb i)
              ~vpage:(Tlb.logged_vpage tlb i)
          done;
        Tlb.clear_insert_log tlb
      end
    done;
    (* Trigger 3: roots.  Only a change to a root some indexed entry
       was already judged under needs the sweep; a newly seen ASID's
       entries are all fresh fills. *)
    let root = Cr.root_frame m.Machine.cr and asid = Cr.asid m.Machine.cr in
    let moved =
      ref (act <> st.act_slot || root <> st.act_root || asid <> st.act_asid)
    in
    st.act_slot <- act;
    st.act_root <- root;
    st.act_asid <- asid;
    for j = 0 to st.na - 1 do
      let a = st.a_list.(j) in
      let r = match st.resolve a with Some r -> r | None -> -1 in
      if r <> st.a_root.(a) then begin
        if st.a_root.(a) <> unresolved then moved := true;
        st.a_root.(a) <- r
      end
    done;
    (* Trigger 4: last event's violations and exemptions. *)
    for j = 0 to st.nspecial - 1 do
      let e = st.special.(j) in
      if st.e_key.(e) >= 0 then mark st e
    done;
    st.nspecial <- 0;
    (* An entry queued for nothing but a new root whose root-table word
       at its index equals the one its last walk read would retrace
       that walk below the root exactly — no frame on it was stored to,
       or a store would have queued it — so only the root node moves.
       This is the common case by far: kernel (global) entries are
       judged under the active root, which changes with every switch
       between address spaces, while all roots share the kernel's
       top-level entries. *)
    if !moved then
      for j = 0 to st.nlive - 1 do
        let e = st.live.(j) in
        let k = st.e_key.(e) in
        if st.e_mark.(e) <> st.ev then begin
          let old = st.e_root.(e) in
          let r = expected_root st ~slot:(key_slot k) ~asid:(key_asid k) in
          if r <> old then
            if
              r >= 0
              && st.n_frame.(4 * e) = old
              && old >= 0
              && Phys_mem.valid_frame mem r
              && top_word st ~root:r ~vpage:(key_vpage k) = st.e_top.(e)
            then begin
              st.e_root.(e) <- r;
              unlink st (4 * e);
              link st (4 * e) r
            end
            else mark st e
        end
      done;
    for j = 0 to st.ndirty - 1 do
      recheck st st.dirty.(j) ~op
    done;
    st.ndirty <- 0;
    let vs = st.viols in
    st.viols <- [];
    (* [List.sort] builds its closures even for an empty list *)
    if vs = [] then vs else List.sort compare_violation vs
  end

let enable ?(root_of_asid = no_root) ?(deferred = no_deferred) ?on_violation
    (m : Machine.t) =
  let st = create_state ~resolve:root_of_asid ~deferred m in
  (* A previous oracle's watches index frames this one knows nothing of. *)
  Phys_mem.stop_store_log m.Machine.mem;
  let checking = ref false in
  let hook ~op ~va =
    (* Mid-gate the PTE write and its shootdown are two steps; the
       window between them is legitimately incoherent, and the gate
       exit fires a full check.  The guard also stops the oracle from
       auditing its own resolver's reads.  Stores and fills made while
       suppressed stay in the logs for the next event. *)
    if (not !checking) && not m.Machine.in_nested_kernel then begin
      checking := true;
      (* Hand-rolled Fun.protect: the hook fires after every access on
         a fuzzing run, and the two closures Fun.protect builds per
         call are measurable there. *)
      try
        let vs =
          if va >= 0 then va_violations ~deferred ~op m va else audit st ~op
        in
        (if vs <> [] then
           match on_violation with
           | Some f -> f vs
           | None -> raise (Violation vs));
        checking := false
      with e ->
        checking := false;
        raise e
    end
  in
  m.Machine.coherence_hook <- Some hook

let disable (m : Machine.t) =
  Phys_mem.stop_store_log m.Machine.mem;
  Tlb.stop_insert_log m.Machine.tlb;
  Array.iter Tlb.stop_insert_log m.Machine.peer_tlbs;
  m.Machine.coherence_hook <- None
