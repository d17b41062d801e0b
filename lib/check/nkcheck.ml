(* Exhaustive small-scope model checker for the nested kernel.

   A tiny two-CPU universe — one page-table chain, a spare PTP, two
   data frames, a second PML4 root and a 2 MiB large-leaf target — is
   driven through every interleaving of a small vocabulary of
   operations (vMMU calls, CR loads, TLB-filling touches, CPU
   migration, DMA, frame reuse, fault-injector toggles), up to a
   bounded depth.  After every step the paper's invariants I1-I13
   ({!Nested_kernel.Invariants}) and the differential TLB-coherence
   oracle ({!Nkhw.Coherence}) must hold; every newly reached state
   additionally passes a destructive shutdown check (drain the lazy
   unmap queue, then re-audit with no exemptions left).

   Exhaustiveness works by state-space search, not sequence
   enumeration: semantically equal states (same bounded memory image,
   TLBs, CRs, descriptors, PCID bindings, deferred queue, ...) have
   equal op semantics, so exploring each canonical state once covers
   every op sequence up to the depth bound.  Expansion replays the
   reaching prefix from the booted state — there is no undo, and
   nothing in a universe depends on host randomness or time, so a
   replayed prefix lands on the bit-identical state.

   The explorer boots two universes per run: a template, booted and
   never armed or run, and one work universe.  Before each transition
   the work universe is restored from the template in place (every
   hw and nested-kernel object copies the template's contents into its
   own) and its oracle re-armed, so no machine is allocated per
   transition.  A restored universe must be indistinguishable from a
   freshly booted one; {!restore_mismatches} checks exactly that, state
   by state, and the shrinker and script replays keep booting fresh.

   Counterexamples shrink greedily (ddmin-style single-op removal to a
   fixpoint) and serialize to replayable scripts; see
   {!script_of_counterexample} / {!replay_script} and the [nksim
   check] subcommand. *)

open Nkhw
open Nested_kernel

(* --- configuration ------------------------------------------------ *)

type vocab = Core | Full | Domains

type config = {
  depth : int;
  vocab : vocab;
  inject : bool;  (* add the rate-1.0 injector-toggle ops *)
  max_states : int;  (* safety valve on the visited-state set *)
}

let default = { depth = 4; vocab = Core; inject = false; max_states = 200_000 }

let vocab_name = function Core -> "core" | Full -> "full" | Domains -> "domains"

let vocab_of_name = function
  | "core" -> Some Core
  | "full" -> Some Full
  | "domains" -> Some Domains
  | _ -> None

(* --- the universe ------------------------------------------------- *)

(* Small on purpose: the restore before every explored transition
   copies the whole plane, so every frame in the machine is either
   load-bearing or part of the 2 MiB large-leaf span. *)
let total_frames = 544

let layout =
  {
    Init.gate_frames = 2;
    stack_frames = 2;
    idt_frames = 1;
    heap_frames = 4;
    ptp_pool_frames = 12;
  }

type u = {
  st : State.t;
  smp : Smp.t;
  (* playground frames, fixed by the layout *)
  f_pdpt : Addr.frame;
  f_pd : Addr.frame;
  f_pt : Addr.frame;
  f_pt2 : Addr.frame;
  f_d0 : Addr.frame;
  f_d1 : Addr.frame;
  f_root2 : Addr.frame;
  f_large : Addr.frame;  (* first frame of the 2 MiB leaf's 512-frame span *)
  (* tenant playground, only populated when the universe boots with
     [~domains:true] (the [Domains] vocabulary) *)
  f_pta : Addr.frame;  (* leaf table tenant A owns *)
  f_ptb : Addr.frame;  (* leaf table tenant B owns *)
  f_da : Addr.frame;  (* data frame tenant A claims *)
  f_db : Addr.frame;  (* data frame tenant B claims *)
  mutable dom_a : int;  (* tenant A's id, 0 when domains are off *)
  mutable dom_b : int;
  mutable tok_a : int;  (* entry tokens, handed out once at create *)
  mutable tok_b : int;
  mutable inj_mode : int;  (* 0 off, 1 gate-denied, 2 ipi-drop, 3 ipi-delay *)
  mutable oracle : string list;  (* collected coherence violations *)
}

let u_va = Addr.make_va ~pml4:0 ~pdpt:0 ~pd:0 ~pt:0 ~offset:0
let u_va_large = Addr.make_va ~pml4:0 ~pdpt:0 ~pd:1 ~pt:0 ~offset:0

let link_flags = { Pte.no_flags with Pte.present = true; writable = true; user = true }

let fail_nk what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "nkcheck prelude: %s: %s" what (Nk_error.to_string e))

(* Deterministic boot + prelude.  Everything exploration assumes is
   set up here: the user-half chain root[0]->pdpt[0]->pd[0]->pt with
   pt[0] mapping d0 user-rw, a second root sharing only the kernel
   half, CR4.PCIDE on with PCID 0 bound to the main root, and both
   CPUs' TLBs warmed with the u0 translation.  The oracle is left off
   ({!arm} installs it), so the result can serve as a template. *)
let boot_universe ?(domains = false) () =
  (* The domain universe carries four more playground frames (two
     tenant-owned leaf tables, two claimed data frames); core/full get
     the historical machine so their explored-state counts and
     fingerprints are untouched. *)
  let frames = if domains then total_frames + 8 else total_frames in
  let m = Machine.create ~frames () in
  let st = Api.boot_exn ~layout m in
  let smp = Smp.create m in
  let o = Api.outer_first_frame st in
  let u =
    {
      st;
      smp;
      f_pdpt = o;
      f_pd = o + 1;
      f_pt = o + 2;
      f_pt2 = o + 3;
      f_d0 = o + 4;
      f_d1 = o + 5;
      f_root2 = o + 6;
      f_large = frames - Addr.entries_per_table;
      f_pta = o + 7;
      f_ptb = o + 8;
      f_da = o + 9;
      f_db = o + 10;
      dom_a = 0;
      dom_b = 0;
      tok_a = 0;
      tok_b = 0;
      inj_mode = 0;
      oracle = [];
    }
  in
  assert (u.f_large > if domains then u.f_db else u.f_root2);
  fail_nk "declare pdpt" (Api.declare_ptp st ~level:3 u.f_pdpt);
  fail_nk "declare pd" (Api.declare_ptp st ~level:2 u.f_pd);
  fail_nk "declare pt" (Api.declare_ptp st ~level:1 u.f_pt);
  fail_nk "declare root2" (Api.declare_ptp st ~level:4 u.f_root2);
  (* Second root: kernel half only (one batch = one gate crossing),
     copied before the user chain exists so root2 never reaches it. *)
  let kernel_links = ref [] in
  for i = Addr.entries_per_table - 1 downto 0 do
    let e = Page_table.get_entry m.Machine.mem ~ptp:st.State.root_pml4 ~index:i in
    if Pte.is_present e then kernel_links := (u.f_root2, i, e) :: !kernel_links
  done;
  fail_nk "root2 kernel half" (Api.write_pte_batch st !kernel_links);
  (* User chain + baseline data mapping. *)
  let link ~ptp ~index child =
    fail_nk "link" (Api.write_pte st ~ptp ~index (Pte.make ~frame:child link_flags))
  in
  link ~ptp:st.State.root_pml4 ~index:0 u.f_pdpt;
  link ~ptp:u.f_pdpt ~index:0 u.f_pd;
  link ~ptp:u.f_pd ~index:0 u.f_pt;
  fail_nk "map d0"
    (Api.write_pte st ~ptp:u.f_pt ~index:0 (Pte.make ~frame:u.f_d0 Pte.user_rw_nx));
  (* PCIDs on; PCID 0 stays bound to the boot root. *)
  fail_nk "cr4.pcide" (Api.load_cr4 st (m.Machine.cr.Cr.cr4 lor Cr.cr4_pcide));
  fail_nk "cr3 pcid0" (Api.load_cr3_pcid st ~pcid:0 st.State.root_pml4);
  (* Two tenant domains for the [Domains] vocabulary: each declares
     its own leaf table (declaring claims it), links it under the
     shared pd, and maps one fresh data frame (the first leaf map of a
     free frame claims it).  One bounded pipe A->B is the only channel
     between them.  Ends back under host authority. *)
  if domains then begin
    let dom_a, tok_a = fail_nk "create dom A" (Api.nk_domain_create st) in
    let dom_b, tok_b = fail_nk "create dom B" (Api.nk_domain_create st) in
    u.dom_a <- dom_a;
    u.dom_b <- dom_b;
    u.tok_a <- tok_a;
    u.tok_b <- tok_b;
    fail_nk "pipe a->b" (Api.nk_pipe_open st ~cap:2 ~src:dom_a ~dst:dom_b ());
    fail_nk "enter A" (Api.nk_domain_enter st ~domain:dom_a ~token:tok_a);
    fail_nk "declare pta" (Api.declare_ptp st ~level:1 u.f_pta);
    link ~ptp:u.f_pd ~index:3 u.f_pta;
    fail_nk "map da"
      (Api.write_pte st ~ptp:u.f_pta ~index:0 (Pte.make ~frame:u.f_da Pte.user_rw_nx));
    fail_nk "enter B" (Api.nk_domain_enter st ~domain:dom_b ~token:tok_b);
    fail_nk "declare ptb" (Api.declare_ptp st ~level:1 u.f_ptb);
    link ~ptp:u.f_pd ~index:4 u.f_ptb;
    fail_nk "map db"
      (Api.write_pte st ~ptp:u.f_ptb ~index:0 (Pte.make ~frame:u.f_db Pte.user_rw_nx));
    fail_nk "rehost" (Api.nk_domain_enter st ~domain:0 ~token:0)
  end;
  (* Second CPU, brought up after CR4 so it inherits PCIDE, with the
     same boot stack (the two never run concurrently in this model). *)
  let cpu1 = Smp.add_cpu smp in
  Cpu_state.set (Smp.cpu_state smp cpu1) Insn.RSP (Addr.kva_of_frame frames);
  (* Warm both TLBs with the u0 translation. *)
  ignore (Machine.write_u8 m ~ring:Mmu.User u_va 0x5a);
  Smp.activate smp cpu1;
  ignore (Machine.write_u8 m ~ring:Mmu.User u_va 0x5a);
  Smp.activate smp 0;
  u

(* The oracle collects instead of raising so one op can surface
   several violations and the explorer stays in control.  Enabling
   builds the oracle's index and its hook's re-entry guard afresh from
   the machine as it stands, so arming a restored universe is exactly
   arming a booted one, even after an op that raised mid-check. *)
let arm u =
  Api.Diagnostics.Coherence.enable
    ~on_violation:(fun vs ->
      u.oracle <-
        u.oracle
        @ List.map (fun v -> Format.asprintf "%a" Coherence.pp_violation v) vs)
    u.st

let boot_armed ~domains =
  let u = boot_universe ~domains () in
  arm u;
  u

(* Make [u] the template again, in place.  Disarming goes straight to
   the hardware oracle: Api's disable would first drain the deferred
   queue, mutating the universe being thrown away for nothing.  The
   template was never armed, so its store and insert logs are off and
   the restore leaves them off until [arm] turns them on. *)
let restore ~template u =
  Coherence.disable u.st.State.machine;
  Smp.restore ~src:template.smp u.smp;
  State.restore ~src:template.st u.st;
  u.dom_a <- template.dom_a;
  u.dom_b <- template.dom_b;
  u.tok_a <- template.tok_a;
  u.tok_b <- template.tok_b;
  u.inj_mode <- template.inj_mode;
  u.oracle <- template.oracle;
  arm u

(* --- op vocabulary ------------------------------------------------ *)

let ign (_ : (unit, Nk_error.t) result) = ()

let pte_garbage =
  (* What a hijacked device would write into a page-table page: a
     supervisor-writable mapping of frame 0. *)
  let v = Pte.make ~frame:0 Pte.kernel_rw in
  let b = Bytes.create 8 in
  for i = 0 to 7 do
    Bytes.set b i (Char.chr ((v lsr (8 * i)) land 0xff))
  done;
  b

let clear_inject u =
  Api.set_inject u.st None;
  Smp.set_inject u.smp None;
  u.inj_mode <- 0

let set_inject u mode site =
  (* Rate 1.0 on a single site: the threshold equals the PRNG
     resolution, so the fault fires on every draw — the injector
     contributes no hidden randomness and the mode integer is the
     whole of its semantic state. *)
  clear_inject u;
  let inj = Nkinject.create ~sites:[ site ] ~seed:1 ~rate:1.0 () in
  (match site with
  | Nkinject.Gate_denied -> Api.set_inject u.st (Some inj)
  | _ -> Smp.set_inject u.smp (Some inj));
  u.inj_mode <- mode

(* Every op the checker knows, in fixed order; [`Core] marks the
   depth-5 exhaustive vocabulary, [`Full] the wider one, [`Inject] the
   fault-schedule toggles added by [config.inject]. *)
let op_table u : (string * [ `Core | `Full | `Inject | `Domains ] * (unit -> unit)) list =
  let st = u.st in
  let m = st.State.machine in
  let w ~ptp ~index pte = ign (Api.write_pte st ~ptp ~index pte) in
  let touch va () =
    ignore (Machine.write_u8 m ~ring:Mmu.User va 0x5a);
    ignore (Machine.read_u8 m ~ring:Mmu.User va)
  in
  [
    (* 4 KiB leaf traffic through pt[0] (VA page 0). *)
    ("map-d0", `Core, fun () -> w ~ptp:u.f_pt ~index:0 (Pte.make ~frame:u.f_d0 Pte.user_rw_nx));
    ("map-ro", `Core, fun () -> w ~ptp:u.f_pt ~index:0 (Pte.make ~frame:u.f_d0 Pte.user_ro_nx));
    ( "map-global",
      `Core,
      fun () ->
        w ~ptp:u.f_pt ~index:0
          (Pte.make ~frame:u.f_d0 { Pte.user_rw_nx with Pte.global = true }) );
    ("unmap", `Core, fun () -> w ~ptp:u.f_pt ~index:0 Pte.empty);
    ("map-d1", `Full, fun () -> w ~ptp:u.f_pt ~index:0 (Pte.make ~frame:u.f_d1 Pte.user_rw_nx));
    ( "map-ps4k",
      `Full,
      (* PS set on a level-1 entry: hardware treats it as a plain 4 KiB
         leaf (the bit is PAT there), so the vMMU must too. *)
      fun () ->
        w ~ptp:u.f_pt ~index:0
          (Pte.make ~frame:u.f_d0 { Pte.user_rw_nx with Pte.large = true }) );
    (* 2 MiB leaf at pd[1] (VA pages 512..1023). *)
    ( "map-large",
      `Core,
      fun () ->
        w ~ptp:u.f_pd ~index:1
          (Pte.make ~frame:u.f_large { Pte.user_rw_nx with Pte.large = true }) );
    ("unmap-large", `Core, fun () -> w ~ptp:u.f_pd ~index:1 Pte.empty);
    (* Batched updates through pt[4]/pt[5]: the downgrade pair stays
       present, so it takes the coalescing path rather than deferral. *)
    ( "batch-map",
      `Full,
      fun () ->
        ign
          (Api.write_pte_batch st
             [
               (u.f_pt, 4, Pte.make ~frame:u.f_d0 Pte.user_rw_nx);
               (u.f_pt, 5, Pte.make ~frame:u.f_d1 Pte.user_rw_nx);
             ]) );
    ( "batch-down",
      `Full,
      fun () ->
        ign
          (Api.write_pte_batch st
             [
               (u.f_pt, 4, Pte.make ~frame:u.f_d0 Pte.user_ro_nx);
               (u.f_pt, 5, Pte.make ~frame:u.f_d1 Pte.user_ro_nx);
             ]) );
    (* PTP lifecycle on the spare frame. *)
    ("declare-pt2", `Full, fun () -> ign (Api.declare_ptp st ~level:1 u.f_pt2));
    ("remove-pt2", `Full, fun () -> ign (Api.remove_ptp st u.f_pt2));
    ("link-pt2", `Full, fun () -> w ~ptp:u.f_pd ~index:2 (Pte.make ~frame:u.f_pt2 link_flags));
    ("unlink-pt2", `Full, fun () -> w ~ptp:u.f_pd ~index:2 Pte.empty);
    ("map2", `Full, fun () -> w ~ptp:u.f_pt2 ~index:0 (Pte.make ~frame:u.f_d1 Pte.user_rw_nx));
    (* Structure edits higher up the tree. *)
    ("link-root3", `Full, fun () -> w ~ptp:st.State.root_pml4 ~index:3 (Pte.make ~frame:u.f_pdpt link_flags));
    ("unlink-root3", `Full, fun () -> w ~ptp:st.State.root_pml4 ~index:3 Pte.empty);
    ("unlink-pt", `Full, fun () -> w ~ptp:u.f_pd ~index:0 Pte.empty);
    (* TLB fills. *)
    ("touch", `Core, touch u_va);
    ("touch-large", `Core, touch u_va_large);
    (* Address-space switches: tagged, tag rebinds, legacy, and the
       CR4.PCIDE toggles. *)
    ("cr3-pcid0", `Core, fun () -> ign (Api.load_cr3_pcid st ~pcid:0 st.State.root_pml4));
    ("cr3-pcid1", `Core, fun () -> ign (Api.load_cr3_pcid st ~pcid:1 u.f_root2));
    ("cr3-pcid1-root", `Full, fun () -> ign (Api.load_cr3_pcid st ~pcid:1 st.State.root_pml4));
    ("cr3-legacy", `Full, fun () -> ign (Api.load_cr3 st st.State.root_pml4));
    ("cr4-nopcide", `Full, fun () -> ign (Api.load_cr4 st (m.Machine.cr.Cr.cr4 land lnot Cr.cr4_pcide)));
    ("cr4-pcide", `Full, fun () -> ign (Api.load_cr4 st (m.Machine.cr.Cr.cr4 lor Cr.cr4_pcide)));
    (* CPU migration (the executor's drain-then-run discipline). *)
    ( "migrate",
      `Core,
      fun () ->
        let target = 1 - Smp.active u.smp in
        Smp.activate u.smp target;
        ignore (Smp.drain_ipis u.smp target) );
    (* Frame reuse: the allocator's on_alloc barrier for d0. *)
    ("reuse-d0", `Core, fun () -> Api.nk_flush_deferred st u.f_d0);
    (* DMA: an allowed write to plain data, and the IOMMU attack
       surface on the spare PTP frame. *)
    ("dma-d1", `Full, fun () -> ignore (Dma.write m ~pa:(Addr.pa_of_frame u.f_d1) pte_garbage));
    ("dma-pt2", `Full, fun () -> ignore (Dma.write m ~pa:(Addr.pa_of_frame u.f_pt2) pte_garbage));
    (* A bare gate crossing. *)
    ("gate-null", `Full, fun () -> ign (Api.nk_null st));
    (* Tenant domains: authority switches, writes whose legality
       depends on who is current (the ownership lattice, I14),
       deferred unmaps carrying a domain mark, the pipe, and victim
       teardown.  Only meaningful after the [~domains:true] prelude. *)
    ("dom-enter-a", `Domains, fun () -> ign (Api.nk_domain_enter st ~domain:u.dom_a ~token:u.tok_a));
    ("dom-enter-b", `Domains, fun () -> ign (Api.nk_domain_enter st ~domain:u.dom_b ~token:u.tok_b));
    ("dom-host", `Domains, fun () -> ign (Api.nk_domain_enter st ~domain:0 ~token:0));
    ("dom-enter-bad", `Domains, fun () -> ign (Api.nk_domain_enter st ~domain:u.dom_b ~token:u.tok_a));
    ("dom-map-a", `Domains, fun () -> w ~ptp:u.f_pta ~index:1 (Pte.make ~frame:u.f_da Pte.user_rw_nx));
    ("dom-map-xdb", `Domains, fun () -> w ~ptp:u.f_pta ~index:1 (Pte.make ~frame:u.f_db Pte.user_rw_nx));
    ("dom-unmap-a", `Domains, fun () -> w ~ptp:u.f_pta ~index:0 Pte.empty);
    ("dom-unmap-b", `Domains, fun () -> w ~ptp:u.f_ptb ~index:0 Pte.empty);
    ("dom-unlink-ptb", `Domains, fun () -> w ~ptp:u.f_pd ~index:4 Pte.empty);
    ("dom-remove-ptb", `Domains, fun () -> ign (Api.remove_ptp st u.f_ptb));
    ("dom-pipe-send", `Domains, fun () -> ign (Api.nk_pipe_send st ~dst:u.dom_b 0x2a));
    ( "dom-pipe-recv",
      `Domains,
      fun () ->
        match Api.nk_pipe_recv st ~src:u.dom_a with Ok _ | Error _ -> () );
    ( "dom-destroy-b",
      `Domains,
      fun () ->
        match Api.nk_domain_destroy st ~domain:u.dom_b with
        | Ok _ | Error _ -> () );
    (* Deterministic fault schedules (rate 1.0, single site). *)
    ("inject-gate", `Inject, fun () -> set_inject u 1 Nkinject.Gate_denied);
    ("inject-ipi-drop", `Inject, fun () -> set_inject u 2 Nkinject.Ipi_drop);
    ("inject-ipi-delay", `Inject, fun () -> set_inject u 3 Nkinject.Ipi_delay);
    ("inject-off", `Inject, fun () -> clear_inject u);
  ]

let vocab_ops cfg table =
  List.filter_map
    (fun (name, cls, f) ->
      match (cls, cfg.vocab, cfg.inject) with
      | `Core, _, _ -> Some (name, f)
      | `Full, Full, _ -> Some (name, f)
      | `Full, (Core | Domains), _ -> None
      | `Domains, Domains, _ -> Some (name, f)
      | `Domains, (Core | Full), _ -> None
      | `Inject, _, true -> Some (name, f)
      | `Inject, _, false -> None)
    table

(* --- state fingerprint -------------------------------------------- *)

(* Two independent FNV-style folds give a 124-bit fingerprint; the
   visited set keys on the pair, so a silent collision (which would
   unsoundly prune a state) needs both 62-bit hashes to collide at
   once.

   Hashed: everything op semantics can read — bounded physical memory,
   per-CPU CRs/TLBs/mailboxes, the active CPU, IDTR, SMM owner, IOMMU
   bits, residency masks, page descriptors, PCID bindings, the
   deferred-flush queue, and the injector mode.  Excluded as
   non-semantic: the cycle clock, trace/TLB-statistics counters, the
   injector's PRNG position (rate 1.0 fires regardless), denied-write
   diagnostics, and stack residue in the boot-stack frame (dead bytes
   below RSP that no op reads). *)

type fp = int * int

let[@inline] fp_mix1 h1 x = (h1 lxor x) * 0x100000001b3 land max_int
let[@inline] fp_mix2 h2 x = ((h2 + x + 1) * 0x27d4eb2f165667c5 + 0x9e3779b9) land max_int

let fp_mix (h1, h2) x =
  let x = x land max_int in
  (fp_mix1 h1 x, fp_mix2 h2 x)

let fp_bool h b = fp_mix h (if b then 1 else 0)
let fp_list h f l = List.fold_left f (fp_mix h (List.length l)) l

let ptype_tag = function
  | Pgdesc.Unused -> 0
  | Pgdesc.Nk_code -> 1
  | Pgdesc.Nk_data -> 2
  | Pgdesc.Nk_stack -> 3
  | Pgdesc.Outer_code -> 4
  | Pgdesc.Outer_data -> 5
  | Pgdesc.User -> 6
  | Pgdesc.Protected_data -> 7
  | Pgdesc.Ptp l -> 10 + l

let ipi_tag = function Smp.Reschedule -> 1 | Smp.Shootdown -> 2 | Smp.Halt -> 3

let fp_tlb h tlb =
  let entries = ref [] in
  Tlb.iter_live_packed tlb ~f:(fun ~asid ~vpage w ->
      entries :=
        ( asid,
          vpage,
          Tlb.packed_frame w,
          (if Tlb.packed_writable w then 1 else 0)
          lor (if Tlb.packed_user w then 2 else 0)
          lor (if Tlb.packed_nx w then 4 else 0)
          lor if Tlb.packed_global w then 8 else 0 )
        :: !entries);
  fp_list h
    (fun h (a, v, f, fl) -> fp_mix (fp_mix (fp_mix (fp_mix h a) v) f) fl)
    (List.sort compare !entries)

let fp_scope h = function
  | Machine.Broadcast -> fp_mix h (-2)
  | Machine.Asids l -> fp_list h fp_mix l
  | Machine.Cpuset mask -> fp_mix (fp_mix h (-3)) mask

let fingerprint (u : u) : fp =
  let st = u.st in
  let m = st.State.machine in
  let mem = m.Machine.mem in
  (* Bounded physical memory: the NK region, the playground, and the
     first pages of the large-leaf span — every frame any op writes
     but the boot stack's.  The bulk of the fold, so it runs [fp_mix]
     on two unboxed accumulators rather than a pair per word. *)
  let hi = u.f_large + 1 in
  let h1 = ref 0x3bf29ce484222325 and h2 = ref 0x1e3779b97f4a7c15 in
  for f = 0 to hi do
    for w = 0 to (Addr.page_size / 8) - 1 do
      let x = Phys_mem.read_table_word mem ~frame:f ~index:w land max_int in
      h1 := fp_mix1 !h1 x;
      h2 := fp_mix2 !h2 x
    done
  done;
  let h = ref (!h1, !h2) in
  let mix x = h := fp_mix !h x in
  (* Per-CPU architectural state. *)
  mix (Smp.active u.smp);
  for id = 0 to Smp.cpu_count u.smp - 1 do
    let c = Smp.ctx u.smp id in
    mix c.Smp.cr.Cr.cr0;
    mix c.Smp.cr.Cr.cr3;
    mix c.Smp.cr.Cr.cr4;
    mix c.Smp.cr.Cr.efer;
    h := fp_bool !h c.Smp.halted;
    let q_tags q = Queue.fold (fun acc i -> ipi_tag i :: acc) [] q in
    h := fp_list !h fp_mix (List.rev (q_tags c.Smp.mailbox));
    h := fp_list !h fp_mix (List.rev (q_tags c.Smp.delayed));
    h := fp_tlb !h c.Smp.tlb
  done;
  (* Machine-wide state. *)
  mix (match m.Machine.idtr with None -> -1 | Some va -> va);
  mix (match m.Machine.smm_owner with Machine.Smm_nested_kernel -> 1 | Machine.Smm_unprotected -> 2);
  h := fp_bool !h m.Machine.in_nested_kernel;
  h := fp_list !h fp_mix m.Machine.pending_interrupts;
  mix m.Machine.global_residency;
  let res = ref [] in
  for a = Array.length m.Machine.asid_residency - 1 downto 0 do
    let mask = m.Machine.asid_residency.(a) in
    if mask <> 0 then res := (a, mask) :: !res
  done;
  h := fp_list !h (fun h (a, mk) -> fp_mix (fp_mix h a) mk) !res;
  for f = 0 to hi do
    h := fp_bool !h (Iommu.is_protected m.Machine.iommu f)
  done;
  (* Page descriptors over the same bounded range. *)
  for f = 0 to hi do
    let d = Pgdesc.get st.State.descs f in
    mix (ptype_tag d.Pgdesc.ptype);
    mix d.Pgdesc.owner;
    h := fp_bool !h d.Pgdesc.validated_code;
    h :=
      fp_list !h
        (fun h (mp : Pgdesc.mapping) ->
          fp_mix (fp_mix (fp_mix h mp.Pgdesc.ptp) mp.Pgdesc.index)
            (match mp.Pgdesc.kind with Pgdesc.Data_map -> 1 | Pgdesc.Table_link -> 2))
        (List.sort compare d.Pgdesc.mappings)
  done;
  (* Nested-kernel bookkeeping. *)
  let roots = Hashtbl.fold (fun p r acc -> (p, r) :: acc) st.State.pcid_roots [] in
  h := fp_list !h (fun h (p, r) -> fp_mix (fp_mix h p) r) (List.sort compare roots);
  (* Tenant-domain state: who is current, which domains are live, and
     every pipe's queued words.  All constant (0 / empty) when the
     universe booted without domains, so core/full fingerprints keep
     their historical equivalence classes.  Tokens are a deterministic
     function of the id and denial counters are diagnostics; neither
     is hashed. *)
  mix st.State.cur_domain;
  let doms =
    Hashtbl.fold
      (fun id (d : State.domain) acc -> (id, d.State.dom_live) :: acc)
      st.State.domains []
  in
  h :=
    fp_list !h
      (fun h (id, live) -> fp_bool (fp_mix h id) live)
      (List.sort compare doms);
  let pipes =
    Hashtbl.fold
      (fun (s, d) (p : State.pipe) acc ->
        (s, d, Queue.fold (fun ws w -> w :: ws) [] p.State.pipe_buf) :: acc)
      st.State.pipes []
  in
  h :=
    fp_list !h
      (fun h (s, d, ws) -> fp_list (fp_mix (fp_mix h s) d) fp_mix ws)
      (List.sort compare pipes);
  mix st.State.deferred_count;
  let defer =
    Hashtbl.fold
      (fun f recs acc ->
        ( f,
          List.sort compare
            (List.map
               (fun (r : State.pending_flush) ->
                 ( r.State.pf_frame,
                   r.State.pf_slot,
                   r.State.pf_scope,
                   r.State.pf_spans,
                   r.State.pf_domain ))
               recs) )
        :: acc)
      st.State.deferred_frames []
  in
  h :=
    fp_list !h
      (fun h (f, recs) ->
        fp_list (fp_mix h f)
          (fun h (pf, (sp, si), scope, spans, dom) ->
            let h = fp_mix (fp_mix (fp_mix h pf) sp) si in
            let h = fp_scope h scope in
            let h = fp_mix h dom in
            fp_list h (fun h (v, n) -> fp_mix (fp_mix h v) n) spans)
          recs)
      (List.sort compare defer);
  let slots = Hashtbl.fold (fun (p, i) f acc -> (p, i, f) :: acc) st.State.deferred_slots [] in
  h := fp_list !h (fun h (p, i, f) -> fp_mix (fp_mix (fp_mix h p) i) f) (List.sort compare slots);
  h := fp_bool !h st.State.lock_held;
  mix u.inj_mode;
  !h

(* --- per-step and shutdown checks --------------------------------- *)

let drain_oracle u =
  let vs = u.oracle in
  u.oracle <- [];
  vs

let step_checks u =
  let st = u.st in
  let m = st.State.machine in
  let fails = ref [] in
  let add f = fails := !fails @ [ f ] in
  List.iter (fun v -> add ("oracle: " ^ v)) (drain_oracle u);
  List.iter
    (fun (v : Invariants.violation) ->
      add (Printf.sprintf "invariant %s: %s" v.Invariants.invariant v.Invariants.detail))
    (Api.audit st);
  if st.State.lock_held then add "state: gate lock held after op";
  if m.Machine.in_nested_kernel then add "state: in_nested_kernel after op";
  for id = 0 to Smp.cpu_count u.smp - 1 do
    if not (Cr.wp_enabled (Smp.ctx u.smp id).Smp.cr) then
      add (Printf.sprintf "wp-isolation: CPU %d has CR0.WP clear outside the gate" id)
  done;
  (* Deferred-queue bookkeeping must stay internally consistent. *)
  let live = Hashtbl.fold (fun _ rs n -> n + List.length rs) st.State.deferred_frames 0 in
  if live <> st.State.deferred_count then
    add
      (Printf.sprintf "deferred: count %d but %d records queued" st.State.deferred_count
         live);
  Hashtbl.iter
    (fun (p, i) f ->
      match Hashtbl.find_opt st.State.deferred_frames f with
      | Some recs when List.exists (fun r -> r.State.pf_slot = (p, i)) recs -> ()
      | _ -> add (Printf.sprintf "deferred: slot (%d,%d) points at frame %d with no record" p i f))
    st.State.deferred_slots;
  !fails

(* Destructive end-of-sequence check: drain the lazy unmap queue, then
   everything must audit clean with no exemptions left.  Always the last
   thing run on a universe: the explorer restores over it before the
   next transition. *)
let shutdown_checks u =
  let st = u.st in
  let fails = ref [] in
  let add f = fails := !fails @ [ f ] in
  (match Api.nk_flush_all_deferred st with
  | () -> ()
  | exception e -> add ("shutdown: drain raised " ^ Printexc.to_string e));
  List.iter (fun v -> add ("shutdown-oracle: " ^ v)) (drain_oracle u);
  if Api.nk_deferred_live st <> 0 then
    add (Printf.sprintf "shutdown: %d deferred records survive the drain" (Api.nk_deferred_live st));
  List.iter
    (fun (v : Invariants.violation) ->
      add (Printf.sprintf "shutdown-invariant %s: %s" v.Invariants.invariant v.Invariants.detail))
    (Api.audit st);
  List.iter
    (fun v -> add (Format.asprintf "shutdown-oracle: %a" Coherence.pp_violation v))
    (Api.Diagnostics.Coherence.snapshot ~op:"nkcheck-shutdown" st);
  ignore (drain_oracle u);
  !fails

(* Dedup signature for a failure: the class of the first complaint,
   so one bug shrinks once instead of once per reaching sequence. *)
let signature_of = function
  | [] -> "none"
  | f :: _ -> (
      match String.index_opt f ':' with
      | Some i -> String.sub f 0 i
      | None -> f)

(* --- applying ops ------------------------------------------------- *)

let apply_op _u (name, f) =
  match f () with
  | () -> None
  | exception e ->
      Some (Printf.sprintf "exception: %s escaped op %s" (Printexc.to_string e) name)

let find_op table name =
  List.find_map (fun (n, _, f) -> if n = name then Some (n, f) else None) table

(* Replay [names] with no checks; the per-op oracle collector is
   cleared afterwards so earlier (already-reported) violations are not
   re-attributed to the next op. *)
let replay_prefix table u names =
  List.iter
    (fun name ->
      match find_op table name with
      | Some op -> ignore (apply_op u op)
      | None -> failwith ("nkcheck: unknown op in replay: " ^ name))
    names;
  ignore (drain_oracle u)

(* A sequence touching any dom-* op needs the two-tenant prelude; the
   op names themselves carry that bit, so replayed scripts and shrink
   candidates boot the right universe without out-of-band state. *)
let needs_domains names =
  List.exists (fun n -> String.length n >= 4 && String.sub n 0 4 = "dom-") names

(* Run [names] from boot with full per-step checks and the shutdown
   check at the end; the result is every failure, step-indexed. *)
let run_checked names =
  let u = boot_armed ~domains:(needs_domains names) in
  let table = op_table u in
  ignore (drain_oracle u);
  let fails = ref [] in
  List.iteri
    (fun i name ->
      match find_op table name with
      | None -> fails := !fails @ [ (i, "unknown op: " ^ name) ]
      | Some op ->
          (match apply_op u op with
          | Some f -> fails := !fails @ [ (i, f) ]
          | None -> ());
          List.iter (fun f -> fails := !fails @ [ (i, f) ]) (step_checks u))
    names;
  List.iter
    (fun f -> fails := !fails @ [ (List.length names, f) ])
    (shutdown_checks u);
  !fails

(* --- shrinking ---------------------------------------------------- *)

(* Greedy single-op removal to a fixpoint: with sequences this short
   (<= depth + 1) the quadratic cost is negligible, and the result is
   1-minimal — no single op can be dropped and still fail the same
   way. *)
let shrink ~signature ops =
  let fails_same candidate =
    match run_checked candidate with
    | [] -> false
    | fs -> List.exists (fun (_, f) -> signature_of [ f ] = signature) fs
  in
  let rec pass ops =
    let n = List.length ops in
    let rec try_remove i =
      if i >= n then ops
      else
        let candidate = List.filteri (fun j _ -> j <> i) ops in
        if fails_same candidate then pass candidate else try_remove (i + 1)
    in
    try_remove 0
  in
  pass ops

(* --- the explorer ------------------------------------------------- *)

type counterexample = {
  cx_signature : string;
  cx_ops : string list;  (* shrunk, 1-minimal *)
  cx_raw_ops : string list;  (* as first discovered *)
  cx_failure : string;
}

type report = {
  rp_config : config;
  rp_op_names : string list;
  rp_states : int;
  rp_transitions : int;
  rp_truncated : bool;
  rp_counterexamples : counterexample list;
}

(* The explorer proper; also returns the sequence that first reached
   each visited state, in discovery order. *)
let explore cfg =
  let visited : (fp, unit) Hashtbl.t = Hashtbl.create 4096 in
  let queue : (string list * int) Queue.t = Queue.create () in
  let transitions = ref 0 in
  let truncated = ref false in
  let cxs = ref [] in
  let seen_sigs : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let record ops fails =
    let signature = signature_of fails in
    if not (Hashtbl.mem seen_sigs signature) then begin
      Hashtbl.replace seen_sigs signature ();
      let shrunk = shrink ~signature ops in
      cxs :=
        !cxs
        @ [
            {
              cx_signature = signature;
              cx_ops = shrunk;
              cx_raw_ops = ops;
              cx_failure = String.concat "; " fails;
            };
          ]
    end
  in
  (* Seed state, on the work universe; the template is never run. *)
  let domains = cfg.vocab = Domains in
  let template = boot_universe ~domains () in
  let u = boot_armed ~domains in
  let table = op_table u in
  ignore (drain_oracle u);
  let names = List.map fst (vocab_ops cfg table) in
  Hashtbl.replace visited (fingerprint u) ();
  (match step_checks u with
  | [] -> ()
  | fails -> record [] fails);
  let reached = ref [ [] ] in
  Queue.push ([], 0) queue;
  while (not (Queue.is_empty queue)) && not !truncated do
    let prefix_rev, depth = Queue.pop queue in
    if depth < cfg.depth then
      List.iter
        (fun name ->
          if not !truncated then begin
            incr transitions;
            restore ~template u;
            replay_prefix table u (List.rev prefix_rev);
            let ops = List.rev (name :: prefix_rev) in
            match
              (match find_op table name with
              | Some op -> apply_op u op
              | None -> Some ("unknown op: " ^ name))
            with
            | Some exn_fail ->
                (* An escaped exception poisons the state: report, do
                   not expand. *)
                record ops (exn_fail :: step_checks u)
            | None -> (
                let fp = fingerprint u in
                match step_checks u with
                | _ :: _ as fails -> record ops fails
                | [] ->
                    if not (Hashtbl.mem visited fp) then begin
                      if Hashtbl.length visited >= cfg.max_states then
                        truncated := true
                      else begin
                        Hashtbl.replace visited fp ();
                        (* Shutdown check is destructive; the next
                           transition restores over it either way. *)
                        (match shutdown_checks u with
                        | [] -> ()
                        | fails -> record ops fails);
                        reached := ops :: !reached;
                        Queue.push (name :: prefix_rev, depth + 1) queue
                      end
                    end)
          end)
        names
  done;
  ( {
      rp_config = cfg;
      rp_op_names = names;
      rp_states = Hashtbl.length visited;
      rp_transitions = !transitions;
      rp_truncated = !truncated;
      rp_counterexamples = !cxs;
    },
    List.rev !reached )

let run cfg = fst (explore cfg)

(* --- restore against boot ----------------------------------------- *)

(* Frames above the fingerprinted range that hold anything.  The
   fingerprint hashes frames [0, f_large + 1] only, which is sound only
   while every op leaves the rest of the large-leaf span zero; the one
   exception is the boot stack at the top of the last frame, whose dead
   residue below RSP no op reads (see the fingerprint's comment). *)
let nonzero_frames u =
  let mem = u.st.State.machine.Machine.mem in
  let last = Phys_mem.num_frames mem - 1 in
  let dirty = ref [] in
  for f = last - 1 downto u.f_large + 2 do
    let w = ref 0 in
    while !w < Addr.entries_per_table && Phys_mem.read_table_word mem ~frame:f ~index:!w = 0 do
      incr w
    done;
    if !w < Addr.entries_per_table then dirty := f :: !dirty
  done;
  !dirty

(* A restored universe against a booted one, object by object: every
   closure-free component must be structurally equal, and the
   machine's view and peer arrays must be the universe's own context
   objects.  This sees state no op happens to read back. *)
let image_mismatches u fresh =
  let m = u.st.State.machine and fm = fresh.st.State.machine in
  let bad = ref [] in
  let cmp name a b = if a <> b then bad := name :: !bad in
  cmp "memory" m.Machine.mem fm.Machine.mem;
  cmp "active cpu" (Smp.active u.smp, m.Machine.cur_cpu) (Smp.active fresh.smp, fm.Machine.cur_cpu);
  for id = 0 to Smp.cpu_count u.smp - 1 do
    let ctx smp =
      let c = Smp.ctx smp id in
      (c.Smp.cpu, c.Smp.cr, c.Smp.tlb, c.Smp.mailbox, c.Smp.delayed, Smp.local_cycles smp id,
       c.Smp.shootdowns_rx, c.Smp.halted)
    in
    cmp (Printf.sprintf "cpu %d" id) (ctx u.smp) (ctx fresh.smp)
  done;
  let act = Smp.ctx u.smp (Smp.active u.smp) in
  if
    not
      (m.Machine.cpu == act.Smp.cpu && m.Machine.cr == act.Smp.cr
     && m.Machine.tlb == act.Smp.tlb)
  then bad := "view not on the active context" :: !bad;
  Array.iteri
    (fun i id ->
      let c = Smp.ctx u.smp id in
      if not (m.Machine.peer_tlbs.(i) == c.Smp.tlb && m.Machine.peer_crs.(i) == c.Smp.cr) then
        bad := "peer arrays not on the parked contexts" :: !bad)
    m.Machine.peer_ids;
  let machine (m : Machine.t) =
    ( (m.Machine.peer_ids, m.Machine.asid_residency, m.Machine.max_res_asid,
       m.Machine.global_residency, m.Machine.res_memo_asid, m.Machine.res_memo_cpu),
      (Clock.cycles m.Machine.clock, m.Machine.iommu, m.Machine.msrs, m.Machine.idtr,
       m.Machine.pending_interrupts, m.Machine.smm_owner, m.Machine.in_nested_kernel,
       m.Machine.last_trap),
      (Nktrace.snapshot m.Machine.trace).Nktrace.counters )
  in
  cmp "machine" (machine m) (machine fm);
  let nk (st : State.t) =
    ( (st.State.gate, st.State.descs, st.State.heap, st.State.write_descriptors),
      (st.State.pcid_roots, st.State.deferred_frames, st.State.deferred_slots,
       st.State.deferred_count),
      (st.State.next_wd_id, st.State.lock_held, st.State.denied_writes, st.State.domains,
       st.State.pipes, st.State.next_domain, st.State.cur_domain) )
  in
  cmp "nested kernel" (nk u.st) (nk fresh.st);
  cmp "checker" (u.dom_a, u.dom_b, u.tok_a, u.tok_b, u.inj_mode, u.oracle)
    (fresh.dom_a, fresh.dom_b, fresh.tok_a, fresh.tok_b, fresh.inj_mode, fresh.oracle);
  List.rev !bad

let restore_mismatches cfg =
  let _, reached = explore cfg in
  let reached = Array.of_list reached in
  let n = Array.length reached in
  let domains = cfg.vocab = Domains in
  let template = boot_universe ~domains () in
  let u = boot_armed ~domains in
  let table = op_table u in
  let vocab = List.map fst (vocab_ops cfg table) in
  (* Everything observable about running [names] on [v]: each op's
     escaped exception, fingerprint and step checks, then the stray
     frames and the destructive shutdown check. *)
  let observe v table names =
    let steps =
      List.map
        (fun name ->
          let exn =
            match find_op table name with Some op -> apply_op v op | None -> None
          in
          (exn, fingerprint v, step_checks v))
        names
    in
    (steps, nonzero_frames v, shutdown_checks v)
  in
  let bad = ref [] in
  Array.iteri
    (fun i names ->
      (* Dirty the work universe the way a transition does — a
         different reached sequence (the mirror-image index, so shallow
         states are restored over deep ones and the other way round),
         every other time after one pass over the whole vocabulary,
         then the step checks, whose audit fills TLBs — then restore
         and run.  The vocabulary pass reaches state no short sequence
         does.  No shutdown check: its drain would empty the deferred
         queue the restore must also undo. *)
      let j = if n - 1 - i <> i then n - 1 - i else (i + 1) mod n in
      let dirt = if i land 1 = 0 then reached.(j) else vocab @ reached.(j) in
      restore ~template u;
      replay_prefix table u dirt;
      ignore (step_checks u);
      restore ~template u;
      let fresh = boot_armed ~domains in
      let what = String.concat " " names in
      List.iter
        (fun part ->
          bad := Printf.sprintf "[%s] after restoring over [%s]: %s differs from a fresh boot" what
                   (String.concat " " dirt) part :: !bad)
        (image_mismatches u fresh);
      let ((_, stray, _) as got) = observe u table names in
      let want = observe fresh (op_table fresh) names in
      if got <> want then
        bad := Printf.sprintf "[%s] after restoring over [%s]: differs from a fresh boot" what
                 (String.concat " " dirt) :: !bad;
      if stray <> [] then
        bad := Printf.sprintf "[%s]: frames %s above the fingerprinted range are not zero" what
                 (String.concat "," (List.map string_of_int stray)) :: !bad)
    reached;
  List.rev !bad

(* --- counterexample scripts --------------------------------------- *)

let script_of_counterexample cfg cx =
  let b = Buffer.create 256 in
  Buffer.add_string b "# nkcheck counterexample\n";
  Buffer.add_string b (Printf.sprintf "# signature: %s\n" cx.cx_signature);
  Buffer.add_string b
    (Printf.sprintf "# found at: vocab=%s depth=%d inject=%b\n" (vocab_name cfg.vocab)
       cfg.depth cfg.inject);
  Buffer.add_string b (Printf.sprintf "# failure: %s\n" cx.cx_failure);
  List.iter (fun op -> Buffer.add_string b ("op " ^ op ^ "\n")) cx.cx_ops;
  Buffer.contents b

type replay_outcome = { ro_ops : string list; ro_failures : (int * string) list }

let parse_script content =
  let ops = ref [] in
  String.split_on_char '\n' content
  |> List.iteri (fun lineno line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then ()
         else
           match String.split_on_char ' ' line with
           | [ "op"; name ] -> ops := name :: !ops
           | _ ->
               failwith
                 (Printf.sprintf "nkcheck script: cannot parse line %d: %S" (lineno + 1)
                    line));
  List.rev !ops

let replay_script content =
  let ops = parse_script content in
  { ro_ops = ops; ro_failures = run_checked ops }

(* --- reporting ---------------------------------------------------- *)

let pp_report ppf r =
  Format.fprintf ppf "nkcheck: vocab=%s ops=%d depth=%d inject=%b@."
    (vocab_name r.rp_config.vocab)
    (List.length r.rp_op_names)
    r.rp_config.depth r.rp_config.inject;
  Format.fprintf ppf "vocabulary: %s@." (String.concat " " r.rp_op_names);
  Format.fprintf ppf "states explored: %d@." r.rp_states;
  Format.fprintf ppf "transitions checked: %d@." r.rp_transitions;
  if r.rp_truncated then
    Format.fprintf ppf "WARNING: truncated at max-states=%d (bound NOT exhausted)@."
      r.rp_config.max_states
  else
    Format.fprintf ppf
      "bound exhausted: every op sequence up to depth %d covered (up to state \
       equivalence)@."
      r.rp_config.depth;
  Format.fprintf ppf "counterexamples: %d@." (List.length r.rp_counterexamples);
  List.iter
    (fun cx ->
      Format.fprintf ppf "@.counterexample [%s]@." cx.cx_signature;
      Format.fprintf ppf "  ops (shrunk): %s@." (String.concat " -> " cx.cx_ops);
      Format.fprintf ppf "  ops (found):  %s@." (String.concat " -> " cx.cx_raw_ops);
      Format.fprintf ppf "  failure: %s@." cx.cx_failure)
    r.rp_counterexamples
