open Nkhw
open Outer_kernel
open Nk_workloads
module Api = Nested_kernel.Api

(* The incremental coherence oracle against the full one.  The hook's
   audit re-walks only what a store, fill or root change could have
   altered; [Coherence.check_machine] re-walks everything.  They must
   agree at every event — on clean runs, under seeded mutants of the
   shootdown protocol, and under a fuzzed op mix salted with raw
   stores and fills behind the vMMU's back. *)

(* ---- the differential wrapper --------------------------------------- *)

(* Test-only wrapper over the public [Machine.coherence_hook], in the
   shape of nkbench's [wrap_oracle]: (re)installs the oracle collecting
   instead of raising, and at every full-audit event the hook actually
   runs (not mid-gate) also takes [check_machine] and records both
   lists.  Per-access checks pass straight through but are logged, so
   a test can tell which path caught a violation. *)
type event = {
  e_op : string;
  e_inc : Coherence.violation list;  (* what the hook's audit reported *)
  e_full : Coherence.violation list;  (* what check_machine says *)
}

type equiv = {
  mutable events : event list;  (* full-audit events, newest first *)
  mutable va_hits : Coherence.violation list;  (* per-access catches *)
  mutable mismatches : int;
}

let wrap_equiv ?(root_of_asid = fun _ -> None) ?deferred (m : Machine.t) =
  let got = ref [] in
  Coherence.enable ~root_of_asid ?deferred
    ~on_violation:(fun vs -> got := vs)
    m;
  let r = { events = []; va_hits = []; mismatches = 0 } in
  (match m.Machine.coherence_hook with
  | None -> Alcotest.fail "oracle not installed"
  | Some f ->
      m.Machine.coherence_hook <-
        Some
          (fun ~op ~va ->
            got := [];
            f ~op ~va;
            if va >= 0 then r.va_hits <- !got @ r.va_hits
            else if not m.Machine.in_nested_kernel then begin
              let full =
                Coherence.check_machine ~root_of_asid ?deferred ~op m
              in
              if full <> !got then r.mismatches <- r.mismatches + 1;
              r.events <- { e_op = op; e_inc = !got; e_full = full } :: r.events
            end));
  r

let wrap_nk nk =
  wrap_equiv ~root_of_asid:(Api.nk_root_of_asid nk)
    ~deferred:(Api.nk_is_deferred nk) (Api.machine nk)

let pp_vs vs =
  String.concat "; " (List.map (Format.asprintf "%a" Coherence.pp_violation) vs)

let check_agree name r =
  if r.mismatches > 0 then
    match List.find_opt (fun e -> e.e_inc <> e.e_full) (List.rev r.events) with
    | Some e ->
        Alcotest.failf
          "%s: %d mismatching events; first after %s: incremental [%s] vs \
           full [%s]"
          name r.mismatches e.e_op (pp_vs e.e_inc) (pp_vs e.e_full)
    | None -> Alcotest.failf "%s: %d mismatching events" name r.mismatches

(* The newest event, which must have flagged exactly [cpus] (by real
   id) on both oracles. *)
let caught_now name r ~op ~cpus =
  check_agree name r;
  match r.events with
  | { e_op; e_inc = _ :: _ as vs; e_full = _ :: _ } :: _ ->
      Alcotest.(check string) (name ^ ": caught at") op e_op;
      Alcotest.(check (list int))
        (name ^ ": on cpus") cpus
        (List.sort_uniq compare (List.map (fun v -> v.Coherence.v_cpu) vs))
  | { e_op; _ } :: _ -> Alcotest.failf "%s: nothing flagged after %s" name e_op
  | [] -> Alcotest.failf "%s: no audit event fired" name

let clean_now name r =
  check_agree name r;
  match r.events with
  | { e_inc = []; _ } :: _ -> ()
  | { e_op; e_inc; _ } :: _ ->
      Alcotest.failf "%s: flagged after %s: %s" name e_op (pp_vs e_inc)
  | [] -> Alcotest.failf "%s: no audit event fired" name

(* ---- a bare two-root, two-CPU machine --------------------------------- *)

(* Roots [r1] and [r2] both map the user page [uva] writable (to
   frames 40 and 41) and share one kernel page [kva] through a copied
   top-level entry, as every address space shares the kernel half.
   The resolver answers from [bind], the PCID -> root table a nested
   kernel would keep. *)
let uva = 0x400000
let kva = Addr.kva_of_frame 42

type bare = {
  m : Machine.t;
  smp : Smp.t;
  r1 : Addr.frame;
  r2 : Addr.frame;
  bind : (int, Addr.frame) Hashtbl.t;
}

let bare ?(pcid = true) ?(user_global = false) () =
  let m = Machine.create ~frames:256 () in
  let mem = m.Machine.mem in
  let next = ref 8 in
  let alloc () =
    incr next;
    !next
  in
  let r1 = alloc () and r2 = alloc () in
  let map root va frame flags =
    Pt_builder.map_page mem ~root ~alloc_ptp:alloc va (Pte.make ~frame flags)
  in
  map r1 uva 40 { Pte.user_rw_nx with Pte.global = user_global };
  map r2 uva 41 Pte.user_rw_nx;
  map r1 kva 42 { Pte.kernel_rw_nx with Pte.global = true };
  let slot root = Addr.pa_of_frame root + (8 * Addr.pml4_index kva) in
  Phys_mem.write_u64 mem (slot r2) (Phys_mem.read_u64 mem (slot r1));
  let cr = m.Machine.cr in
  cr.Cr.cr0 <- Cr.cr0_pe lor Cr.cr0_pg lor Cr.cr0_wp;
  cr.Cr.cr4 <- (Cr.cr4_pae lor if pcid then Cr.cr4_pcide else 0);
  cr.Cr.efer <- Cr.efer_lme lor Cr.efer_nx;
  cr.Cr.cr3 <- Cr.cr3_value ~frame:r1 ~pcid:(if pcid then 1 else 0);
  let bind = Hashtbl.create 4 in
  Hashtbl.replace bind (Cr.asid cr) r1;
  let smp = Smp.create m in
  ignore (Smp.add_cpu smp);
  { m; smp; r1; r2; bind }

let resolver b a = Hashtbl.find_opt b.bind a

let touch_user b =
  Helpers.check_ok "user read" (Machine.read_u64 b.m ~ring:Mmu.User uva)

let touch_kernel b = Helpers.check_ok "kernel read" (Machine.kread_u64 b.m kva)

let leaf_pa mem ~root va =
  match Page_table.walk mem ~root va with
  | Page_table.Mapped w ->
      Page_table.entry_pa ~ptp:w.Page_table.leaf_ptp
        ~index:w.Page_table.leaf_index
  | Page_table.Not_mapped _ -> Alcotest.fail "leaf must be mapped"

(* A protection downgrade of [uva] in [r1], as the vMMU writes it. *)
let downgrade b =
  let mem = b.m.Machine.mem in
  let pa = leaf_pa mem ~root:b.r1 uva in
  Phys_mem.write_u64 mem pa (Pte.set_writable (Phys_mem.read_u64 mem pa) false)

(* Warm [uva] and [kva] on both CPUs, settle with one audit (so the
   index is built and the mutant below meets the incremental path),
   and return the wrapper. *)
let warmed b =
  let r = wrap_equiv ~root_of_asid:(resolver b) b.m in
  touch_user b;
  touch_kernel b;
  Smp.with_cpu b.smp 1 (fun () ->
      touch_user b;
      touch_kernel b);
  Machine.coherence_check b.m ~op:"settle";
  clean_now "warm-up" r;
  r

let unrelated = Addr.vpage 0x7000000

(* (a) The downgrade's local INVLPG happens, its shootdown IPI does
   not: CPU 1 keeps the writable translation. *)
let test_mutant_dropped_shootdown () =
  let b = bare () in
  let r = warmed b in
  downgrade b;
  Tlb.flush_page b.m.Machine.tlb ~vpage:(Addr.vpage uva);
  Machine.coherence_check b.m ~op:"gate_exit";
  caught_now "dropped shootdown" r ~op:"gate_exit" ~cpus:[ 1 ];
  (* The shootdown that should have happened heals it. *)
  Machine.shootdown_page b.m ~vpage:(Addr.vpage uva);
  clean_now "after the real shootdown" r

(* (b) A G bit left on an outer-kernel leaf: the user translation
   survives the CR3 switch to an address space that maps [uva]
   elsewhere — on both CPUs, since globals hit under any tag. *)
let test_mutant_leaked_gbit () =
  let b = bare ~user_global:true () in
  let r = warmed b in
  b.m.Machine.cr.Cr.cr3 <- Cr.cr3_value ~frame:b.r2 ~pcid:2;
  Hashtbl.replace b.bind 2 b.r2;
  Machine.flush_asid b.m ~asid:2;
  caught_now "leaked G bit" r ~op:"flush_asid" ~cpus:[ 0; 1 ]

(* (c) An untagged CR3 switch (every address space shares ASID 0)
   flushed only locally: CPU 1 still caches [uva] from the old root
   under the tag that now means the new one. *)
let test_mutant_local_untagged_flush () =
  let b = bare ~pcid:false () in
  let r = warmed b in
  b.m.Machine.cr.Cr.cr3 <- Cr.cr3_value ~frame:b.r2 ~pcid:0;
  Hashtbl.replace b.bind 0 b.r2;
  Machine.flush_full b.m;
  caught_now "local-only untagged flush" r ~op:"flush_full" ~cpus:[ 1 ]

(* (d) PCID 1 re-bound to another root with no flush anywhere: only
   the resolver's answer changes, nothing is stored or filled, and the
   active CR3 stays put. *)
let test_mutant_pcid_rebind () =
  let b = bare () in
  let r = warmed b in
  (* CPU 0 moves to its own tag first, cleanly. *)
  b.m.Machine.cr.Cr.cr3 <- Cr.cr3_value ~frame:b.r1 ~pcid:3;
  Hashtbl.replace b.bind 3 b.r1;
  Machine.coherence_check b.m ~op:"settle";
  clean_now "own tag" r;
  Hashtbl.replace b.bind 1 b.r2;
  Machine.shootdown_page b.m ~vpage:unrelated;
  (* CPU 0's PCID-1 entries are no longer under the active tag either:
     both CPUs hold the old binding's translations. *)
  check_agree "pcid rebind" r;
  match r.events with
  | { e_op = "shootdown_page"; e_inc; _ } :: _ ->
      Alcotest.(check (list int)) "both CPUs flagged" [ 0; 1 ]
        (List.sort_uniq compare (List.map (fun v -> v.Coherence.v_cpu) e_inc))
  | _ -> Alcotest.fail "pcid rebind: expected a flagged shootdown_page"

(* (e) A raw store into a PTP behind the vMMU's back, with no MMU access
   after it: only a parked peer caches the page, so only the full-event
   path can see it — at the next, unrelated shootdown. *)
let test_mutant_raw_ptp_store () =
  let b = bare () in
  let r = wrap_equiv ~root_of_asid:(resolver b) b.m in
  Smp.with_cpu b.smp 1 (fun () -> touch_user b);
  Machine.coherence_check b.m ~op:"settle";
  clean_now "warm-up" r;
  downgrade b;
  Machine.shootdown_page b.m ~vpage:unrelated;
  caught_now "raw PTP store" r ~op:"shootdown_page" ~cpus:[ 1 ];
  Alcotest.(check int) "not a per-access catch" 0 (List.length r.va_hits)

(* The index names an entry by its TLB slot above [Tlb.key], whose
   ASID field must hold the top 12-bit PCID as well as the globals'. *)
let test_top_pcid_indexed () =
  let b = bare () in
  b.m.Machine.cr.Cr.cr3 <- Cr.cr3_value ~frame:b.r1 ~pcid:4095;
  Hashtbl.replace b.bind 4095 b.r1;
  let r = wrap_equiv ~root_of_asid:(resolver b) b.m in
  touch_user b;
  touch_kernel b;
  Machine.coherence_check b.m ~op:"settle";
  clean_now "warm-up" r;
  downgrade b;
  Machine.shootdown_page b.m ~vpage:unrelated;
  caught_now "stale under PCID 4095" r ~op:"shootdown_page" ~cpus:[ 0 ];
  match r.events with
  | { e_inc = [ v ]; _ } :: _ ->
      Alcotest.(check (option int)) "its ASID" (Some 4095) v.Coherence.v_asid;
      Alcotest.(check int) "its vpage" (Addr.vpage uva) v.Coherence.v_vpage
  | _ -> Alcotest.fail "expected exactly the user entry flagged"

(* Positional ids would call the active CPU 0 and the first parked
   peer 1, whichever CPUs they are. *)
let test_real_cpu_ids () =
  let b = bare () in
  ignore (Smp.add_cpu b.smp);
  Smp.activate b.smp 1;
  touch_user b;
  Smp.activate b.smp 2;
  touch_user b;
  downgrade b;
  match Coherence.check_machine ~root_of_asid:(resolver b) b.m with
  | [ v1; v2 ] ->
      Alcotest.(check int) "parked CPU 1" 1 v1.Coherence.v_cpu;
      Alcotest.(check int) "active CPU 2" 2 v2.Coherence.v_cpu;
      Alcotest.(check bool) "printed as cpu2" true
        (Astring_contains.contains
           (Format.asprintf "%a" Coherence.pp_violation v2)
           "cpu2")
  | vs -> Alcotest.failf "expected 2 violations, got [%s]" (pp_vs vs)

(* ---- equivalence on real workloads ------------------------------------ *)

(* Rogue ops salted into the fuzzer's mix, so the two oracles disagree
   on something if they disagree at all: raw PTE downgrades of cached
   direct-map pages, raw fills of bogus writable translations, and
   unrelated audit events that neither store nor flush. *)
type rogue = Op of Test_fuzz.op | Raw_downgrade of int | Raw_fill of int | Probe

let gen_rogue =
  QCheck2.Gen.(
    frequency
      [
        (8, map (fun op -> Op op) Test_fuzz.gen_op);
        (1, map (fun f -> Raw_downgrade f) (int_range 0 30));
        (1, map (fun v -> Raw_fill v) (int_range 0 7));
        (1, return Probe);
      ])

let apply_rogue ~smp nk ~f0 descriptors = function
  | Op op -> Test_fuzz.apply ~smp nk ~f0 descriptors op
  | Raw_downgrade f -> (
      let m = Api.machine nk in
      let va = Addr.kva_of_frame (f0 + f) in
      let root = Cr.root_frame m.Machine.cr in
      match Page_table.walk m.Machine.mem ~root va with
      | Page_table.Mapped w when w.Page_table.level = 1 ->
          let pa =
            Page_table.entry_pa ~ptp:w.Page_table.leaf_ptp
              ~index:w.Page_table.leaf_index
          in
          let e = Phys_mem.read_u64 m.Machine.mem pa in
          Phys_mem.write_u64 m.Machine.mem pa (Pte.set_writable e false)
      | _ -> ())
  | Raw_fill v ->
      let m = Api.machine nk in
      Tlb.insert m.Machine.tlb ~asid:(Cr.asid m.Machine.cr)
        ~vpage:(Addr.vpage (0x5000000 + (v * Addr.page_size)))
        {
          Tlb.frame = f0 + v;
          writable = true;
          user = true;
          nx = false;
          global = false;
        }
  | Probe -> Machine.coherence_check (Api.machine nk) ~op:"probe"

let prop_fuzz_equivalence =
  Helpers.qtest ~count:30 "incremental = full audit over the fuzz mix"
    QCheck2.Gen.(list_size (int_range 5 60) gen_rogue)
    (fun ops ->
      let m, nk = Helpers.booted_nk () in
      let smp = Smp.create m in
      ignore (Smp.add_cpu smp);
      ignore (Smp.add_cpu smp);
      let r = wrap_nk nk in
      let f0 = Api.outer_first_frame nk in
      let descriptors = ref [||] in
      List.iter (apply_rogue ~smp nk ~f0 descriptors) ops;
      Smp.activate smp 0;
      Machine.coherence_check m ~op:"final";
      check_agree "fuzz" r;
      true)

let test_multitenant_equivalence () =
  let r = ref None in
  let p =
    Multitenant.run_one ~seed:Helpers.sched_seed ~tenants:4 ~conns:48
      ~config:Config.Perspicuos
      ~instrument:(fun k -> r := Some (wrap_nk (Option.get k.Kernel.nk)))
      ()
  in
  let r = Option.get !r in
  Alcotest.(check bool) "tenants served" true (p.Multitenant.completed > 0);
  Alcotest.(check bool) "audits compared" true (List.length r.events > 1000);
  check_agree "4 tenants" r

let test_server_equivalence () =
  let r = ref None in
  let p =
    Server_scale.run_one ~seed:Helpers.sched_seed ~config:Config.Perspicuos
      ~instrument:(fun k -> r := Some (wrap_nk (Option.get k.Kernel.nk)))
      1_000
  in
  let r = Option.get !r in
  Alcotest.(check bool)
    "requests completed" true
    (p.Server_scale.completed > 0);
  Alcotest.(check bool) "audits compared" true (List.length r.events > 100);
  check_agree "1k connections" r

(* ---- cost pins --------------------------------------------------------- *)

(* An audit with no store, fill or root change since the last one —
   the steady state between a quiet workload's events — allocates
   nothing, through the real nested-kernel resolver. *)
let test_clean_hook_allocates_nothing () =
  let m, nk = Helpers.booted_nk () in
  let smp = Smp.create m in
  ignore (Smp.add_cpu smp);
  Api.Diagnostics.Coherence.enable nk;
  let f0 = Api.outer_first_frame nk in
  for f = 0 to 15 do
    Helpers.check_ok "warm" (Machine.kread_u64 m (Addr.kva_of_frame (f0 + f)))
  done;
  Smp.with_cpu smp 1 (fun () ->
      Helpers.check_ok "warm peer"
        (Machine.kread_u64 m (Addr.kva_of_frame f0)));
  Machine.coherence_check m ~op:"settle";
  let n = 1000 in
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let idle = words (fun () -> ()) in
  let audits =
    words (fun () ->
        for _ = 1 to n do
          Machine.coherence_check m ~op:"probe"
        done)
  in
  Alcotest.(check (float 0.))
    "minor words over 1000 clean audits" 0. (audits -. idle);
  Api.Diagnostics.Coherence.disable nk

(* ---- the hardware logs ------------------------------------------------ *)

(* Every one of the five store paths reports a store to a watched frame
   (a straddling or multi-frame store reports each frame it touches),
   exactly once until the log is cleared; unwatched frames never. *)
let test_store_log_paths () =
  let mem = Phys_mem.create ~frames:16 in
  let page = Addr.page_size in
  let logged () =
    List.sort_uniq compare
      (List.init (Phys_mem.logged_stores mem) (Phys_mem.logged_store mem))
  in
  let case name store expect =
    for f = 0 to 15 do
      Phys_mem.watch_frame mem f
    done;
    Phys_mem.unwatch_frame mem 9;
    Phys_mem.clear_store_log mem;
    store ();
    Alcotest.(check (list int)) name expect (logged ())
  in
  case "write_u8" (fun () -> Phys_mem.write_u8 mem ((3 * page) + 5) 1) [ 3 ];
  case "write_u64 straddling"
    (fun () -> Phys_mem.write_u64 mem ((5 * page) - 4) 7)
    [ 4; 5 ];
  case "blit_from_bytes"
    (fun () ->
      Phys_mem.blit_from_bytes (Bytes.make (page + 2) 'x') 0 mem
        ((6 * page) - 1) (page + 2))
    [ 5; 6; 7 ];
  case "zero_frame" (fun () -> Phys_mem.zero_frame mem 2) [ 2 ];
  case "frame_copy" (fun () -> Phys_mem.frame_copy mem ~src:1 ~dst:11) [ 11 ];
  case "unwatched frame" (fun () -> Phys_mem.zero_frame mem 9) [];
  case "once per frame"
    (fun () ->
      Phys_mem.write_u8 mem page 1;
      Phys_mem.write_u8 mem (page + 1) 1)
    [ 1 ];
  Phys_mem.stop_store_log mem;
  Phys_mem.zero_frame mem 3;
  Alcotest.(check int) "off after stop" 0 (Phys_mem.logged_stores mem)

let test_insert_log () =
  let tlb = Tlb.create () in
  let e global =
    { Tlb.frame = 1; writable = false; user = false; nx = true; global }
  in
  Tlb.insert tlb ~asid:3 ~vpage:10 (e false);
  Alcotest.(check int) "off by default" 0 (Tlb.logged_inserts tlb);
  Tlb.start_insert_log tlb;
  Tlb.insert tlb ~asid:3 ~vpage:11 (e false);
  Tlb.insert tlb ~asid:3 ~vpage:12 (e true);
  Alcotest.(check (list (pair int int)))
    "fills, globals under -1" [ (3, 11); (-1, 12) ]
    (List.init (Tlb.logged_inserts tlb) (fun i ->
         let k = Tlb.logged_key tlb i in
          (Tlb.key_asid k, Tlb.key_vpage k)));
  for vp = 0 to 2000 do
    Tlb.insert tlb ~asid:1 ~vpage:vp (e false)
  done;
  Alcotest.(check bool) "overflow reported" true (Tlb.insert_log_overflowed tlb);
  Tlb.clear_insert_log tlb;
  Alcotest.(check bool) "cleared" false (Tlb.insert_log_overflowed tlb)

let suite =
  let quick name f = Alcotest.test_case name `Quick f in
  [
    quick "mutant: dropped shootdown" test_mutant_dropped_shootdown;
    quick "mutant: G bit on an outer leaf" test_mutant_leaked_gbit;
    quick "mutant: local-only untagged flush" test_mutant_local_untagged_flush;
    quick "mutant: PCID rebound without flush" test_mutant_pcid_rebind;
    quick "mutant: raw PTP store, parked peer" test_mutant_raw_ptp_store;
    quick "violations carry real CPU ids" test_real_cpu_ids;
    quick "index keys hold the top PCID" test_top_pcid_indexed;
    prop_fuzz_equivalence;
    Alcotest.test_case "equivalent over 4 tenants" `Slow
      test_multitenant_equivalence;
    Alcotest.test_case "equivalent over a 1k-connection cell" `Slow
      test_server_equivalence;
    quick "clean audit allocates nothing" test_clean_hook_allocates_nothing;
    quick "store log sees all five store paths" test_store_log_paths;
    quick "insert log records fills" test_insert_log;
  ]
