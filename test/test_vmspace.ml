open Nkhw
open Outer_kernel

(* Exercise the VM subsystem on both backends: every test runs against
   native and nested environments. *)
let environments () =
  let native =
    let k = Helpers.kernel Config.Native in
    ("native", k)
  in
  let nested =
    let k = Helpers.kernel Config.Perspicuos in
    ("nested", k)
  in
  [ native; nested ]

let with_envs f =
  List.iter
    (fun (name, k) ->
      let p = Kernel.current_proc k in
      f name k k.Kernel.env p.Proc.vm)
    (environments ())

let page = Addr.page_size

let test_map_populate_unmap () =
  with_envs (fun name k env vm ->
      let va =
        Result.get_ok
          (Vmspace.map_region env vm ~len:(8 * page) Vmspace.Rw Vmspace.Anon
             ~populate:true)
      in
      Alcotest.(check bool) (name ^ ": pages present") true
        (Vmspace.populated_pages env vm >= 8);
      (* The mapping is usable from user mode. *)
      Helpers.check_ok (name ^ ": user write")
        (Machine.write_u8 k.Kernel.machine ~ring:Mmu.User (va + (3 * page)) 7);
      Helpers.check_ok (name ^ ": unmap") (Vmspace.unmap_region env vm va);
      (* Unmap invalidation is lazy on the nested backend: the stale
         translation may legally serve until the frame is reused.
         Draining the deferred queue models that reuse barrier. *)
      (match k.Kernel.nk with
      | Some nk -> Nested_kernel.Api.nk_flush_all_deferred nk
      | None -> ());
      Helpers.expect_fault (name ^ ": gone after unmap")
        (Machine.write_u8 k.Kernel.machine ~ring:Mmu.User (va + (3 * page)) 7))

let test_demand_paging () =
  with_envs (fun name k env vm ->
      let before = Vmspace.populated_pages env vm in
      let va =
        Result.get_ok
          (Vmspace.map_region env vm ~len:(4 * page) Vmspace.Rw Vmspace.Anon
             ~populate:false)
      in
      Alcotest.(check int) (name ^ ": nothing populated") before
        (Vmspace.populated_pages env vm);
      Helpers.expect_fault (name ^ ": touch faults")
        (Machine.write_u8 k.Kernel.machine ~ring:Mmu.User va 1);
      Helpers.check_ok (name ^ ": handler populates")
        (Vmspace.handle_fault env vm va Fault.Write);
      Helpers.check_ok (name ^ ": retry succeeds")
        (Machine.write_u8 k.Kernel.machine ~ring:Mmu.User va 1))

let test_fault_outside_region () =
  with_envs (fun name _ env vm ->
      match Vmspace.handle_fault env vm 0x6666_0000 Fault.Read with
      | Error Ktypes.Efault -> ()
      | Ok () | Error _ -> Alcotest.fail (name ^ ": segv expected"))

let test_write_to_ro_region_faults () =
  with_envs (fun name _ env vm ->
      let va =
        Result.get_ok
          (Vmspace.map_region env vm ~len:page Vmspace.Ro Vmspace.Anon
             ~populate:true)
      in
      match Vmspace.handle_fault env vm va Fault.Write with
      | Error Ktypes.Efault -> ()
      | Ok () | Error _ -> Alcotest.fail (name ^ ": write to RO region"))

let test_overlap_rejected () =
  with_envs (fun name _ env vm ->
      let va =
        Result.get_ok
          (Vmspace.map_region env vm ~len:(2 * page) Vmspace.Rw Vmspace.Anon
             ~populate:false)
      in
      match
        Vmspace.map_region env vm ~at:(va + page) ~len:page Vmspace.Rw
          Vmspace.Anon ~populate:false
      with
      | Error Ktypes.Einval -> ()
      | Ok _ | Error _ -> Alcotest.fail (name ^ ": overlap accepted"))

let test_fork_cow () =
  with_envs (fun name k env vm ->
      let m = k.Kernel.machine in
      let va =
        Result.get_ok
          (Vmspace.map_region env vm ~len:page Vmspace.Rw Vmspace.Anon
             ~populate:true)
      in
      Helpers.check_ok "write pre-fork"
        (Machine.write_u8 m ~ring:Mmu.User va 0x55);
      let child = Result.get_ok (Vmspace.fork env vm) in
      (* Both mappings now read-only; a parent write faults, the COW
         handler copies, and the child's view is unchanged. *)
      Helpers.expect_fault (name ^ ": parent write faults")
        (Machine.write_u8 m ~ring:Mmu.User va 0x66);
      Helpers.check_ok (name ^ ": COW resolves")
        (Vmspace.handle_fault env vm va Fault.Write);
      Helpers.check_ok (name ^ ": parent write lands")
        (Machine.write_u8 m ~ring:Mmu.User va 0x66);
      (* Check via physical frames: child still sees the old byte. *)
      (match Page_table.walk m.Machine.mem ~root:child.Vmspace.root va with
      | Page_table.Mapped w ->
          Alcotest.(check int)
            (name ^ ": child unchanged")
            0x55
            (Phys_mem.read_u8 m.Machine.mem (Addr.pa_of_frame w.Page_table.frame))
      | Page_table.Not_mapped _ -> Alcotest.fail "child mapping missing");
      Vmspace.destroy env child)

let test_fork_shares_ro_pages () =
  with_envs (fun name k env vm ->
      let m = k.Kernel.machine in
      let va =
        Result.get_ok
          (Vmspace.map_region env vm ~len:page Vmspace.Ro Vmspace.Anon
             ~populate:true)
      in
      let child = Result.get_ok (Vmspace.fork env vm) in
      let frame_of root =
        match Page_table.walk m.Machine.mem ~root va with
        | Page_table.Mapped w -> w.Page_table.frame
        | Page_table.Not_mapped _ -> -1
      in
      Alcotest.(check int)
        (name ^ ": same physical frame")
        (frame_of vm.Vmspace.root) (frame_of child.Vmspace.root);
      Vmspace.destroy env child)

let test_destroy_releases_frames () =
  with_envs (fun name _ env vm ->
      let free0 = Frame_alloc.free_count env.Vmspace.falloc in
      let child = Result.get_ok (Vmspace.fork env vm) in
      ignore
        (Result.get_ok
           (Vmspace.map_region env child ~len:(8 * page) Vmspace.Rw Vmspace.Anon
              ~populate:true));
      Vmspace.destroy env child;
      Alcotest.(check int)
        (name ^ ": all frames returned")
        free0
        (Frame_alloc.free_count env.Vmspace.falloc))

let test_exec_reset () =
  with_envs (fun name k env vm ->
      let m = k.Kernel.machine in
      Helpers.check_ok (name ^ ": exec")
        (Vmspace.exec_reset env vm ~text_pages:4 ~data_pages:2 ~stack_pages:2);
      (* Text is executable from user mode, data is not. *)
      Helpers.check_ok (name ^ ": fetch text")
        (Result.map ignore
           (Machine.read_u8 m ~ring:Mmu.User Vmspace.user_text_base));
      (match
         Mmu.access m.Machine.mem m.Machine.cr m.Machine.tlb ~ring:Mmu.User
           ~kind:Fault.Exec Vmspace.user_text_base
       with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail (name ^ ": text not executable"));
      match
        Mmu.access m.Machine.mem m.Machine.cr m.Machine.tlb ~ring:Mmu.User
          ~kind:Fault.Exec
          (Vmspace.user_text_base + (4 * page))
      with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (name ^ ": data executable"))

let test_grandchild_cow_chain () =
  (* Fork of a fork: the same frame can be shared three ways; COW must
     resolve each writer independently. *)
  with_envs (fun name k env vm ->
      let m = k.Kernel.machine in
      let va =
        Result.get_ok
          (Vmspace.map_region env vm ~len:page Vmspace.Rw Vmspace.Anon
             ~populate:true)
      in
      Helpers.check_ok "seed" (Machine.write_u8 m ~ring:Mmu.User va 0x11);
      let child = Result.get_ok (Vmspace.fork env vm) in
      let grandchild = Result.get_ok (Vmspace.fork env child) in
      (* Resolve a write in the grandchild's space by faulting there. *)
      Helpers.check_ok (name ^ ": grandchild cow")
        (Vmspace.handle_fault env grandchild va Fault.Write);
      let frame_of root =
        match Page_table.walk m.Machine.mem ~root va with
        | Page_table.Mapped w -> w.Page_table.frame
        | Page_table.Not_mapped _ -> -1
      in
      Alcotest.(check bool)
        (name ^ ": grandchild got its own frame")
        true
        (frame_of grandchild.Vmspace.root <> frame_of vm.Vmspace.root);
      Alcotest.(check bool)
        (name ^ ": parent and child still share")
        true
        (frame_of vm.Vmspace.root = frame_of child.Vmspace.root);
      Vmspace.destroy env grandchild;
      Vmspace.destroy env child)

let test_exec_fault_kind () =
  (* Instruction-fetch faults resolve like reads on executable
     regions. *)
  with_envs (fun name k env vm ->
      let va =
        Result.get_ok
          (Vmspace.map_region env vm ~len:page Vmspace.Ro Vmspace.Text
             ~populate:false)
      in
      Helpers.check_ok (name ^ ": demand-load text on ifetch")
        (Vmspace.handle_fault env vm va Fault.Exec);
      match
        Mmu.access k.Kernel.machine.Machine.mem k.Kernel.machine.Machine.cr
          k.Kernel.machine.Machine.tlb ~ring:Mmu.User ~kind:Fault.Exec va
      with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail (name ^ ": populated text not executable"))

let test_batched_backend_equivalence () =
  (* The batched backend must produce the same final translations. *)
  let k1 = Os.boot ~frames:4096 Config.Perspicuos in
  let k2 = Os.boot ~frames:4096 ~batched:true Config.Perspicuos in
  let run k =
    let env = k.Kernel.env in
    let vm = (Kernel.current_proc k).Proc.vm in
    let va =
      Result.get_ok
        (Vmspace.map_region env vm ~len:(16 * page) Vmspace.Rw Vmspace.Anon
           ~populate:true)
    in
    let child = Result.get_ok (Vmspace.fork env vm) in
    let snapshot root =
      let acc = ref [] in
      Page_table.iter_user_leaves k.Kernel.machine.Machine.mem ~root
        (fun ~va ~ptp:_ ~index:_ pte ->
          acc := (va, Pte.is_writable pte, Pte.is_user pte) :: !acc);
      List.sort compare !acc
    in
    let s = (snapshot vm.Vmspace.root, snapshot child.Vmspace.root) in
    ignore va;
    s
  in
  let p1, c1 = run k1 and p2, c2 = run k2 in
  Alcotest.(check bool) "parent views equal" true (p1 = p2);
  Alcotest.(check bool) "child views equal" true (c1 = c2);
  match k2.Kernel.nk with
  | Some nk ->
      Alcotest.(check bool) "batched audit clean" true
        (Nested_kernel.Api.audit_ok nk)
  | None -> ()

let test_asid_pool_recycling () =
  let k = Helpers.kernel Config.Perspicuos in
  let env = k.Kernel.env in
  let pool = Option.get env.Vmspace.asids in
  let p = Kernel.current_proc k in
  let vm0 = p.Proc.vm in
  let a0 = Option.get (Vmspace.ensure_asid env vm0) in
  Alcotest.(check bool) "user space gets a non-kernel asid" true
    (a0 <> Asid_pool.kernel_asid);
  Alcotest.(check int) "asid stable while the slot is ours" a0
    (Option.get (Vmspace.ensure_asid env vm0));
  let trace = k.Kernel.machine.Machine.trace in
  let recycles () = Nktrace.counter_value trace (Nktrace.Custom "asid_recycle") in
  let r0 = recycles () in
  (* Exhaust the pool: each new space takes a slot, and once the free
     slots run out the pool steals one (flushing the stolen ASID). *)
  let spaces =
    List.init (Asid_pool.size pool - 1) (fun _ ->
        Result.get_ok (Vmspace.create env ~kernel_root:k.Kernel.kernel_root))
  in
  Alcotest.(check bool) "exhaustion recycles at least one slot" true
    (recycles () > r0);
  (* Whoever lost its slot revalidates transparently on the next use. *)
  let a1 = Option.get (Vmspace.ensure_asid env vm0) in
  Alcotest.(check bool) "revalidated asid owns its slot" true
    (Asid_pool.valid pool ~asid:a1 ~stamp:vm0.Vmspace.asid_stamp);
  List.iter (fun vm -> Vmspace.destroy env vm) spaces;
  (* Destroy released the slots: a fresh space allocates without
     stealing. *)
  let r1 = recycles () in
  let vm =
    Result.get_ok (Vmspace.create env ~kernel_root:k.Kernel.kernel_root)
  in
  Alcotest.(check int) "freed slots are reused without recycling" r1
    (recycles ());
  Vmspace.destroy env vm

let test_no_pcid_no_asids () =
  let k = Os.boot ~frames:4096 ~pcid:false Config.Perspicuos in
  let p = Kernel.current_proc k in
  Alcotest.(check bool) "no pool when pcid is off" true
    (k.Kernel.env.Vmspace.asids = None);
  Alcotest.(check bool) "ensure_asid yields none" true
    (Vmspace.ensure_asid k.Kernel.env p.Proc.vm = None);
  Alcotest.(check bool) "PCIDE stays clear" false
    (Cr.pcid_enabled k.Kernel.machine.Machine.cr)

let test_create_unwinds_failed_copy () =
  (* Every PTE write fails, so sharing the kernel half fails at once:
     the new root must be cleared and retired, not leaked. *)
  with_envs (fun name k env _ ->
      let inj =
        Nkinject.create ~sites:[ Nkinject.Pte_write_error ] ~seed:1 ~rate:1.0
          ()
      in
      let env =
        { env with Vmspace.backend = Mmu_backend.with_inject inj env.backend }
      in
      let free0 = Frame_alloc.free_count env.Vmspace.falloc in
      (match Vmspace.create env ~kernel_root:k.Kernel.kernel_root with
      | Ok _ -> Alcotest.failf "%s: create survived a failed copy" name
      | Error _ -> ());
      Alcotest.(check int) (name ^ ": root returned") free0
        (Frame_alloc.free_count env.Vmspace.falloc);
      match k.Kernel.nk with
      | Some nk ->
          Alcotest.(check bool) (name ^ ": invariants hold") true
            (Nested_kernel.Api.audit_ok nk)
      | None -> ())

let suite =
  [
    Alcotest.test_case "map/populate/unmap" `Quick test_map_populate_unmap;
    Alcotest.test_case "demand paging" `Quick test_demand_paging;
    Alcotest.test_case "fault outside regions" `Quick test_fault_outside_region;
    Alcotest.test_case "RO region write" `Quick test_write_to_ro_region_faults;
    Alcotest.test_case "overlap rejected" `Quick test_overlap_rejected;
    Alcotest.test_case "fork is copy-on-write" `Quick test_fork_cow;
    Alcotest.test_case "fork shares RO pages" `Quick test_fork_shares_ro_pages;
    Alcotest.test_case "destroy releases frames" `Quick
      test_destroy_releases_frames;
    Alcotest.test_case "exec reset" `Quick test_exec_reset;
    Alcotest.test_case "grandchild COW chain" `Quick test_grandchild_cow_chain;
    Alcotest.test_case "create unwinds a failed copy" `Quick
      test_create_unwinds_failed_copy;
    Alcotest.test_case "exec-kind faults" `Quick test_exec_fault_kind;
    Alcotest.test_case "batched backend equivalence" `Quick
      test_batched_backend_equivalence;
    Alcotest.test_case "ASID pool recycling" `Quick test_asid_pool_recycling;
    Alcotest.test_case "no PCID, no ASIDs" `Quick test_no_pcid_no_asids;
  ]
