open Outer_kernel

let attacks =
  [
    Rootkit.syscall_hook;
    Rootkit.syscall_hook_via_legit_path;
    Rootkit.dkom_hide_process;
    Rootkit.dkom_scrub_shadow;
    Mmu_attacks.direct_pte_write;
    Mmu_attacks.rogue_cr3;
    Mmu_attacks.wp_disable_gate_jump;
    Mmu_attacks.pg_disable_gate_jump;
    Mmu_attacks.idt_overwrite;
    Mmu_attacks.nk_stack_tamper;
    Injection.inject_wp_shellcode;
    Injection.unaligned_gadget;
    Injection.patch_kernel_code;
    Peripheral.dma_to_page_tables;
    Peripheral.smm_handler_abuse;
    Peripheral.log_tamper;
    Peripheral.free_then_write;
    Peripheral.nk_write_overflow;
    Extensions.heap_metadata_corruption;
    Extensions.mac_label_elevation;
    Extensions.recursive_ptp_map;
    Extensions.stale_tlb_window;
    Extensions.stale_tlb_across_asid;
    Extensions.large_page_smuggle;
    Extensions.pheap_double_free;
    Tenant.forge_pte;
    Tenant.remove_peer_ptp;
    Tenant.shrink_shootdown;
    Tenant.sched_storm;
  ]

(* The policy-specific attacks are only stopped by their policy, as in
   the paper: the base nested kernel mediates the MMU but does not by
   itself protect the syscall table, allproc, or an event log. *)
let policy_specific = function
  | "syscall-table-hook" | "syscall-hook-legit-path" -> Some Config.Write_once
  | "dkom-hide-process" | "dkom-scrub-shadow" -> Some Config.Write_log
  | "log-tamper" -> Some Config.Append_only
  | _ -> None

let expected_defended config name =
  match policy_specific name with
  | Some required -> config = required
  | None -> Config.is_nested config
