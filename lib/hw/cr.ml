let cr0_pe = 1
let cr0_wp = 1 lsl 16
let cr0_pg = 1 lsl 31
let cr4_pae = 1 lsl 5
let cr4_pcide = 1 lsl 17
let cr4_smep = 1 lsl 20
let efer_lme = 1 lsl 8
let efer_nx = 1 lsl 11
let pcid_bits = 12
let max_pcid = (1 lsl pcid_bits) - 1

type t = {
  mutable cr0 : int;
  mutable cr3 : int;
  mutable cr4 : int;
  mutable efer : int;
}

let create () = { cr0 = 0; cr3 = 0; cr4 = 0; efer = 0 }
let copy t = { cr0 = t.cr0; cr3 = t.cr3; cr4 = t.cr4; efer = t.efer }

let restore ~src dst =
  dst.cr0 <- src.cr0;
  dst.cr3 <- src.cr3;
  dst.cr4 <- src.cr4;
  dst.efer <- src.efer

let long_mode_paging t =
  t.cr0 land cr0_pe <> 0
  && t.cr0 land cr0_pg <> 0
  && t.cr4 land cr4_pae <> 0
  && t.efer land efer_lme <> 0

let wp_enabled t = t.cr0 land cr0_wp <> 0
let smep_enabled t = t.cr4 land cr4_smep <> 0
let nx_enabled t = t.efer land efer_nx <> 0
let paging_enabled t = t.cr0 land cr0_pg <> 0 && t.cr0 land cr0_pe <> 0
let pcid_enabled t = t.cr4 land cr4_pcide <> 0

(* With PCIDE set, the low 12 bits of CR3 are the PCID rather than
   part of the root address; [root_frame] already masks them off. *)
let root_frame t = Addr.frame_of_pa t.cr3
let pcid t = t.cr3 land max_pcid
let asid t = if pcid_enabled t then pcid t else 0
let cr3_value ~frame ~pcid = Addr.pa_of_frame frame lor (pcid land max_pcid)

let pp ppf t =
  Format.fprintf ppf
    "CR0=%#x(PE=%b PG=%b WP=%b) CR3=%#x CR4=%#x(SMEP=%b PCIDE=%b) EFER=%#x(LME=%b NX=%b)"
    t.cr0
    (t.cr0 land cr0_pe <> 0)
    (t.cr0 land cr0_pg <> 0)
    (wp_enabled t) t.cr3 t.cr4 (smep_enabled t) (pcid_enabled t) t.efer
    (t.efer land efer_lme <> 0)
    (nx_enabled t)
