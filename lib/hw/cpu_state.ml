type t = {
  regs : int array;
  mutable rip : Addr.va;
  mutable zf : bool;
  mutable intf : bool;
  mutable ring : Mmu.ring;
  mutable halted : bool;
}

let create () =
  {
    regs = Array.make 8 0;
    rip = 0;
    zf = false;
    intf = true;
    ring = Mmu.Supervisor;
    halted = false;
  }

let get t r = t.regs.(Insn.reg_code r)
let set t r v = t.regs.(Insn.reg_code r) <- v

let flags_word t = (if t.zf then 1 else 0) lor if t.intf then 2 else 0

let set_flags_word t w =
  t.zf <- w land 1 <> 0;
  t.intf <- w land 2 <> 0

let copy t =
  {
    regs = Array.copy t.regs;
    rip = t.rip;
    zf = t.zf;
    intf = t.intf;
    ring = t.ring;
    halted = t.halted;
  }
