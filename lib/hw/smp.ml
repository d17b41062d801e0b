type cpu_id = int

type ipi = Reschedule | Shootdown | Halt

type ctx = {
  id : cpu_id;
  cpu : Cpu_state.t;
  cr : Cr.t;
  tlb : Tlb.t;
  mailbox : ipi Queue.t;
  delayed : ipi Queue.t; (* injected-delay IPIs; land at the next drain *)
  mutable local_cycles : int;
  mutable shootdowns_rx : int;
  mutable halted : bool;
}

type t = {
  machine : Machine.t;
  mutable cpus : ctx array; (* index = cpu_id; slot 0 is the boot CPU *)
  mutable active : cpu_id;
  mutable last_stamp : int; (* clock reading when [active] last changed *)
  mutable inject : Nkinject.t option;
}

let ipi_counter = function
  | Reschedule -> Nktrace.Ipi_reschedule
  | Shootdown -> Nktrace.Ipi_shootdown
  | Halt -> Nktrace.Ipi_halt

let fresh_ctx ~id ~cpu ~cr ~tlb =
  {
    id;
    cpu;
    cr;
    tlb;
    mailbox = Queue.create ();
    delayed = Queue.create ();
    local_cycles = 0;
    shootdowns_rx = 0;
    halted = false;
  }

(* Delivery side effects, shared between the immediate path and the
   deferred one: posting a shootdown into a mailbox is what the rx
   counter tracks, and a reschedule wakes an idle CPU.  The wake-up
   line is level-triggered, so an injected-delay [Reschedule] un-halts
   the target at send time (see [send_ipi]) — otherwise a delayed wake
   to a halted CPU could never be drained and would wedge the run. *)
let deliver t c ipi =
  Queue.push ipi c.mailbox;
  (match ipi with
  | Shootdown -> c.shootdowns_rx <- c.shootdowns_rx + 1
  | Reschedule -> c.halted <- false
  | Halt -> ());
  Nktrace.count t.machine.Machine.trace (ipi_counter ipi)

(* Shootdowns post an acknowledgement obligation into the mailbox of
   every peer the machine actually flushed — residency filtering means
   that may be a strict subset of the CPUs, and a filtered peer gets
   neither the flush nor the obligation.  The TLB invalidation itself
   already happened synchronously in [Machine.shootdown_*] (which also
   charged the per-peer IPI cost), so this hook is pure bookkeeping
   and must not charge cycles: benches pin hook-installed runs to be
   cycle-identical with bare ones. *)
let install_shootdown_notify t =
  t.machine.Machine.shootdown_notify <-
    Some
      (fun () ->
        let m = t.machine in
        let targets = m.Machine.shoot_targets in
        for i = 0 to m.Machine.shoot_ntargets - 1 do
          let id = targets.(i) in
          if id <> t.active && id >= 0 && id < Array.length t.cpus then begin
            let c = t.cpus.(id) in
            (* The TLB invalidation was synchronous, so a dropped or
               delayed acknowledgement IPI degrades bookkeeping only
               — exactly the hardware situation the drain-before-
               dispatch obligation must survive. *)
            if Nkinject.fire_opt t.inject Nkinject.Ipi_drop then ()
            else if Nkinject.fire_opt t.inject Nkinject.Ipi_delay then
              Queue.push Shootdown c.delayed
            else deliver t c Shootdown
          end
        done)

let create machine =
  let boot =
    fresh_ctx ~id:0 ~cpu:machine.Machine.cpu ~cr:machine.Machine.cr
      ~tlb:machine.Machine.tlb
  in
  let t =
    {
      machine;
      cpus = [| boot |];
      active = 0;
      last_stamp = Clock.cycles machine.Machine.clock;
      inject = None;
    }
  in
  machine.Machine.cur_cpu <- 0;
  install_shootdown_notify t;
  t

(* Repoint the machine's peer arrays at everyone but the active CPU,
   in cpu-id order.  The arrays are preallocated and refilled in place
   — this runs on every context switch, so it must not cons. *)
let refresh_peers t =
  let m = t.machine in
  let n = Array.length t.cpus - 1 in
  if Array.length m.Machine.peer_ids <> n then begin
    let tmpl = t.cpus.(0) in
    m.Machine.peer_tlbs <- Array.make n tmpl.tlb;
    m.Machine.peer_crs <- Array.make n tmpl.cr;
    m.Machine.peer_ids <- Array.make n 0
  end;
  let j = ref 0 in
  for i = 0 to Array.length t.cpus - 1 do
    let c = t.cpus.(i) in
    if c.id <> t.active then begin
      m.Machine.peer_tlbs.(!j) <- c.tlb;
      m.Machine.peer_crs.(!j) <- c.cr;
      m.Machine.peer_ids.(!j) <- c.id;
      incr j
    end
  done

let add_cpu t =
  let id = Array.length t.cpus in
  let ctx =
    (* APs come up with the control registers the nested kernel (or
       native boot) established, fresh registers, an empty TLB. *)
    fresh_ctx ~id ~cpu:(Cpu_state.create ()) ~cr:(Cr.copy t.machine.Machine.cr)
      ~tlb:(Tlb.create ())
  in
  t.cpus <- Array.append t.cpus [| ctx |];
  refresh_peers t;
  id

let cpu_count t = Array.length t.cpus
let active t = t.active

let ctx t id =
  if id < 0 || id >= Array.length t.cpus then
    invalid_arg (Printf.sprintf "Smp: no CPU %d" id)
  else t.cpus.(id)

let cpu_state t id = (ctx t id).cpu
let shootdowns_rx t id = (ctx t id).shootdowns_rx
let pending_ipis t id = Queue.length (ctx t id).mailbox
let halted t id = (ctx t id).halted

let local_cycles t id =
  let c = ctx t id in
  if id = t.active then
    c.local_cycles + (Clock.cycles t.machine.Machine.clock - t.last_stamp)
  else c.local_cycles

(* The switch itself: repoint the machine's architectural state at the
   target context.  Contexts permanently own their cpu/cr/tlb objects,
   so nothing is copied — parking is implicit in no longer being the
   machine's view. *)
let switch_to t ~count id =
  if id <> t.active then begin
    let target = ctx t id in
    let m = t.machine in
    let now = Clock.cycles m.Machine.clock in
    t.cpus.(t.active).local_cycles <-
      t.cpus.(t.active).local_cycles + (now - t.last_stamp);
    t.last_stamp <- now;
    m.Machine.cpu <- target.cpu;
    m.Machine.cr <- target.cr;
    m.Machine.tlb <- target.tlb;
    m.Machine.cur_cpu <- id;
    t.active <- id;
    refresh_peers t;
    Nktrace.set_cpu m.Machine.trace id;
    (match count with None -> () | Some ev -> Machine.count_ev m ev);
    Machine.coherence_check m ~op:"smp_activate"
  end

let activate t id = switch_to t ~count:(Some Nktrace.Cpu_migration) id

(* A borrow is a temporary detour (peek at another CPU's state, run a
   probe there) — the round trip counts once as [smp_borrow] and never
   as a real migration, so migration counts stay meaningful. *)
let with_cpu t id f =
  let prev = t.active in
  switch_to t ~count:(Some Nktrace.Cpu_borrow) id;
  match f () with
  | v ->
      switch_to t ~count:None prev;
      v
  | exception exn ->
      switch_to t ~count:None prev;
      raise exn

let send_ipi t ~target ipi =
  let c = ctx t target in
  (if Nkinject.fire_opt t.inject Nkinject.Ipi_drop then ()
   else if Nkinject.fire_opt t.inject Nkinject.Ipi_delay then begin
     Queue.push ipi c.delayed;
     if ipi = Reschedule then c.halted <- false (* level-triggered wake *)
   end
   else deliver t c ipi);
  (* An explicit cross-CPU IPI costs a real interrupt on the sender's
     side whether or not delivery succeeds; broadcast shootdowns
     charge theirs at the flush site. *)
  Machine.charge t.machine t.machine.Machine.costs.Costs.ipi_shootdown

let drain_ipis t id =
  let c = ctx t id in
  let drained = List.rev (Queue.fold (fun acc i -> i :: acc) [] c.mailbox) in
  Queue.clear c.mailbox;
  List.iter (function Halt -> c.halted <- true | Reschedule | Shootdown -> ()) drained;
  (* Injected-delay IPIs land now, after this drain collected the
     mailbox — visible one drain later than an undelayed send. *)
  Queue.iter (fun ipi -> deliver t c ipi) c.delayed;
  Queue.clear c.delayed;
  drained

(* Same drain without materializing the drained list — the executor
   runs this every scheduling step and discards the contents anyway. *)
let drain_ipis_quiet t id =
  let c = ctx t id in
  Queue.iter
    (function Halt -> c.halted <- true | Reschedule | Shootdown -> ())
    c.mailbox;
  Queue.clear c.mailbox;
  Queue.iter (fun ipi -> deliver t c ipi) c.delayed;
  Queue.clear c.delayed

let set_inject t inj = t.inject <- inj

let copy_queue ~src dst =
  Queue.clear dst;
  Queue.iter (fun x -> Queue.push x dst) src

(* The view is re-pointed at [dst]'s own context for [src]'s active CPU
   before the machine restore, which then fills that context's
   cpu/cr/tlb; the loop covers the parked ones.  Apart from the
   injector, nothing in [dst] aliases an object of [src]. *)
let restore ~src dst =
  if Array.length src.cpus <> Array.length dst.cpus then
    invalid_arg "Smp.restore: CPU counts differ";
  let m = dst.machine in
  let act = dst.cpus.(src.active) in
  dst.active <- src.active;
  m.Machine.cpu <- act.cpu;
  m.Machine.cr <- act.cr;
  m.Machine.tlb <- act.tlb;
  Machine.restore ~src:src.machine m;
  Array.iteri
    (fun i s ->
      let d = dst.cpus.(i) in
      if i <> src.active then begin
        Cpu_state.restore ~src:s.cpu d.cpu;
        Cr.restore ~src:s.cr d.cr;
        Tlb.restore ~src:s.tlb d.tlb
      end;
      copy_queue ~src:s.mailbox d.mailbox;
      copy_queue ~src:s.delayed d.delayed;
      d.local_cycles <- s.local_cycles;
      d.shootdowns_rx <- s.shootdowns_rx;
      d.halted <- s.halted)
    src.cpus;
  dst.last_stamp <- src.last_stamp;
  dst.inject <- src.inject;
  refresh_peers dst

let pending_delayed t id = Queue.length (ctx t id).delayed

type smp = t

module Executor = struct
  type policy = Round_robin | Seeded of int

  type nonrec t = {
    smp : t;
    policy : policy;
    mutable rr_next : int;
    mutable prng : int;
    mutable steps : int;
  }

  let create smp policy =
    let seed = match policy with Round_robin -> 0 | Seeded s -> s in
    (* golden-ratio scramble so nearby seeds diverge immediately; the
       xorshift below never escapes 0, so map it away *)
    let state = ((seed * 0x9E3779B9) lxor 0x5DEECE66D) land max_int in
    let state = if state = 0 then 0x2545F4914F6CDD1D else state in
    { smp; policy; rr_next = 0; prng = state; steps = 0 }

  (* Pure-integer xorshift over OCaml's 63-bit ints: the whole
     interleaving is a function of the seed alone, so a run is
     reproducible bit-for-bit from [--sched-seed]. *)
  let next_rand e =
    let x = e.prng in
    let x = (x lxor (x lsl 13)) land max_int in
    let x = x lxor (x lsr 7) in
    let x = (x lxor (x lsl 17)) land max_int in
    e.prng <- x;
    x

  let live_count e =
    let n = ref 0 in
    Array.iter (fun c -> if not c.halted then incr n) e.smp.cpus;
    !n

  (* The [k]-th non-halted CPU in cpu-id order — the same element
     [List.nth live k] selected when a live list was materialized, so
     seeded schedules are unchanged. *)
  let nth_live e k =
    let cpus = e.smp.cpus in
    let n = Array.length cpus in
    let rec go i k =
      if i >= n then invalid_arg "Smp.Executor: live CPU index out of range"
      else if cpus.(i).halted then go (i + 1) k
      else if k = 0 then cpus.(i)
      else go (i + 1) (k - 1)
    in
    go 0 k

  let pick e nlive =
    match e.policy with
    | Seeded _ -> nth_live e (next_rand e mod nlive)
    | Round_robin ->
        let n = Array.length e.smp.cpus in
        let rec scan tries i =
          if tries = 0 then nth_live e 0
          else
            let c = e.smp.cpus.(i mod n) in
            if c.halted then scan (tries - 1) (i + 1)
            else begin
              e.rr_next <- (i mod n) + 1;
              c
            end
        in
        scan n e.rr_next

  let steps e = e.steps

  (* One scheduling step: pick a live CPU under the policy, make it
     the machine's view, drain its mailbox (so shootdown IPIs are
     acknowledged before any process runs there — the migration-safety
     obligation), then hand it one quantum.  Allocation-free: the live
     set is counted, not materialized, and the drain discards. *)
  let step e ~quantum =
    let nlive = live_count e in
    if nlive = 0 then `All_halted
    else begin
      let c = pick e nlive in
      switch_to e.smp ~count:(Some Nktrace.Cpu_migration) c.id;
      drain_ipis_quiet e.smp c.id;
      e.steps <- e.steps + 1;
      (match quantum c.id with
      | `Ran | `Idle -> ()
      | `Halted -> c.halted <- true);
      `Stepped c.id
    end

  let run e ?(max_steps = max_int) ~quantum () =
    let rec go n =
      if n >= max_steps then n
      else
        match step e ~quantum with `All_halted -> n | `Stepped _ -> go (n + 1)
    in
    go 0
end
