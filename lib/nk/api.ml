type t = State.t
type wd = State.wd

let boot = Init.boot

let boot_exn ?layout m =
  match Init.boot ?layout m with
  | Ok st -> st
  | Error msg -> failwith ("Nested kernel boot failed: " ^ msg)

let declare_ptp = Vmmu.declare_ptp
let write_pte = Vmmu.write_pte
let write_pte_batch = Vmmu.write_pte_batch
let remove_ptp = Vmmu.remove_ptp
let load_cr0 = Vmmu.load_cr0
let load_cr3 = Vmmu.load_cr3
let load_cr3_pcid = Vmmu.load_cr3_pcid
let load_cr4 = Vmmu.load_cr4
let load_efer = Vmmu.load_efer

let nk_declare st ~base ~size policy = Wp_service.declare st ~base ~size policy
let nk_alloc st ~size policy = Wp_service.alloc st ~size policy
let nk_free = Wp_service.free
let nk_write st wd ~dest data = Wp_service.write st wd ~dest data
let nk_read st wd ~src ~len = Wp_service.read st wd ~src ~len

let nk_emulate_colocated_write st ~dest data =
  Wp_service.emulate_colocated_write st ~dest data

let validate_code = Code_integrity.validate
let install_code st ~frames code = Code_integrity.install_code st ~frames code
let retire_code st ~frames = Code_integrity.retire_code st ~frames

let audit = Invariants.audit
let audit_ok = Invariants.audit_ok

(* The nested kernel knows which root each PCID was bound to (the
   clean-pair table maintained by [load_cr3_pcid]); hand that to the
   oracle so parked-ASID entries are audited against the right tree.
   The oracle asks for every cached ASID at every audit, so the answer
   is served from a memo of the option block last returned per PCID:
   a repeated answer allocates nothing. *)
let nk_root_of_asid (st : t) =
  let memo = Hashtbl.create 16 in
  fun asid ->
    match Hashtbl.find st.State.pcid_roots asid with
    | exception Not_found -> None
    | root -> (
        match Hashtbl.find memo asid with
        | Some r as answer when r = root -> answer
        | _ | (exception Not_found) ->
            let answer = Some root in
            Hashtbl.replace memo asid answer;
            answer)

let nk_flush_deferred = Vmmu.flush_deferred_frame
let nk_flush_all_deferred = Vmmu.flush_all_deferred
let nk_deferred_live (st : t) = State.deferred_live st
let nk_is_deferred (st : t) = State.is_deferred st

(* Tenant domains (ROADMAP item 5): lifecycle, entry, ownership
   adoption, the only inter-tenant channel, and the mediated shootdown
   request — see {!Domain}. *)
let nk_domain_create = Domain.create
let nk_domain_enter st ~domain ~token = Domain.enter st ~domain ~token
let nk_domain_destroy st ~domain = Domain.destroy st ~domain
let nk_domain_adopt st ~domain ~root = Domain.adopt_tree st ~domain ~root
let nk_domain_current = Domain.current
let nk_domain_denials = Domain.denials
let nk_pipe_open st ?cap ~src ~dst () = Domain.pipe_open st ?cap ~src ~dst ()
let nk_pipe_send st ~dst word = Domain.pipe_send st ~dst word
let nk_pipe_recv st ~src = Domain.pipe_recv st ~src
let nk_request_shootdown = Domain.request_shootdown
let nk_frame_released = Domain.frame_released
let nk_frame_owner (st : t) f = Pgdesc.owner st.State.descs f

(* Uniform enable/disable/snapshot surface over the out-of-band
   diagnostic instruments (none of them charge simulated cycles). *)
module Diagnostics = struct
  module Coherence = struct
    let enable ?on_violation (st : t) =
      Nkhw.Coherence.enable ?on_violation
        ~root_of_asid:(nk_root_of_asid st)
        ~deferred:(State.is_deferred st) st.State.machine

    (* Drain the deferred-unmap queue before the oracle goes away:
       records still queued here are staleness the oracle was told to
       tolerate, and uninstalling while they linger would let the last
       deferred flush silently never happen. *)
    let disable (st : t) =
      Vmmu.flush_all_deferred st;
      Nkhw.Coherence.disable st.State.machine

    let snapshot ?op (st : t) =
      Nkhw.Coherence.check_machine
        ~root_of_asid:(nk_root_of_asid st)
        ~deferred:(State.is_deferred st) ?op st.State.machine
  end

  module Tracing = struct
    let tracer (st : t) = st.State.machine.Nkhw.Machine.trace
    let enable (st : t) = Nktrace.enable (tracer st)
    let disable (st : t) = Nktrace.disable (tracer st)
    let clear (st : t) = Nktrace.clear (tracer st)
    let snapshot (st : t) = Nktrace.snapshot (tracer st)
  end
end

let machine (st : t) = st.State.machine
let outer_first_frame = Init.outer_first_frame
let denied_writes (st : t) = st.State.denied_writes
let trap_overhead (st : t) = Gate.trap_overhead st.State.machine st.State.gate
let nk_null st = State.with_gate st (fun () -> Ok ())

let set_inject (st : t) inj =
  st.State.gate.Gate.inject <- inj;
  Pheap.set_inject st.State.heap inj
