(** Differential TLB-coherence oracle.

    An independent reference translator walks the live page tables
    with no caching, and every cached TLB entry — on the active CPU
    and on every parked peer — is cross-checked against it.  Flagged
    are only the entries that are stale {e and more permissive} than
    the tree: writable/user/executable where the walk says otherwise,
    a different frame, or a translation for a VA the tree no longer
    maps.  Stale-but-less-permissive entries only cause spurious
    faults (which the software must tolerate anyway, as on hardware)
    and are not violations; the global bit affects flush behaviour
    only and is not compared.

    Installed via {!enable}, the oracle fires from the hooks in
    {!Machine}: a targeted O(1) check after every MMU access, and an
    audit of every live entry after every flush/shootdown, at
    [Smp.activate], and at nested-kernel gate exit.  That audit is
    incremental but exact — it returns what {!check_machine} would,
    re-walking only the entries a store (the {!Phys_mem} store log), a
    fill (the {!Tlb} insert log), a root change or a still-open verdict
    could have changed.  With no oracle installed those hooks are a
    single [match] and the logs are off — the oracle-off overhead is
    zero. *)

type walk = {
  w_frame : Addr.frame;
  w_writable : bool;
  w_user : bool;
  w_nx : bool;
  w_global : bool;
}

type violation = {
  v_cpu : int;
      (** CPU id: [Machine.cur_cpu] for the active TLB,
          [Machine.peer_ids.(i)] for the i-th parked one *)
  v_asid : int option;  (** [None] for a global entry *)
  v_vpage : int;
  v_cached : Tlb.entry;  (** what the TLB would serve *)
  v_walked : walk option;  (** what the tree actually says *)
  v_why : string;
  v_op : string;  (** the operation after which the check fired *)
}

exception Violation of violation list

val reference_translate :
  Phys_mem.t -> root:Addr.frame -> Addr.va -> walk option
(** Uncached walk from [root]; shares no code with {!Page_table.walk}.
    [None] when unmapped (or the walk leaves physical memory). *)

val check_machine :
  ?root_of_asid:(int -> Addr.frame option) ->
  ?deferred:(vpage:int -> Tlb.entry -> bool) ->
  ?op:string ->
  Machine.t ->
  violation list
(** Audit every live entry of the active and peer TLBs.  Entries under
    the active ASID (and globals) are checked against the CR3 root;
    other ASIDs are resolved via [root_of_asid] and skipped when it
    returns [None] — an unresolvable ASID is unreachable, since
    rebinding a PCID flushes it first.  [deferred] exempts entries the
    nested kernel has a pending lazy invalidation for (it guarantees
    the flush fires before the frame is reused); the predicate should
    match as narrowly as the queue entry — vpage {e and} cached frame.
    Returns all violations found (never raises), sorted by CPU id, then
    ASID (globals first), then vpage — the order every list from this
    module comes in. *)

val check_va :
  ?deferred:(vpage:int -> Tlb.entry -> bool) ->
  ?op:string ->
  Machine.t ->
  Addr.va ->
  violation list
(** Targeted check of the cached translation covering [va] on the
    active CPU, against the CR3 root.  O(1). *)

val enable :
  ?root_of_asid:(int -> Addr.frame option) ->
  ?deferred:(vpage:int -> Tlb.entry -> bool) ->
  ?on_violation:(violation list -> unit) ->
  Machine.t ->
  unit
(** Install the oracle on [m]'s hooks (replacing any previous one) and
    arm the store and insert logs its incremental audit reads.  Checks
    are suppressed while [m.in_nested_kernel] is set — mid-gate, a PTE
    write and its shootdown are two steps with a legitimately
    incoherent window between them; the gate exit fires an audit
    instead, and what happened meanwhile waits in the logs.
    [deferred] exempts declared lazy-invalidation entries (see
    {!check_machine}).  On a violation, calls [on_violation] if given,
    otherwise raises {!Violation}. *)

val disable : Machine.t -> unit
(** Remove the hook and turn the logs off. *)

val enabled : Machine.t -> bool

val pp_violation : Format.formatter -> violation -> unit
