open Nkhw

(** The system-call vector table, in simulated kernel memory.

    Each entry holds a handler identifier that the dispatcher resolves
    through its registry.  Two write paths exist:

    - {!create_native}: the table lives in ordinary kernel data and is
      updated with plain stores — overwritable by any kernel write
      (the hooking attack surface);
    - {!create_protected}: the table lives in nested-kernel protected
      memory under the {e write-once} policy (paper section 4.1.1) —
      each entry can be installed exactly once, and neither direct
      stores nor repeated [nk_write]s can ever change it again. *)

type t

val create_native : Machine.t -> table_va:Addr.va -> t

val create_protected :
  Nested_kernel.State.t -> (t, Nested_kernel.Nk_error.t) result

val entry_va : t -> int -> Addr.va

val set : t -> sysno:int -> handler_id:int -> (unit, string) result
(** Install an entry through the table's legitimate write path. *)

val get : t -> sysno:int -> (int, Ktypes.errno) result
(** Read an entry as the dispatcher does (plain kernel read). *)

val lookup : t -> sysno:int -> int
(** [get] as a packed int — the handler id ([>= 1]), [0] for an empty
    or out-of-range entry (ENOSYS), [-1] when the table read faults
    (EFAULT).  Same cycle charges; allocates nothing. *)

val is_write_once : t -> bool
