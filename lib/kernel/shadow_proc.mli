open Nkhw

(** Shadow process list (paper section 4.1.3).

    A write-logged mirror of [allproc] in nested-kernel-protected
    memory.  Every legitimate insertion and removal is performed with
    [nk_write] under the write-logging policy, so a rootkit that wants
    a process to vanish from the shadow list must produce a logged
    write — and the forensic log then reveals the hidden process.  The
    modified [ps] reads this list instead of [allproc]. *)

type t

val create :
  Nested_kernel.State.t -> capacity:int -> (t, Nested_kernel.Nk_error.t) result

val on_insert : t -> Ktypes.pid -> node_va:Addr.va -> (unit, string) result
(** Mirror a process creation (logged). *)

val on_remove : t -> Ktypes.pid -> (unit, string) result
(** Mirror a legitimate reap (logged). *)

val pids : t -> Ktypes.pid list
(** Live entries, as the shadow-aware [ps] reports them. *)

val entry_count : t -> int
val log : t -> Nested_kernel.Nklog.t
val slot_of_pid : t -> Ktypes.pid -> Addr.va option
(** Address of the live slot holding [pid] (attackers use this to aim
    their [nk_write]). *)

val removal_history : t -> (Ktypes.pid * int) list
(** Forensic reconstruction: every (pid, log-sequence) whose shadow
    slot was deactivated, replayed from the write log. *)
