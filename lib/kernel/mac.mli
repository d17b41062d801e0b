open Nkhw

(** Integrity-label access control with nested-kernel-protected label
    storage (paper section 6: "we could move the access control
    functionality into the nested kernel, thereby ensuring that attacks
    on the operating system kernel cannot subvert its access
    controls").

    A Biba-style integrity model: subjects (processes) and objects
    (files) carry integrity levels; a subject may write an object only
    at or below its own level and read only at or above it.  The label
    table is the attack surface: in the unprotected variant it lives in
    ordinary kernel memory and one store elevates a compromised
    process; in the protected variant every label lives in
    nested-kernel memory and changes only through a mediated,
    monotone-decrease policy. *)

type level = int
(** Higher = more trusted.  Levels are in [0, 15]. *)

type t

val create_unprotected : Machine.t -> Frame_alloc.t -> t
val create_protected : Nested_kernel.State.t -> (t, Nested_kernel.Nk_error.t) result

val set_subject : t -> Ktypes.pid -> level -> (unit, Ktypes.errno) result
(** Through the legitimate path: levels may only be lowered once set
    (no re-elevation), mirroring integrity-model discipline.  The
    protected variant enforces this in a mediation function
    ([Eacces]); the unprotected variant merely follows convention.
    [Einval] for a level outside [0, 15], [Efault] if the label store
    itself is unwritable. *)

val set_object : t -> string -> level -> (unit, Ktypes.errno) result
(** Additionally [Enospc] when the object table is full and [name] is
    new — a proper errno to the caller, never a mid-syscall
    [Failure]. *)

val subject_level : t -> Ktypes.pid -> level
val object_level : t -> string -> level
(** Unlabelled subjects/objects default to level 0.  [object_level]
    never allocates a table slot, so it stays total even when the
    object table is full. *)

val subject_label_va : t -> Ktypes.pid -> Addr.va

val check_write : t -> Ktypes.pid -> string -> (unit, Ktypes.errno) result
(** No write-up: [Eacces] when the object outranks the subject. *)

val check_read : t -> Ktypes.pid -> string -> (unit, Ktypes.errno) result
(** No read-down. *)
