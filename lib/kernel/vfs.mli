open Nkhw

(** In-memory filesystem.

    File {e data} is held on the OCaml side (so multi-gigabyte
    benchmark files don't need simulated DRAM) while every operation
    charges realistic kernel-path cycle costs: name lookup, descriptor
    management, and per-byte copy costs on read/write.

    An open handle references the file record directly — the name is
    resolved exactly once, at open — and handle ids are recycled, so a
    server churning through millions of opens neither pays a second
    lookup per I/O nor leaks id space.  Open handles keep their file
    alive across {!unlink} (POSIX orphan semantics). *)

type t
type handle

val create : Machine.t -> t

val add_sized_file : t -> string -> int -> unit
(** A file of [n] arbitrary bytes, stored sparsely: reads of it charge
    copy costs but no backing store is materialized. *)

val exists : t -> string -> bool
val file_size : t -> string -> int option

val open_ : t -> string -> create:bool -> (handle, Ktypes.errno) result
val close : t -> handle -> (unit, Ktypes.errno) result

val read : t -> handle -> int -> (int, Ktypes.errno) result
(** [read t h n] advances the handle and returns bytes read (0 at
    EOF); data content is not surfaced for sparse files. *)

val read_bytes : t -> handle -> int -> (bytes, Ktypes.errno) result
val write : t -> handle -> bytes -> (int, Ktypes.errno) result
val seek : t -> handle -> int -> (unit, Ktypes.errno) result
val unlink : t -> string -> (unit, Ktypes.errno) result

type Fdesc.priv += File_handle of handle

val fdesc_open : t -> string -> create:bool -> (Fdesc.t, Ktypes.errno) result
(** Open as a file description: the ops table the fd layer dispatches
    through.  Regular files are always readable and writable. *)
