(** Basic outer-kernel types: identifiers, error numbers, syscall
    numbers and argument marshalling. *)

type pid = int
type fd = int

type errno =
  | Enoent
  | Ebadf
  | Enomem
  | Einval
  | Efault
  | Echild
  | Enosys
  | Eexist
  | Eacces
  | Esrch
  | Enospc  (** a fixed kernel table (e.g. the MAC label table) is full *)
  | Eagain  (** operation would block (empty queue, full buffer) *)
  | Emfile  (** the per-process file-descriptor table is full *)

val errno_to_string : errno -> string

val ok_or_fail : string -> ('a, errno) result -> 'a
(** The value, or [Failure "what: ERRNO"] — for workload set-up that
    cannot meaningfully continue past an error. *)

val err : errno -> (int, errno) result
(** The shared, statically-allocated [Error] result for an errno.
    Returning [err e] instead of [Error e] keeps a dynamic error path
    allocation-free; all thirteen results are built once at module
    initialisation. *)

type sysarg = Int of int | Str of string | Buf of bytes

val arg_int : sysarg list -> int -> (int, errno) result
val arg_str : sysarg list -> int -> (string, errno) result
val arg_buf : sysarg list -> int -> (bytes, errno) result

(** Per-syscall argument specifications.  A handler's spec is declared
    alongside its table entry; the dispatcher checks the incoming
    argument vector against it and rejects arity or kind mismatches
    with [Einval] before the handler runs. *)
type arg_kind = Aint | Astr | Abuf

val check_args : arg_kind list -> sysarg list -> bool
(** [check_args spec args] is [true] iff [args] has exactly the length
    of [spec] and each argument matches its declared kind. *)

(** Syscall numbers (indices into the system-call table). *)

val sys_getpid : int
val sys_open : int
val sys_close : int
val sys_read : int
val sys_write : int
val sys_mmap : int
val sys_munmap : int
val sys_fork : int
val sys_exit : int
val sys_execve : int
val sys_sigaction : int
val sys_kill : int
val sys_wait : int
val sys_unlink : int
val sys_getppid : int
val sys_pipe : int
val sys_listen : int
val sys_accept : int
val sys_send : int
val sys_recv : int
val sys_epoll_create : int
val sys_epoll_ctl : int
val sys_epoll_wait : int
val max_syscall : int

val syscall_name : int -> string
(** Stable lower-case name of a syscall number ("getpid", "mmap", ...);
    unknown numbers render as ["sys<n>"].  Used as tracing keys. *)
