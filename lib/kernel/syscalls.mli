(** System-call handlers and their installation.

    Handler identifiers are [100 + syscall number]; the dispatcher
    resolves the identifier found in the (possibly protected)
    system-call table through the kernel's registry. *)

val install_all : Kernel.t -> unit
(** Register every handler, its argument spec, and populate the
    system-call table.  In the Write_once configuration this performs
    the single permitted write of each table entry. *)

(** Convenience wrappers used by workloads, examples and tests; each
    goes through the full dispatch path. *)

val getpid : Kernel.t -> Proc.t -> (int, Ktypes.errno) result
val open_ : Kernel.t -> Proc.t -> string -> (int, Ktypes.errno) result
val close : Kernel.t -> Proc.t -> int -> (int, Ktypes.errno) result
val read : Kernel.t -> Proc.t -> int -> int -> (int, Ktypes.errno) result
val write : Kernel.t -> Proc.t -> int -> bytes -> (int, Ktypes.errno) result

val mmap :
  Kernel.t -> Proc.t -> ?file:bool -> len:int -> rw:bool -> populate:bool ->
  unit -> (int, Ktypes.errno) result

val munmap : Kernel.t -> Proc.t -> int -> (int, Ktypes.errno) result
val fork : Kernel.t -> Proc.t -> (int, Ktypes.errno) result
val exit_ : Kernel.t -> Proc.t -> int -> (int, Ktypes.errno) result

val execve :
  Kernel.t -> Proc.t -> ?text_pages:int -> ?data_pages:int -> ?stack_pages:int ->
  string -> (int, Ktypes.errno) result

val sigaction : Kernel.t -> Proc.t -> int -> string -> (int, Ktypes.errno) result
val kill : Kernel.t -> Proc.t -> int -> int -> (int, Ktypes.errno) result
val wait : Kernel.t -> Proc.t -> (int, Ktypes.errno) result

(** [pipe] returns (read end, write end). *)
val pipe : Kernel.t -> Proc.t -> (int * int, Ktypes.errno) result
val getppid : Kernel.t -> Proc.t -> (int, Ktypes.errno) result

(** Event-driven serving: listen queues, connections, readiness. *)

val listen : Kernel.t -> Proc.t -> backlog:int -> (int, Ktypes.errno) result
(** A listening descriptor whose accept queue is sharded per CPU. *)

val accept : Kernel.t -> Proc.t -> int -> (int, Ktypes.errno) result
(** Pop a queued connection from the accepting CPU's shard (stealing
    if it's dry); [Eagain] when nothing is pending. *)

val send : Kernel.t -> Proc.t -> int -> int -> (int, Ktypes.errno) result
(** [send k p fd n]: write [n] response bytes; short counts and
    [Eagain] reflect the connection's send window. *)

val recv : Kernel.t -> Proc.t -> int -> int -> (int, Ktypes.errno) result
(** [recv k p fd n]: read up to [n] request bytes; [Ok 0] is EOF after
    peer hangup, [Eagain] means nothing buffered yet. *)

val epoll_create : Kernel.t -> Proc.t -> (int, Ktypes.errno) result

val epoll_ctl_add :
  Kernel.t -> Proc.t -> epfd:int -> fd:int -> ?et:bool -> mask:int -> unit ->
  (int, Ktypes.errno) result
(** [mask] combines {!Epoll.ep_in}/{!Epoll.ep_out}; [et] selects
    edge-triggered delivery. *)

val epoll_ctl_del :
  Kernel.t -> Proc.t -> epfd:int -> fd:int -> (int, Ktypes.errno) result

val epoll_wait :
  Kernel.t -> Proc.t -> epfd:int -> maxev:int ->
  ((int * int) list, Ktypes.errno) result
(** Up to [maxev] [(fd, events)] pairs off the instance's ready list;
    O(delivered), not O(watched). *)
