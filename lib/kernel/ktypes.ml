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
  | Enospc
  | Eagain
  | Emfile

let errno_to_string = function
  | Enoent -> "ENOENT"
  | Ebadf -> "EBADF"
  | Enomem -> "ENOMEM"
  | Einval -> "EINVAL"
  | Efault -> "EFAULT"
  | Echild -> "ECHILD"
  | Enosys -> "ENOSYS"
  | Eexist -> "EEXIST"
  | Eacces -> "EACCES"
  | Esrch -> "ESRCH"
  | Enospc -> "ENOSPC"
  | Eagain -> "EAGAIN"
  | Emfile -> "EMFILE"

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ errno_to_string e)

(* Shared error results, one per errno.  [Error e] with a variable [e]
   conses a fresh box per failure; the dispatcher's errno path returns
   these statically-allocated values instead, so an error return
   allocates nothing in steady state.  (Literal [Error Enoent] in
   source is already lifted to static data by the compiler — [err] is
   the bridge for the dynamic case.) *)
let err_enoent : (int, errno) result = Error Enoent
let err_ebadf : (int, errno) result = Error Ebadf
let err_enomem : (int, errno) result = Error Enomem
let err_einval : (int, errno) result = Error Einval
let err_efault : (int, errno) result = Error Efault
let err_echild : (int, errno) result = Error Echild
let err_enosys : (int, errno) result = Error Enosys
let err_eexist : (int, errno) result = Error Eexist
let err_eacces : (int, errno) result = Error Eacces
let err_esrch : (int, errno) result = Error Esrch
let err_enospc : (int, errno) result = Error Enospc
let err_eagain : (int, errno) result = Error Eagain
let err_emfile : (int, errno) result = Error Emfile

let err : errno -> (int, errno) result = function
  | Enoent -> err_enoent
  | Ebadf -> err_ebadf
  | Enomem -> err_enomem
  | Einval -> err_einval
  | Efault -> err_efault
  | Echild -> err_echild
  | Enosys -> err_enosys
  | Eexist -> err_eexist
  | Eacces -> err_eacces
  | Esrch -> err_esrch
  | Enospc -> err_enospc
  | Eagain -> err_eagain
  | Emfile -> err_emfile

type sysarg = Int of int | Str of string | Buf of bytes

let nth args i = List.nth_opt args i

let arg_int args i =
  match nth args i with Some (Int v) -> Ok v | _ -> Error Einval

let arg_str args i =
  match nth args i with Some (Str s) -> Ok s | _ -> Error Einval

let arg_buf args i =
  match nth args i with Some (Buf b) -> Ok b | _ -> Error Einval

(* Table-driven argument validation: each installed syscall declares
   its arity and per-position kinds once, and the dispatcher rejects
   malformed calls with EINVAL before any handler runs — no handler
   ever sees (or silently defaults) a missing or mistyped argument. *)
type arg_kind = Aint | Astr | Abuf

let arg_kind_matches kind arg =
  match (kind, arg) with
  | Aint, Int _ -> true
  | Astr, Str _ -> true
  | Abuf, Buf _ -> true
  | (Aint | Astr | Abuf), _ -> false

let check_args spec args =
  let rec go spec args =
    match (spec, args) with
    | [], [] -> true
    | k :: spec, a :: args -> arg_kind_matches k a && go spec args
    | [], _ :: _ | _ :: _, [] -> false
  in
  go spec args

let sys_getpid = 1
let sys_open = 2
let sys_close = 3
let sys_read = 4
let sys_write = 5
let sys_mmap = 6
let sys_munmap = 7
let sys_fork = 8
let sys_exit = 9
let sys_execve = 10
let sys_sigaction = 11
let sys_kill = 12
let sys_wait = 13
let sys_unlink = 14
let sys_getppid = 15
let sys_pipe = 16
let sys_listen = 17
let sys_accept = 18
let sys_send = 19
let sys_recv = 20
let sys_epoll_create = 21
let sys_epoll_ctl = 22
let sys_epoll_wait = 23
let max_syscall = 64

(* Stable names for tracing keys and reports. *)
let syscall_name = function
  | 1 -> "getpid"
  | 2 -> "open"
  | 3 -> "close"
  | 4 -> "read"
  | 5 -> "write"
  | 6 -> "mmap"
  | 7 -> "munmap"
  | 8 -> "fork"
  | 9 -> "exit"
  | 10 -> "execve"
  | 11 -> "sigaction"
  | 12 -> "kill"
  | 13 -> "wait"
  | 14 -> "unlink"
  | 15 -> "getppid"
  | 16 -> "pipe"
  | 17 -> "listen"
  | 18 -> "accept"
  | 19 -> "send"
  | 20 -> "recv"
  | 21 -> "epoll_create"
  | 22 -> "epoll_ctl"
  | 23 -> "epoll_wait"
  | n -> "sys" ^ string_of_int n
