let handler_id sysno = 100 + sysno

let ( let* ) = Result.bind

(* Descriptor numbers are bounded by the fd-table limit (2^20), so a
   pair of them packs into one syscall return value — how [pipe]
   surfaces both ends without a user-memory copyout. *)
let fd_pack_bits = 21
let fd_pack a b = (a lsl fd_pack_bits) lor b
let fd_unpack v = (v lsr fd_pack_bits, v land ((1 lsl fd_pack_bits) - 1))

let fdesc p fd =
  match Proc.fd_handle p fd with None -> Error Ktypes.Ebadf | Some d -> Ok d

(* Handler bodies.  Each charges only through the kernel services it
   invokes; the dispatcher has already charged the boundary cost and
   validated the argument vector against the spec declared below, so
   the [arg_*] projections cannot fail. *)

let h_getpid (_ : Kernel.t) (p : Proc.t) (_ : Ktypes.sysarg list) =
  Ok p.Proc.pid

let h_getppid (_ : Kernel.t) (p : Proc.t) (_ : Ktypes.sysarg list) =
  Ok p.Proc.parent

let h_open (k : Kernel.t) (p : Proc.t) args =
  let* path = Ktypes.arg_str args 0 in
  let* create = Ktypes.arg_int args 1 in
  let* d = Vfs.fdesc_open k.Kernel.vfs path ~create:(create <> 0) in
  match Proc.add_fd p d with
  | Ok fd -> Ok fd
  | Error e ->
      ignore (Fdesc.release d);
      Error e

let h_close (_ : Kernel.t) (p : Proc.t) args =
  let* fd = Ktypes.arg_int args 0 in
  let* d = fdesc p fd in
  Proc.drop_fd p fd;
  let* () = Fdesc.release d in
  Ok 0

let h_read (_ : Kernel.t) (p : Proc.t) args =
  let* fd = Ktypes.arg_int args 0 in
  let* n = Ktypes.arg_int args 1 in
  let* d = fdesc p fd in
  Fdesc.read d n

let h_write (_ : Kernel.t) (p : Proc.t) args =
  let* fd = Ktypes.arg_int args 0 in
  let* buf = Ktypes.arg_buf args 1 in
  let* d = fdesc p fd in
  Fdesc.write d buf

let h_mmap (k : Kernel.t) (p : Proc.t) args =
  let* len = Ktypes.arg_int args 0 in
  let* rw = Ktypes.arg_int args 1 in
  let* populate = Ktypes.arg_int args 2 in
  let* file = Ktypes.arg_int args 3 in
  let kind = if file = 1 then Vmspace.File else Vmspace.Anon in
  let prot = if rw <> 0 then Vmspace.Rw else Vmspace.Ro in
  Vmspace.map_region k.Kernel.env p.Proc.vm ~len prot kind
    ~populate:(populate <> 0)

let h_munmap (k : Kernel.t) (p : Proc.t) args =
  let* va = Ktypes.arg_int args 0 in
  let* () = Vmspace.unmap_region k.Kernel.env p.Proc.vm va in
  Ok 0

let h_fork (k : Kernel.t) (p : Proc.t) (_ : Ktypes.sysarg list) =
  Kernel.fork_proc k p

let h_exit (k : Kernel.t) (p : Proc.t) args =
  let* code = Ktypes.arg_int args 0 in
  Kernel.exit_proc k p code;
  Ok 0

let h_execve (k : Kernel.t) (p : Proc.t) args =
  let* path = Ktypes.arg_str args 0 in
  if not (Vfs.exists k.Kernel.vfs path) then Error Ktypes.Enoent
  else
    let* text = Ktypes.arg_int args 1 in
    let* data = Ktypes.arg_int args 2 in
    let* stack = Ktypes.arg_int args 3 in
    let* () =
      Kernel.exec_proc k p ~text_pages:text ~data_pages:data ~stack_pages:stack
    in
    Ok 0

let h_sigaction (_ : Kernel.t) (p : Proc.t) args =
  let* signal = Ktypes.arg_int args 0 in
  let* tag = Ktypes.arg_str args 1 in
  if signal <= 0 || signal > 64 then Error Ktypes.Einval
  else begin
    Hashtbl.replace p.Proc.sighandlers signal tag;
    Ok 0
  end

let h_kill (k : Kernel.t) (p : Proc.t) args =
  let* target = Ktypes.arg_int args 0 in
  let* signal = Ktypes.arg_int args 1 in
  if target = p.Proc.pid then
    let* () = Kernel.deliver_signal k p signal in
    Ok 0
  else
    match Kernel.proc k target with
    | None -> Error Ktypes.Esrch
    | Some q ->
        (* Cross-process: deliver on the target's next resumption; the
           sender only pays the posting cost. *)
        ignore q;
        Nkhw.Machine.charge k.Kernel.machine 400;
        Ok 0

let h_wait (k : Kernel.t) (p : Proc.t) (_ : Ktypes.sysarg list) =
  Kernel.wait_proc k p

let h_pipe (k : Kernel.t) (p : Proc.t) (_ : Ktypes.sysarg list) =
  let* r, w = Pipe.fdesc_pair k.Kernel.machine k.Kernel.falloc in
  match Proc.add_fd p r with
  | Error e ->
      ignore (Fdesc.release r);
      ignore (Fdesc.release w);
      Error e
  | Ok rfd -> (
      match Proc.add_fd p w with
      | Ok wfd -> Ok (fd_pack rfd wfd)
      | Error e ->
          Proc.drop_fd p rfd;
          ignore (Fdesc.release r);
          ignore (Fdesc.release w);
          Error e)

let h_unlink (k : Kernel.t) (_ : Proc.t) args =
  let* path = Ktypes.arg_str args 0 in
  let* () = Vfs.unlink k.Kernel.vfs path in
  Ok 0

(* --- sockets and readiness ---------------------------------------- *)

let h_listen (k : Kernel.t) (p : Proc.t) args =
  let* backlog = Ktypes.arg_int args 0 in
  if backlog <= 0 then Error Ktypes.Einval
  else
    let d =
      Socket.listen k.Kernel.machine k.Kernel.kalloc ?inject:k.Kernel.inject
        ~cpus:(Array.length k.Kernel.running)
        ~backlog ()
    in
    match Proc.add_fd p d with
    | Ok fd -> Ok fd
    | Error e ->
        ignore (Fdesc.release d);
        Error e

let h_accept (k : Kernel.t) (p : Proc.t) args =
  let* lfd = Ktypes.arg_int args 0 in
  let* ld = fdesc p lfd in
  match Socket.listener_of_fdesc ld with
  | None -> Error Ktypes.Einval
  | Some l -> (
      let* d = Socket.accept l ~cpu:k.Kernel.machine.Nkhw.Machine.cur_cpu in
      match Proc.add_fd p d with
      | Ok fd -> Ok fd
      | Error e ->
          (* fd table full: close the connection rather than leak it —
             the overload path degrades, it doesn't wedge. *)
          ignore (Fdesc.release d);
          Error e)

let h_send (_ : Kernel.t) (p : Proc.t) args =
  let* fd = Ktypes.arg_int args 0 in
  let* n = Ktypes.arg_int args 1 in
  if n < 0 then Error Ktypes.Einval
  else
    let* d = fdesc p fd in
    Fdesc.write d (Bytes.create n)

let h_recv (_ : Kernel.t) (p : Proc.t) args =
  let* fd = Ktypes.arg_int args 0 in
  let* n = Ktypes.arg_int args 1 in
  if n < 0 then Error Ktypes.Einval
  else
    let* d = fdesc p fd in
    Fdesc.read d n

let h_epoll_create (k : Kernel.t) (p : Proc.t) (_ : Ktypes.sysarg list) =
  let d = Epoll.create k.Kernel.machine in
  match Proc.add_fd p d with
  | Ok fd -> Ok fd
  | Error e ->
      ignore (Fdesc.release d);
      Error e

let epoll_op_add = 1
let epoll_op_del = 2

let h_epoll_ctl (_ : Kernel.t) (p : Proc.t) args =
  let* epfd = Ktypes.arg_int args 0 in
  let* op = Ktypes.arg_int args 1 in
  let* fd = Ktypes.arg_int args 2 in
  let* mask = Ktypes.arg_int args 3 in
  let* et = Ktypes.arg_int args 4 in
  let* ed = fdesc p epfd in
  match Epoll.of_fdesc ed with
  | None -> Error Ktypes.Einval
  | Some ep ->
      if op = epoll_op_add then
        let* target = fdesc p fd in
        let* () = Epoll.add ep ~fd target ~mask ~et:(et <> 0) in
        Ok 0
      else if op = epoll_op_del then
        let* () = Epoll.del ep ~fd in
        Ok 0
      else Error Ktypes.Einval

let h_epoll_wait (_ : Kernel.t) (p : Proc.t) args =
  let* epfd = Ktypes.arg_int args 0 in
  let* maxev = Ktypes.arg_int args 1 in
  if maxev <= 0 then Error Ktypes.Einval
  else
    let* ed = fdesc p epfd in
    match Epoll.of_fdesc ed with
    | None -> Error Ktypes.Einval
    | Some ep -> Ok (List.length (Epoll.wait ep ~max:maxev))

(* One row per syscall: number, argument spec, handler.  The spec is
   registered with the dispatcher so arity/kind checking is uniform
   and free for every handler. *)
let table =
  let open Ktypes in
  [
    (sys_getpid, [], h_getpid);
    (sys_getppid, [], h_getppid);
    (sys_open, [ Astr; Aint ], h_open);
    (sys_close, [ Aint ], h_close);
    (sys_read, [ Aint; Aint ], h_read);
    (sys_write, [ Aint; Abuf ], h_write);
    (sys_mmap, [ Aint; Aint; Aint; Aint ], h_mmap);
    (sys_munmap, [ Aint ], h_munmap);
    (sys_fork, [], h_fork);
    (sys_exit, [ Aint ], h_exit);
    (sys_execve, [ Astr; Aint; Aint; Aint ], h_execve);
    (sys_sigaction, [ Aint; Astr ], h_sigaction);
    (sys_kill, [ Aint; Aint ], h_kill);
    (sys_wait, [], h_wait);
    (sys_unlink, [ Astr ], h_unlink);
    (sys_pipe, [], h_pipe);
    (sys_listen, [ Aint ], h_listen);
    (sys_accept, [ Aint ], h_accept);
    (sys_send, [ Aint; Aint ], h_send);
    (sys_recv, [ Aint; Aint ], h_recv);
    (sys_epoll_create, [], h_epoll_create);
    (sys_epoll_ctl, [ Aint; Aint; Aint; Aint; Aint ], h_epoll_ctl);
    (sys_epoll_wait, [ Aint; Aint ], h_epoll_wait);
  ]

let install_all k =
  List.iter
    (fun (sysno, spec, fn) ->
      Kernel.register_handler k (handler_id sysno) fn;
      Kernel.register_argspec k ~sysno spec;
      match Kernel.install_syscall k ~sysno ~handler_id:(handler_id sysno) with
      | Ok () -> ()
      | Error e ->
          failwith (Printf.sprintf "install_all: syscall %d: %s" sysno e))
    table

(* Wrappers going through the full dispatch path. *)

let getpid k p = Kernel.syscall k p Ktypes.sys_getpid []
let getppid k p = Kernel.syscall k p Ktypes.sys_getppid []

let open_ k p path =
  Kernel.syscall k p Ktypes.sys_open [ Ktypes.Str path; Ktypes.Int 1 ]

let close k p fd = Kernel.syscall k p Ktypes.sys_close [ Ktypes.Int fd ]

let read k p fd n =
  Kernel.syscall k p Ktypes.sys_read [ Ktypes.Int fd; Ktypes.Int n ]

let write k p fd buf =
  Kernel.syscall k p Ktypes.sys_write [ Ktypes.Int fd; Ktypes.Buf buf ]

let mmap k p ?(file = false) ~len ~rw ~populate () =
  Kernel.syscall k p Ktypes.sys_mmap
    [
      Ktypes.Int len;
      Ktypes.Int (if rw then 1 else 0);
      Ktypes.Int (if populate then 1 else 0);
      Ktypes.Int (if file then 1 else 0);
    ]

let munmap k p va = Kernel.syscall k p Ktypes.sys_munmap [ Ktypes.Int va ]
let fork k p = Kernel.syscall k p Ktypes.sys_fork []
let exit_ k p code = Kernel.syscall k p Ktypes.sys_exit [ Ktypes.Int code ]

let execve k p ?(text_pages = 16) ?(data_pages = 8) ?(stack_pages = 8) path =
  Kernel.syscall k p Ktypes.sys_execve
    [
      Ktypes.Str path;
      Ktypes.Int text_pages;
      Ktypes.Int data_pages;
      Ktypes.Int stack_pages;
    ]

let sigaction k p signal tag =
  Kernel.syscall k p Ktypes.sys_sigaction [ Ktypes.Int signal; Ktypes.Str tag ]

let kill k p target signal =
  Kernel.syscall k p Ktypes.sys_kill [ Ktypes.Int target; Ktypes.Int signal ]

let wait k p = Kernel.syscall k p Ktypes.sys_wait []

let pipe k p =
  (* Returns (read_fd, write_fd), unpacked from the single return
     value. *)
  Result.map fd_unpack (Kernel.syscall k p Ktypes.sys_pipe [])

let listen k p ~backlog =
  Kernel.syscall k p Ktypes.sys_listen [ Ktypes.Int backlog ]

let accept k p lfd = Kernel.syscall k p Ktypes.sys_accept [ Ktypes.Int lfd ]

let send k p fd n =
  Kernel.syscall k p Ktypes.sys_send [ Ktypes.Int fd; Ktypes.Int n ]

let recv k p fd n =
  Kernel.syscall k p Ktypes.sys_recv [ Ktypes.Int fd; Ktypes.Int n ]

let epoll_create k p = Kernel.syscall k p Ktypes.sys_epoll_create []

let epoll_ctl_add k p ~epfd ~fd ?(et = false) ~mask () =
  Kernel.syscall k p Ktypes.sys_epoll_ctl
    [
      Ktypes.Int epfd;
      Ktypes.Int epoll_op_add;
      Ktypes.Int fd;
      Ktypes.Int mask;
      Ktypes.Int (if et then 1 else 0);
    ]

let epoll_ctl_del k p ~epfd ~fd =
  Kernel.syscall k p Ktypes.sys_epoll_ctl
    [
      Ktypes.Int epfd;
      Ktypes.Int epoll_op_del;
      Ktypes.Int fd;
      Ktypes.Int 0;
      Ktypes.Int 0;
    ]

let epoll_wait k p ~epfd ~maxev =
  let ( let* ) = Result.bind in
  let* (_ : int) =
    Kernel.syscall k p Ktypes.sys_epoll_wait
      [ Ktypes.Int epfd; Ktypes.Int maxev ]
  in
  (* The "user buffer" copyout: what the wait just delivered. *)
  match Proc.fd_handle p epfd with
  | Some d -> (
      match Epoll.of_fdesc d with
      | Some ep -> Ok (Epoll.last_delivered ep)
      | None -> Error Ktypes.Einval)
  | None -> Error Ktypes.Ebadf
