(* The readiness loop every event-driven server in this tree runs:
   one epoll instance per worker, a shared (or private) listener, and
   per-connection request framing.  Applications plug in as a small
   record of callbacks; the loop owns accept bursts, request
   accumulation, response streaming against the bounded send window,
   and the EPOLLOUT subscription dance around a full window. *)

open Outer_kernel

type app = {
  req_size : int;  (* fixed wire size of one request *)
  respond : fd:int -> Socket.conn option -> int;
      (* one full request arrived; do the work, return response bytes *)
  on_block : fd:int -> int -> unit;  (* a response block entered the window *)
  on_done : fd:int -> unit;  (* response fully queued *)
  on_close : fd:int -> unit;  (* connection torn down *)
}

let app ?(on_block = fun ~fd:_ _ -> ()) ?(on_done = fun ~fd:_ -> ())
    ?(on_close = fun ~fd:_ -> ()) ~req_size respond =
  { req_size; respond; on_block; on_done; on_close }

type conn_state = {
  mutable rx_acc : int;  (* request bytes accumulated so far *)
  mutable tx_left : int;  (* response bytes still to push *)
  mutable want_out : bool;  (* currently subscribed to EPOLLOUT *)
  mutable responding : bool;  (* a response is in flight *)
}

type t = {
  k : Kernel.t;
  p : Proc.t;
  a : app;
  et : bool;
  tx_block : int;
  accept_burst : int;
  epfd : int;
  lfd : int;
  lst : Socket.listener;
  conns : (int, conn_state) Hashtbl.t;
  mutable accepted : int;
  mutable requests : int;
}

let ok r = Ktypes.ok_or_fail "evloop" r

let create ?lfd ?(et = false) ?(backlog = 128) ?(tx_block = 16 * 1024)
    ?(accept_burst = 64) k p a =
  let lfd =
    match lfd with Some fd -> fd | None -> ok (Syscalls.listen k p ~backlog)
  in
  let lst =
    match Proc.fd_handle p lfd with
    | Some d -> (
        match Socket.listener_of_fdesc d with
        | Some l -> l
        | None -> invalid_arg "Evloop.create: fd is not a listener")
    | None -> invalid_arg "Evloop.create: bad listener fd"
  in
  let epfd = ok (Syscalls.epoll_create k p) in
  (* The listener stays level-triggered even under [et]: a capped
     accept burst must not strand queued connections until the next
     arrival happens to poke. *)
  ignore (ok (Syscalls.epoll_ctl_add k p ~epfd ~fd:lfd ~mask:Epoll.ep_in ()));
  {
    k;
    p;
    a;
    et;
    tx_block;
    accept_burst;
    epfd;
    lfd;
    lst;
    conns = Hashtbl.create 64;
    accepted = 0;
    requests = 0;
  }

let listener t = t.lst
let accepted t = t.accepted
let requests t = t.requests

let conn_of t fd =
  match Proc.fd_handle t.p fd with
  | Some d -> Socket.conn_of_fdesc d
  | None -> None

let resub t fd ~out =
  ignore (Syscalls.epoll_ctl_del t.k t.p ~epfd:t.epfd ~fd);
  let mask = if out then Epoll.ep_in lor Epoll.ep_out else Epoll.ep_in in
  ignore (Syscalls.epoll_ctl_add t.k t.p ~epfd:t.epfd ~fd ~et:t.et ~mask ())

let close_conn t fd cs =
  t.a.on_close ~fd;
  ignore (Syscalls.epoll_ctl_del t.k t.p ~epfd:t.epfd ~fd);
  ignore (Syscalls.close t.k t.p fd);
  Hashtbl.remove t.conns fd;
  ignore cs

(* Push queued response bytes until done or the window fills; a full
   window subscribes EPOLLOUT, drain re-arms via the client's poke. *)
let flush t fd cs =
  let blocked = ref false in
  while cs.tx_left > 0 && not !blocked do
    let n = min t.tx_block cs.tx_left in
    match Syscalls.send t.k t.p fd n with
    | Ok sent when sent > 0 ->
        t.a.on_block ~fd sent;
        cs.tx_left <- cs.tx_left - sent
    | Ok _ | Error Ktypes.Eagain ->
        if not cs.want_out then begin
          cs.want_out <- true;
          resub t fd ~out:true
        end;
        blocked := true
    | Error _ ->
        close_conn t fd cs;
        blocked := true
  done;
  if cs.tx_left = 0 && Hashtbl.mem t.conns fd then begin
    if cs.responding then begin
      cs.responding <- false;
      t.a.on_done ~fd
    end;
    if cs.want_out then begin
      cs.want_out <- false;
      resub t fd ~out:false
    end
  end

let handle_accept t =
  let more = ref t.accept_burst in
  let eagain = ref false in
  while !more > 0 && not !eagain do
    match Syscalls.accept t.k t.p t.lfd with
    | Ok cfd ->
        Hashtbl.replace t.conns cfd
          { rx_acc = 0; tx_left = 0; want_out = false; responding = false };
        ignore
          (Syscalls.epoll_ctl_add t.k t.p ~epfd:t.epfd ~fd:cfd ~et:t.et
             ~mask:Epoll.ep_in ());
        t.accepted <- t.accepted + 1;
        decr more
    | Error _ -> eagain := true
  done

let handle_conn t fd bits =
  match Hashtbl.find_opt t.conns fd with
  | None -> ()
  | Some cs ->
      let eof = ref false in
      if bits land (Epoll.ep_in lor Epoll.ep_hup) <> 0 then begin
        (* Drain the receive side completely — required for ET
           correctness, harmless under LT. *)
        let draining = ref true in
        while !draining do
          match Syscalls.recv t.k t.p fd 4096 with
          | Ok 0 ->
              eof := true;
              draining := false
          | Ok n -> cs.rx_acc <- cs.rx_acc + n
          | Error _ -> draining := false
        done;
        while cs.rx_acc >= t.a.req_size do
          cs.rx_acc <- cs.rx_acc - t.a.req_size;
          t.requests <- t.requests + 1;
          let resp = t.a.respond ~fd (conn_of t fd) in
          if resp > 0 then begin
            cs.tx_left <- cs.tx_left + resp;
            cs.responding <- true
          end
        done
      end;
      if !eof then close_conn t fd cs
      else if
        cs.tx_left > 0
        && (bits land Epoll.ep_out <> 0 || not cs.want_out)
      then flush t fd cs

let step ?(maxev = 64) t =
  match Syscalls.epoll_wait t.k t.p ~epfd:t.epfd ~maxev with
  | Error _ -> 0
  | Ok events ->
      List.iter
        (fun (fd, bits) ->
          if fd = t.lfd then handle_accept t else handle_conn t fd bits)
        events;
      List.length events
