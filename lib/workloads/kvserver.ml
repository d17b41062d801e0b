(* Memcached-shaped server on the readiness loop: fixed 64-byte
   requests, 90% GETs answered with a 512-byte value, 10% SETs that
   churn a value buffer through the kernel slab allocator and answer
   with a short STORED.  The op would live in the request payload,
   which the model never materializes, so it rides in the
   connection's cookie instead. *)

open Nkhw
open Outer_kernel

let req_bytes = 64
let value_bytes = 512
let stored_bytes = 16
let cookie_get = 1
let cookie_set = 2

(* Hash-table probe plus entry touch: the application work a kv op
   does beyond the kernel's socket path. *)
let cost_op = 350

(* Every so many ops the server grows/rehashes a table segment: a
   demand-paged page that gets touched and recycled — the only vMMU
   traffic on the serving path, and therefore the only place a
   nested-kernel configuration can cost anything here. *)
let rehash_every = 128

type t = { ev : Evloop.t; mutable gets : int; mutable sets : int }

let gen rand =
  if rand 10 < 9 then (req_bytes, value_bytes, cookie_get)
  else (req_bytes, stored_bytes, cookie_set)

let create ?lfd ?et ?backlog ?accept_burst k p =
  let srv = ref None in
  let ops = ref 0 in
  let respond ~fd:_ conn =
    let t = Option.get !srv in
    Machine.charge k.Kernel.machine cost_op;
    incr ops;
    if !ops mod rehash_every = 0 then begin
      match Syscalls.mmap k p ~len:Addr.page_size ~rw:true ~populate:false () with
      | Error _ -> ()
      | Ok va ->
          ignore (Kernel.touch_user k p va Fault.Write);
          ignore (Syscalls.munmap k p va)
    end;
    let op =
      match conn with Some c -> Socket.cookie c | None -> cookie_get
    in
    if op = cookie_set then begin
      t.sets <- t.sets + 1;
      (* The value buffer: allocated to copy the payload in, freed
         when the (unmodelled) old entry is evicted — pure per-CPU
         magazine traffic in steady state. *)
      (match Kalloc.alloc k.Kernel.kalloc with
      | Some va -> Kalloc.free k.Kernel.kalloc va
      | None -> ());
      stored_bytes
    end
    else begin
      t.gets <- t.gets + 1;
      value_bytes
    end
  in
  let ev =
    Evloop.create ?lfd ?et ?backlog ?accept_burst k p
      (Evloop.app ~req_size:req_bytes respond)
  in
  let t = { ev; gets = 0; sets = 0 } in
  srv := Some t;
  t

let ev t = t.ev

let load m t ~seed ~conns ~active ~slow ~ramp_per_tick =
  Loadgen.create m (Evloop.listener t.ev)
    { Loadgen.seed; conns; active; slow; slow_chunk = req_bytes / 8;
      ramp_per_tick; keepalive = 8; think_max = 16; gen }
let gets t = t.gets
let sets t = t.sets
