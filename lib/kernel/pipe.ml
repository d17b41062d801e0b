open Nkhw

let capacity = Addr.page_size

type t = {
  machine : Machine.t;
  falloc : Frame_alloc.t;
  frame : Addr.frame;
  mutable rpos : int;
  mutable len : int;
  mutable readers : int;
  mutable writers : int;
  mutable released : bool;
}

let create machine falloc =
  match Frame_alloc.alloc falloc with
  | None -> Error Ktypes.Enomem
  | Some frame ->
      Phys_mem.zero_frame machine.Machine.mem frame;
      Ok
        {
          machine;
          falloc;
          frame;
          rpos = 0;
          len = 0;
          readers = 1;
          writers = 1;
          released = false;
        }

let buffered t = t.len
let space t = capacity - t.len

let charge_copy t n =
  Machine.charge t.machine
    (250 + (t.machine.Machine.costs.Costs.byte_copy_x8 * ((n + 7) / 8)))

let write t data =
  let n = min (Bytes.length data) (space t) in
  let base = Addr.pa_of_frame t.frame in
  for i = 0 to n - 1 do
    let pos = (t.rpos + t.len + i) mod capacity in
    Phys_mem.write_u8 t.machine.Machine.mem (base + pos)
      (Char.code (Bytes.get data i))
  done;
  t.len <- t.len + n;
  charge_copy t n;
  n

let read t want =
  let n = min want t.len in
  let base = Addr.pa_of_frame t.frame in
  let out = Bytes.create n in
  for i = 0 to n - 1 do
    let pos = (t.rpos + i) mod capacity in
    Bytes.set out i (Char.chr (Phys_mem.read_u8 t.machine.Machine.mem (base + pos)))
  done;
  t.rpos <- (t.rpos + n) mod capacity;
  t.len <- t.len - n;
  charge_copy t n;
  out

let drop_reader t = t.readers <- max 0 (t.readers - 1)
let drop_writer t = t.writers <- max 0 (t.writers - 1)

let release t =
  if (not t.released) && t.readers = 0 && t.writers = 0 then begin
    t.released <- true;
    Frame_alloc.free t.falloc t.frame
  end

(* --- file-description view ---------------------------------------- *)

type role = R | W
type Fdesc.priv += Pipe_end of t * role

let fdesc_pair machine falloc =
  match create machine falloc with
  | Error e -> Error e
  | Ok p ->
      (* Each end pokes its peer after any state change: a write makes
         the read end readable, a read frees space for the write end,
         a close hangs the survivor up. *)
      let rd = ref None and wr = ref None in
      let poke_opt r = match !r with None -> () | Some d -> Fdesc.poke d in
      (* Both ends close through this one path: drop this role's count,
         wake the peer, and free the buffer frame once both are gone —
         no per-variant drop_reader/drop_writer duplication. *)
      let close_end role () =
        (match role with R -> drop_reader p | W -> drop_writer p);
        (match role with R -> poke_opt wr | W -> poke_opt rd);
        release p;
        Ok ()
      in
      let r =
        Fdesc.make ~kind:"pipe" ~priv:(Pipe_end (p, R))
          ~read:(fun n ->
            if buffered p = 0 then
              if p.writers = 0 then Ok 0 (* EOF *) else Error Ktypes.Eagain
            else begin
              let got = Bytes.length (read p n) in
              poke_opt wr;
              Ok got
            end)
          ~write:Fdesc.not_writable
          ~ready:(fun () ->
            {
              Fdesc.readable = buffered p > 0 || p.writers = 0;
              writable = false;
              hangup = p.writers = 0;
            })
          ~close:(close_end R) ()
      in
      let w =
        Fdesc.make ~kind:"pipe" ~priv:(Pipe_end (p, W))
          ~read:Fdesc.not_readable
          ~write:(fun data ->
            if p.readers = 0 then Error Ktypes.Ebadf (* EPIPE, coarsely *)
            else if space p = 0 then Error Ktypes.Eagain
            else begin
              let n = write p data in
              poke_opt rd;
              Ok n
            end)
          ~ready:(fun () ->
            {
              Fdesc.readable = false;
              writable = space p > 0 && p.readers > 0;
              hangup = p.readers = 0;
            })
          ~close:(close_end W) ()
      in
      rd := Some r;
      wr := Some w;
      Ok (r, w)
