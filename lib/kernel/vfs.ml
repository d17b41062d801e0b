open Nkhw

type file = {
  mutable data : Bytes.t option;  (* None = sparse (size only) *)
  mutable size : int;
}

(* An open handle references the file record directly: the name lookup
   happens once, at open.  (Historically every read/write re-resolved
   handle -> name -> file through two hashtable probes; the handle now
   IS the file, and survives unlink like a POSIX orphan inode.) *)
type handle_rec = { file : file; mutable pos : int }

type t = {
  machine : Machine.t;
  files : (string, file) Hashtbl.t;
  handles : (int, handle_rec) Hashtbl.t;
  mutable next_handle : int;
  mutable free_handles : int list;  (* closed ids, reused LIFO *)
}

type handle = int

(* Cycle costs of the VFS paths (native kernel work, identical in
   every configuration). *)
let cost_lookup = 600
let cost_open = 500
let cost_close = 320
let cost_rw_base = 250
let cost_unlink = 700

let create machine =
  {
    machine;
    files = Hashtbl.create 64;
    handles = Hashtbl.create 64;
    next_handle = 1;
    free_handles = [];
  }

let add_sized_file t name size =
  Hashtbl.replace t.files name { data = None; size }

let exists t name = Hashtbl.mem t.files name

let file_size t name =
  Option.map (fun f -> f.size) (Hashtbl.find_opt t.files name)

let fresh_handle t =
  match t.free_handles with
  | h :: rest ->
      t.free_handles <- rest;
      h
  | [] ->
      let h = t.next_handle in
      t.next_handle <- h + 1;
      h

let open_file t file =
  let h = fresh_handle t in
  Hashtbl.replace t.handles h { file; pos = 0 };
  h

let open_ t name ~create:do_create =
  Machine.charge t.machine (cost_lookup + cost_open);
  match Hashtbl.find_opt t.files name with
  | None when not do_create -> Error Ktypes.Enoent
  | None ->
      let file = { data = Some Bytes.empty; size = 0 } in
      Hashtbl.replace t.files name file;
      Ok (open_file t file)
  | Some file -> Ok (open_file t file)

let close t h =
  Machine.charge t.machine cost_close;
  if Hashtbl.mem t.handles h then begin
    Hashtbl.remove t.handles h;
    t.free_handles <- h :: t.free_handles;
    Ok ()
  end
  else Error Ktypes.Ebadf

let with_handle t h f =
  match Hashtbl.find_opt t.handles h with
  | None -> Error Ktypes.Ebadf
  | Some hr -> f hr.file hr

let charge_copy t n =
  Machine.charge t.machine
    (cost_rw_base + (t.machine.Machine.costs.Costs.byte_copy_x8 * ((n + 7) / 8)))

let read t h n =
  with_handle t h (fun file hr ->
      let available = max 0 (file.size - hr.pos) in
      let got = min n available in
      hr.pos <- hr.pos + got;
      charge_copy t got;
      Ok got)

let read_bytes t h n =
  with_handle t h (fun file hr ->
      let available = max 0 (file.size - hr.pos) in
      let got = min n available in
      let out =
        match file.data with
        | Some data -> Bytes.sub data hr.pos got
        | None -> Bytes.make got '\000'
      in
      hr.pos <- hr.pos + got;
      charge_copy t got;
      Ok out)

let write t h data =
  with_handle t h (fun file hr ->
      let n = Bytes.length data in
      let new_size = max file.size (hr.pos + n) in
      (match file.data with
      | Some old when Bytes.length old < new_size ->
          let grown = Bytes.make new_size '\000' in
          Bytes.blit old 0 grown 0 (Bytes.length old);
          Bytes.blit data 0 grown hr.pos n;
          file.data <- Some grown
      | Some old -> Bytes.blit data 0 old hr.pos n
      | None -> ());
      file.size <- new_size;
      hr.pos <- hr.pos + n;
      charge_copy t n;
      Ok n)

let seek t h off =
  with_handle t h (fun file hr ->
      if off < 0 || off > file.size then Error Ktypes.Einval
      else begin
        hr.pos <- off;
        Ok ()
      end)

let unlink t name =
  Machine.charge t.machine cost_unlink;
  if Hashtbl.mem t.files name then begin
    Hashtbl.remove t.files name;
    Ok ()
  end
  else Error Ktypes.Enoent

type Fdesc.priv += File_handle of handle

let fdesc_open t name ~create =
  match open_ t name ~create with
  | Error e -> Error e
  | Ok h ->
      (* Regular files never block: always readable (EOF reads return
         0) and writable, never hung up. *)
      let always =
        { Fdesc.readable = true; writable = true; hangup = false }
      in
      Ok
        (Fdesc.make ~kind:"file" ~priv:(File_handle h)
           ~read:(fun n -> read t h n)
           ~write:(fun b -> write t h b)
           ~ready:(fun () -> always)
           ~close:(fun () -> close t h)
           ())
