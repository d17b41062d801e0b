open Nkhw

(* Slot layout: 24 bytes = pid, allproc node va, active flag. *)
let slot_size = 24

type t = {
  nk : Nested_kernel.State.t;
  wd : Nested_kernel.State.wd;
  base : Addr.va;
  capacity : int;
  log : Nested_kernel.Nklog.t;
}

let create nk ~capacity =
  let log = Nested_kernel.Nklog.create () in
  let policy = Nested_kernel.Policy.write_log log in
  match Nested_kernel.Api.nk_alloc nk ~size:(capacity * slot_size) policy with
  | Error e -> Error e
  | Ok (wd, base) -> Ok { nk; wd; base; capacity; log }

let log t = t.log

let read_word t va =
  match Machine.kread_u64 (t.nk).Nested_kernel.State.machine va with
  | Ok v -> v
  | Error f -> raise (Fault.Hardware f)

let slot_va t i = t.base + (i * slot_size)
let slot_pid t i = read_word t (slot_va t i)
let slot_active t i = read_word t (slot_va t i + 16) <> 0

let word_bytes v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  b

let slot_bytes ~pid ~node ~active =
  let b = Bytes.create slot_size in
  Bytes.set_int64_le b 0 (Int64.of_int pid);
  Bytes.set_int64_le b 8 (Int64.of_int node);
  Bytes.set_int64_le b 16 (if active then 1L else 0L);
  b

let err_string = function
  | Ok () -> Ok ()
  | Error e -> Error (Nested_kernel.Nk_error.to_string e)

let find_slot t p =
  let rec go i = if i = t.capacity then None else if p i then Some i else go (i + 1) in
  go 0

let on_insert t pid ~node_va =
  match find_slot t (fun i -> not (slot_active t i)) with
  | None -> Error "shadow process list full"
  | Some i ->
      err_string
        (Nested_kernel.Api.nk_write t.nk t.wd ~dest:(slot_va t i)
           (slot_bytes ~pid ~node:node_va ~active:true))

let on_remove t pid =
  match find_slot t (fun i -> slot_active t i && slot_pid t i = pid) with
  | None -> Error "pid not in shadow list"
  | Some i ->
      err_string
        (Nested_kernel.Api.nk_write t.nk t.wd
           ~dest:(slot_va t i + 16)
           (word_bytes 0))

let pids t =
  let rec go i acc =
    if i = t.capacity then List.rev acc
    else if slot_active t i then go (i + 1) (slot_pid t i :: acc)
    else go (i + 1) acc
  in
  go 0 []

let entry_count t = List.length (pids t)

let slot_of_pid t pid =
  Option.map (slot_va t)
    (find_slot t (fun i -> slot_active t i && slot_pid t i = pid))

(* Replay the write log: a record that clears the active word of a
   slot is a removal; the pid is whatever the slot held at that point
   in the replayed history. *)
let removal_history t =
  let size = t.capacity * slot_size in
  let state = Bytes.make size '\000' in
  let removals = ref [] in
  List.iter
    (fun (r : Nested_kernel.Nklog.record) ->
      let slot = r.Nested_kernel.Nklog.offset / slot_size in
      let within = r.Nested_kernel.Nklog.offset mod slot_size in
      let deactivates =
        within <= 16
        && within + String.length r.Nested_kernel.Nklog.data > 16
        &&
        let byte = String.get r.Nested_kernel.Nklog.data (16 - within) in
        byte = '\000'
      in
      if deactivates && Bytes.get_int64_le state ((slot * slot_size) + 16) <> 0L
      then begin
        let pid = Int64.to_int (Bytes.get_int64_le state (slot * slot_size)) in
        removals := (pid, r.Nested_kernel.Nklog.seq) :: !removals
      end;
      Bytes.blit_string r.Nested_kernel.Nklog.data 0 state r.Nested_kernel.Nklog.offset
        (String.length r.Nested_kernel.Nklog.data))
    (Nested_kernel.Nklog.records t.log);
  List.rev !removals
