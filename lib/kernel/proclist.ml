open Nkhw

type t = { machine : Machine.t; kalloc : Kalloc.t; head : Addr.va }

let off_pid = 0
let off_next = 8
let off_prev = 16
let off_state = 24

let read m va =
  match Machine.kread_u64 m va with
  | Ok v -> v
  | Error f -> raise (Fault.Hardware f)

let write m va v =
  match Machine.kwrite_u64 m va v with
  | Ok () -> ()
  | Error f -> raise (Fault.Hardware f)

let create machine kalloc ~head_va =
  write machine head_va 0;
  { machine; kalloc; head = head_va }

let head_va t = t.head

let insert t pid =
  match Kalloc.alloc t.kalloc with
  | None -> Error Ktypes.Enomem
  | Some node ->
      let m = t.machine in
      let old_head = read m t.head in
      write m (node + off_pid) pid;
      write m (node + off_next) old_head;
      write m (node + off_prev) 0;
      write m (node + off_state) 0;
      if old_head <> 0 then write m (old_head + off_prev) node;
      write m t.head node;
      Ok node

let set_state t ~node state =
  write t.machine (node + off_state) state;
  Ok ()

let unlink_raw machine ~head_va ~node =
  let ( let* ) = Result.bind in
  let* next = Machine.kread_u64 machine (node + off_next) in
  let* prev = Machine.kread_u64 machine (node + off_prev) in
  let* () =
    if prev = 0 then Machine.kwrite_u64 machine head_va next
    else Machine.kwrite_u64 machine (prev + off_next) next
  in
  if next <> 0 then Machine.kwrite_u64 machine (next + off_prev) prev
  else Ok ()

let remove t ~node =
  match unlink_raw t.machine ~head_va:t.head ~node with
  | Error _ -> Error Ktypes.Efault
  | Ok () ->
      Kalloc.free t.kalloc node;
      Ok ()

let pids t =
  let m = t.machine in
  let rec go node acc guard =
    if node = 0 || guard = 0 then List.rev acc
    else
      let pid = read m (node + off_pid) in
      let state = read m (node + off_state) in
      go (read m (node + off_next)) ((pid, state) :: acc) (guard - 1)
  in
  go (read m t.head) [] 100_000

let find t pid =
  let m = t.machine in
  let rec go node guard =
    if node = 0 || guard = 0 then None
    else if read m (node + off_pid) = pid then Some node
    else go (read m (node + off_next)) (guard - 1)
  in
  go (read m t.head) 100_000
