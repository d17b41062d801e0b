open Nkhw

type writer =
  | Direct of Machine.t
  | Mediated of Nested_kernel.State.t * Nested_kernel.State.wd

type t = { table_va : Addr.va; writer : writer; machine : Machine.t }

let table_bytes = Ktypes.max_syscall * 8

let create_native machine ~table_va = { table_va; writer = Direct machine; machine }

let create_protected nk =
  let policy =
    Nested_kernel.Policy.write_once
      (Nested_kernel.Policy.write_once_state ~size:table_bytes)
  in
  match Nested_kernel.Api.nk_alloc nk ~size:table_bytes policy with
  | Error e -> Error e
  | Ok (wd, va) ->
      Ok
        {
          table_va = va;
          writer = Mediated (nk, wd);
          machine = (nk).Nested_kernel.State.machine;
        }

let entry_va t sysno = t.table_va + (sysno * 8)

let word v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  b

let set t ~sysno ~handler_id =
  if sysno < 0 || sysno >= Ktypes.max_syscall then Error "bad syscall number"
  else
    match t.writer with
    | Direct m -> (
        match Machine.kwrite_u64 m (entry_va t sysno) handler_id with
        | Ok () -> Ok ()
        | Error f -> Error (Fault.to_string f))
    | Mediated (nk, wd) -> (
        match
          Nested_kernel.Api.nk_write nk wd ~dest:(entry_va t sysno)
            (word handler_id)
        with
        | Ok () -> Ok ()
        | Error e -> Error (Nested_kernel.Nk_error.to_string e))

let get t ~sysno =
  if sysno < 0 || sysno >= Ktypes.max_syscall then Error Ktypes.Enosys
  else
    match Machine.kread_u64 t.machine (entry_va t sysno) with
    | Ok 0 -> Error Ktypes.Enosys
    | Ok id -> Ok id
    | Error _ -> Error Ktypes.Efault

(* [get] packed into a bare int for the dispatcher's steady state:
   the handler id (>= 1), 0 for an empty/out-of-range entry (ENOSYS),
   -1 when the table read faults (EFAULT).  Same charges as [get]. *)
let lookup t ~sysno =
  if sysno < 0 || sysno >= Ktypes.max_syscall then 0
  else Machine.kread_word t.machine (entry_va t sysno)

let is_write_once t = match t.writer with Mediated _ -> true | Direct _ -> false
