open Nkhw

type level = int

let max_subjects = 2048
let table_bytes = 4096

type store =
  | Plain of Machine.t
  | Protected of Nested_kernel.State.t * Nested_kernel.State.wd

type t = {
  machine : Machine.t;
  base : Addr.va;
  store : store;
  objects : (string, int) Hashtbl.t;  (* name -> slot *)
  mutable next_object : int;
}

(* Mediation for protected labels: a label byte may be set once and
   thereafter only lowered — integrity levels never rise. *)
let monotone_policy =
  {
    Nested_kernel.Policy.name = "mac-monotone";
    mediate =
      (fun ~offset:_ ~old ~data ->
        let ok = ref true in
        Bytes.iteri
          (fun i b ->
            let prev = Char.code (Bytes.get old i) in
            let next = Char.code b in
            if next > 15 then ok := false
            else if prev <> 0 && next > prev then ok := false)
          data;
        if !ok then Nested_kernel.Policy.Allow
        else Nested_kernel.Policy.Deny "labels may only decrease")
      [@warning "-27"];
    commit = (fun ~offset:_ ~old:_ ~data:_ -> ());
  }

let create_unprotected machine falloc =
  let frame = Frame_alloc.alloc_exn falloc in
  Phys_mem.zero_frame machine.Machine.mem frame;
  {
    machine;
    base = Addr.kva_of_frame frame;
    store = Plain machine;
    objects = Hashtbl.create 32;
    next_object = 0;
  }

let create_protected nk =
  match Nested_kernel.Api.nk_alloc nk ~size:table_bytes monotone_policy with
  | Error e -> Error e
  | Ok (wd, base) ->
      Ok
        {
          machine = (nk).Nested_kernel.State.machine;
          base;
          store = Protected (nk, wd);
          objects = Hashtbl.create 32;
          next_object = 0;
        }

let subject_label_va t pid =
  if pid < 0 || pid >= max_subjects then invalid_arg "Mac: pid out of range";
  t.base + pid

(* A full object table is an ordinary resource-exhaustion condition a
   syscall must surface as ENOSPC, never a [Failure] that unwinds the
   dispatcher mid-syscall. *)
let object_slot t name =
  match Hashtbl.find_opt t.objects name with
  | Some slot -> Ok slot
  | None ->
      let slot = t.next_object in
      if max_subjects + slot >= table_bytes then Error Ktypes.Enospc
      else begin
        t.next_object <- slot + 1;
        Hashtbl.replace t.objects name slot;
        Ok slot
      end

let object_label_va t name =
  Result.map (fun slot -> t.base + max_subjects + slot) (object_slot t name)

let read_label t va =
  Machine.charge t.machine 25;
  match Machine.read_u8 t.machine ~ring:Mmu.Supervisor va with
  | Ok v -> v land 0xF
  | Error _ -> 0

let write_label t va level =
  if level < 0 || level > 15 then Error Ktypes.Einval
  else
    match t.store with
    | Plain m -> (
        (* Convention only: the code path lowers, nothing enforces it. *)
        match Machine.write_u8 m ~ring:Mmu.Supervisor va level with
        | Ok () -> Ok ()
        | Error _ -> Error Ktypes.Efault)
    | Protected (nk, wd) -> (
        match
          Nested_kernel.Api.nk_write nk wd ~dest:va
            (Bytes.make 1 (Char.chr level))
        with
        | Ok () -> Ok ()
        | Error (Nested_kernel.Nk_error.Policy_violation _) ->
            Error Ktypes.Eacces
        | Error _ -> Error Ktypes.Efault)

let set_subject t pid level = write_label t (subject_label_va t pid) level

let set_object t name level =
  match object_label_va t name with
  | Error e -> Error e
  | Ok va -> write_label t va level

let subject_level t pid = read_label t (subject_label_va t pid)

(* Reading never allocates a slot: an unknown object is simply
   unlabelled (level 0), even when the table is full. *)
let object_level t name =
  match Hashtbl.find_opt t.objects name with
  | None -> 0
  | Some slot -> read_label t (t.base + max_subjects + slot)

let check_write t pid name =
  Machine.charge t.machine 60;
  if object_level t name > subject_level t pid then Error Ktypes.Eacces
  else Ok ()

let check_read t pid name =
  Machine.charge t.machine 60;
  if object_level t name < subject_level t pid then Error Ktypes.Eacces
  else Ok ()
