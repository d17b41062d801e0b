(** One-call system bring-up: machine + nested kernel (when
    configured) + outer kernel + system-call table. *)

val boot :
  ?frames:int -> ?batched:bool -> ?pcid:bool -> ?trace:bool -> ?cpus:int ->
  ?domains:int -> ?inject:Nkinject.t -> Config.t -> Kernel.t
(** Boot and install all system calls.  [frames] sizes physical memory
    (default 8192 = 32 MiB); [batched] enables the batched-vMMU
    ablation backend; [pcid] (default on) enables PCID-tagged
    address-space switching; [trace]
    (default off) enables the cycle-stamped {!Nktrace} tracer; [cpus]
    (default 1) brings up that many CPUs with per-CPU kernel stacks;
    [inject] attaches a deterministic {!Nkinject} fault injector to
    every wired subsystem (disarmed during boot itself); [domains]
    (default 0) sizes the ASID pool for that many tenant domains with
    per-domain partitions. *)

val boot_with_files :
  ?frames:int -> ?batched:bool -> ?pcid:bool -> ?trace:bool -> ?cpus:int ->
  ?domains:int -> ?inject:Nkinject.t -> Config.t -> (string * int) list ->
  Kernel.t
(** Boot and pre-create sparse files (name, size) in the VFS. *)
