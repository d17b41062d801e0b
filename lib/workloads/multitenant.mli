open Outer_kernel

(** Multi-tenant serving benchmark: N mutually distrusting tenant
    domains above one nested kernel (each with its own kv server,
    listener and open-loop load, scheduled under per-domain run-queue
    credits, churning an mmap scratch every quantum), compared against
    a single-domain native run and a simulated-hypervisor baseline
    where every mediated MMU operation pays a VMCALL round trip. *)

type point = {
  config : Config.t;
  tenants : int;
  conns : int;  (** per-tenant live-connection target *)
  seed : int;
  steps : int;
  per_tenant_completed : int list;  (** by tenant server pid *)
  completed : int;
  p50 : int;
  p99 : int;
  p999 : int;
  throughput : float;  (** requests per simulated Mcycle, aggregate *)
  xdom_denials : int;
  vmcalls : int;
  sched_epochs : int;
  pipe_words : int;
  teardown_leaks : int;
  cycles : int;
  host_secs : float;
  oracle_violations : int;
  audit_failures : int;
}

val cpus : int
val scratch_pages : int
val scratch_iters : int

val run_one :
  ?seed:int ->
  ?tenants:int ->
  ?conns:int ->
  ?instrument:(Kernel.t -> unit) ->
  config:Config.t ->
  unit ->
  point
(** One (config, tenant count) point under the checked-run protocol
    ({!Harness}); [instrument] is {!Harness.start}'s hook.  [seed]
    defaults to {!Harness.default_seed}, [tenants] to 8 and [conns]
    (per tenant) to 400. *)

val run : unit -> point list
(** Every config at 4, 8 and 16 tenants under {!Harness.seed}. *)

val fields : point Harness.field list
val to_table : point list -> Stats.table
