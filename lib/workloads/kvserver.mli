open Outer_kernel

(** Memcached-shaped server on the {!Evloop} readiness loop: fixed
    64-byte requests; GETs answer with a 512-byte value, SETs churn a
    value buffer through the kernel slab and answer a short STORED.
    The op code rides in the connection cookie (standing in for the
    request payload, which the model never materializes). *)

val req_bytes : int

val gen : (int -> int) -> int * int * int
(** Request generator for {!Loadgen.config.gen}: 90% GET / 10% SET. *)

type t

val create :
  ?lfd:int -> ?et:bool -> ?backlog:int -> ?accept_burst:int ->
  Kernel.t -> Proc.t -> t
(** A worker; [lfd] shares an existing listener across SMP workers. *)

val ev : t -> Evloop.t

val load :
  Nkhw.Machine.t -> t -> seed:int -> conns:int -> active:int -> slow:int ->
  ramp_per_tick:int -> Loadgen.t
(** Open-loop clients ({!gen}) on the server's listener: keep-alive
    chains of 8 requests, 1..16 idle ticks between them, stragglers
    dribbling an eighth of a request per tick. *)

val gets : t -> int
val sets : t -> int
