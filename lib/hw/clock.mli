(** Cycle accumulator for one machine.  Event counts live in the
    typed {!Nktrace} counters. *)

type t

val create : unit -> t
val charge : t -> int -> unit
val cycles : t -> int
val reset : t -> unit

type snapshot
(** A cycle stamp. *)

val snapshot : t -> snapshot
val cycles_since : t -> snapshot -> int
