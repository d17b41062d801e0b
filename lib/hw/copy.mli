(** Copy-into helpers for the in-place [restore] functions. *)

val hashtbl : ?value:('v -> 'v) -> src:('k, 'v) Hashtbl.t -> ('k, 'v) Hashtbl.t -> unit
(** [hashtbl ~src dst] replaces [dst]'s bindings with [src]'s, each
    value passed through [value] (default: shared as is; pass a copy
    function for mutable values).  Iteration order matches [src]'s as
    long as both tables were created with the same initial size and
    [src] has not resized. *)

val ints : src:int array -> int array -> unit
(** Copy every element of [src] into [dst], without the write barrier
    [Array.blit] pays on a major-heap destination.  Raises
    [Invalid_argument] if the lengths differ. *)

val ints_into : src:int array -> int array -> int array
(** [ints_into ~src dst] is [dst] with [src]'s elements copied in when
    the lengths agree, otherwise a fresh copy of [src]: assign the
    result back to the field [dst] came from. *)
