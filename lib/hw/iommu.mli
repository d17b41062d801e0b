(** IOMMU: blocks DMA writes to protected physical frames.

    The nested kernel registers every protected frame (page-table
    pages, its own code and data, write-protected client data) so that
    devices cannot bypass the MMU-based write mediation (paper
    section 2.5). *)

type t

val create : unit -> t

val enabled : t -> bool
val set_enabled : t -> bool -> unit

val protect_frame : t -> Addr.frame -> unit
val unprotect_frame : t -> Addr.frame -> unit
val is_protected : t -> Addr.frame -> bool

val write_allowed : t -> Addr.frame -> bool
(** False iff the IOMMU is enabled and the frame is protected. *)

val restore : src:t -> t -> unit
(** Copy the enable bit and the protected set of [src] into [dst]. *)
