(** Raw page-table construction.

    Builds translations by writing entries directly with
    {!Page_table.set_entry} — no mediation, no permission checks.  Used
    in exactly two places: the trusted boot path (which runs before the
    outer kernel exists) and the native baseline kernel (which is the
    unprotected configuration the paper compares against). *)

val map_page :
  Phys_mem.t ->
  root:Addr.frame ->
  alloc_ptp:(unit -> Addr.frame) ->
  ?on_new_ptp:(level:int -> Addr.frame -> unit) ->
  Addr.va ->
  Pte.t ->
  unit
(** Install a 4 KiB leaf mapping for [va], creating intermediate
    page-table pages with [alloc_ptp] as needed (zeroing them and
    reporting each through [on_new_ptp] with its paging level).
    Intermediate entries are created maximally permissive (present,
    writable, and user-accessible for user-half addresses); effective
    permissions come from the leaf. *)

val build_direct_map :
  Phys_mem.t ->
  root:Addr.frame ->
  alloc_ptp:(unit -> Addr.frame) ->
  ?on_new_ptp:(level:int -> Addr.frame -> unit) ->
  frames:int ->
  Pte.flags ->
  unit
(** Map physical frames [0, frames) at [Addr.kernbase] (the kernel
    direct map) with uniform flags. *)

val set_leaf_flags :
  Phys_mem.t -> root:Addr.frame -> Addr.va -> Pte.flags -> (unit, string) result
(** Rewrite the flags of an existing leaf mapping (protection pass at
    boot). *)
