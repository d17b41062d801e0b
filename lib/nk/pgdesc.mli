open Nkhw

(** Physical-page descriptors.

    The nested kernel keeps one descriptor per physical frame recording
    the kind of data stored in it, the number of active mappings, and a
    reverse-mapping list of every page-table entry that maps it (paper
    section 3.4).  The reverse map is what lets [nk_declare] and
    [declare_PTP] write-protect {e all existing} mappings to a page. *)

type page_type =
  | Unused  (** free RAM, no security type yet *)
  | Ptp of int  (** page-table page at paging level 1..4 *)
  | Nk_code
  | Nk_data
  | Nk_stack
  | Outer_code  (** validated, write-protected kernel code *)
  | Outer_data
  | User
  | Protected_data  (** write-protection-service client data *)

type mapping_kind =
  | Data_map  (** a leaf PTE mapping the page as data/code *)
  | Table_link  (** a non-leaf entry linking the page as a child PTP *)

type mapping = { ptp : Addr.frame; index : int; kind : mapping_kind }
(** One page-table entry referencing the page. *)

type desc = {
  mutable ptype : page_type;
  mutable mappings : mapping list;
  mutable validated_code : bool;
      (** scanned free of protected instructions *)
  mutable owner : int;
      (** owning domain: 0 = host/shared, >0 = a tenant domain *)
}

type t

val create : frames:int -> t
val frames : t -> int

val restore : src:t -> t -> unit
(** Copy every descriptor of [src] into [dst]'s descriptor records.
    Raises [Invalid_argument] if the tables differ in size. *)

val get : t -> Addr.frame -> desc
val page_type : t -> Addr.frame -> page_type
val set_type : t -> Addr.frame -> page_type -> unit

val owner : t -> Addr.frame -> int
(** Owning domain of the frame (0 = host/shared). *)

val set_owner : t -> Addr.frame -> int -> unit
val set_validated : t -> Addr.frame -> bool -> unit
val is_validated : t -> Addr.frame -> bool

val add_mapping : t -> Addr.frame -> mapping -> unit
val remove_mapping : t -> Addr.frame -> mapping -> unit
val mappings : t -> Addr.frame -> mapping list
val reference_count : t -> Addr.frame -> int

val table_links : t -> Addr.frame -> mapping list
(** Only the [Table_link] mappings: entries using the page as a
    page-table page. *)

val data_maps : t -> Addr.frame -> mapping list

val is_write_protected_type : t -> Addr.frame -> bool
(** Pages whose every mapping must be read-only while the outer kernel
    runs: PTPs, all nested-kernel pages, protected data, and validated
    outer-kernel code (Invariants I1/I5 + lifetime code integrity). *)

val is_ptp : t -> Addr.frame -> bool
val ptp_level : t -> Addr.frame -> int option

val iter : t -> (Addr.frame -> desc -> unit) -> unit
val pp_page_type : Format.formatter -> page_type -> unit
