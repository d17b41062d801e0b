open Nkhw

type page_type =
  | Unused
  | Ptp of int
  | Nk_code
  | Nk_data
  | Nk_stack
  | Outer_code
  | Outer_data
  | User
  | Protected_data

type mapping_kind = Data_map | Table_link

type mapping = { ptp : Addr.frame; index : int; kind : mapping_kind }

type desc = {
  mutable ptype : page_type;
  mutable mappings : mapping list;
  mutable validated_code : bool;
  mutable owner : int;
}

type t = desc array

let create ~frames =
  Array.init frames (fun _ ->
      { ptype = Unused; mappings = []; validated_code = false; owner = 0 })

let frames = Array.length

let restore ~src dst =
  if Array.length src <> Array.length dst then
    invalid_arg "Pgdesc.restore: tables differ in size";
  Array.iteri
    (fun f s ->
      let d = dst.(f) in
      d.ptype <- s.ptype;
      d.mappings <- s.mappings;
      d.validated_code <- s.validated_code;
      d.owner <- s.owner)
    src

let get t f =
  if f < 0 || f >= Array.length t then
    invalid_arg (Printf.sprintf "Pgdesc.get: frame %d out of range" f);
  t.(f)

let page_type t f = (get t f).ptype
let set_type t f ty = (get t f).ptype <- ty
let owner t f = (get t f).owner
let set_owner t f d = (get t f).owner <- d
let set_validated t f v = (get t f).validated_code <- v
let is_validated t f = (get t f).validated_code

let add_mapping t f m =
  let d = get t f in
  d.mappings <- m :: d.mappings

let remove_mapping t f m =
  let d = get t f in
  let rec drop_one = function
    | [] -> []
    | x :: rest -> if x = m then rest else x :: drop_one rest
  in
  d.mappings <- drop_one d.mappings

let mappings t f = (get t f).mappings
let reference_count t f = List.length (get t f).mappings

let table_links t f =
  List.filter (fun m -> m.kind = Table_link) (get t f).mappings

let data_maps t f =
  List.filter (fun m -> m.kind = Data_map) (get t f).mappings

let is_write_protected_type t f =
  match page_type t f with
  | Ptp _ | Nk_code | Nk_data | Nk_stack | Protected_data | Outer_code -> true
  | Unused | Outer_data | User -> false

let is_ptp t f = match page_type t f with Ptp _ -> true | _ -> false

let ptp_level t f =
  match page_type t f with Ptp l -> Some l | _ -> None

let iter t f = Array.iteri (fun i d -> f i d) t

let pp_page_type ppf = function
  | Unused -> Format.pp_print_string ppf "unused"
  | Ptp l -> Format.fprintf ppf "ptp(L%d)" l
  | Nk_code -> Format.pp_print_string ppf "nk-code"
  | Nk_data -> Format.pp_print_string ppf "nk-data"
  | Nk_stack -> Format.pp_print_string ppf "nk-stack"
  | Outer_code -> Format.pp_print_string ppf "outer-code"
  | Outer_data -> Format.pp_print_string ppf "outer-data"
  | User -> Format.pp_print_string ppf "user"
  | Protected_data -> Format.pp_print_string ppf "protected-data"
