(** A minimal JSON tree: what the bench harness writes to
    [BENCH_nksim.json] and what its bounds checker reads back.

    Numbers keep their literal text, so a value written with a fixed
    precision reads back and prints again unchanged. *)

type t =
  | Num of string
  | Str of string
  | Bool of bool
  | Arr of t list
  | Obj of (string * t) list

val int : int -> t

val float : int -> float -> t
(** [float digits v] is [v] printed with [digits] decimals. *)

val to_string : t -> string
(** One line: [{"k": v, ...}] and [[a, b]]. *)

val of_string : string -> t
(** Raises [Failure] on malformed input. *)

val of_file : string -> t

val member : string -> t -> t option
(** The field of an object; [None] for a missing key or a non-object. *)

val number : t -> float
(** Raises [Failure] unless the value is a number. *)
