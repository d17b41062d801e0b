(** The checked-run protocol every sweep shares: boot, the counting
    TLB-coherence oracle (cycle-free), a measured window of counters
    and cycles, then a drain of the deferred-unmap queue, a final full
    coherence snapshot and an invariant audit.  Each sweep also lists
    its point's fields once ({!field}); the [BENCH_nksim.json] points,
    the {!Stats} table and the [nksim serve] report come from that
    list. *)

open Outer_kernel

val default_seed : int

val seed : unit -> int
(** [NKSIM_SCHED_SEED] if set and numeric, else {!default_seed}. *)

(** {1 Checked runs} *)

type t

val start : ?instrument:(Kernel.t -> unit) -> (unit -> Kernel.t) -> t * Kernel.t
(** Start the host timer, boot with the thunk, install the counting
    oracle, then run [instrument] (tests use it to wrap the oracle)
    before any work. *)

val open_window : t -> unit
(** Start the measured window that {!delta} and {!window_cycles}
    count from. *)

val delta : t -> Nktrace.counter -> int
(** A counter's change since {!open_window} (its whole value if no
    window was opened). *)

val window_cycles : t -> int
(** Simulated cycles since {!open_window} (or since boot). *)

val latency : t -> int * int * int
(** p50, p99 and p999 of the {!Loadgen.hist_name} histogram, in
    simulated cycles; zeros if nothing was observed. *)

val finish : t -> op:string -> int * int
(** Drain the deferred-unmap queue, take the final coherence snapshot
    (tagged [op]) and audit the invariants.  Returns the oracle
    violations over the whole run and the audit failures; both are 0
    for a native kernel. *)

val host_secs : t -> float
(** Host seconds since {!start}, boot included. *)

val timed : (unit -> 'a) -> 'a * float
(** The result and the host seconds it took. *)

val wallclock : cycles:int -> host_secs:float -> float
(** Simulated cycles per host second (0 for a zero interval). *)

(** {1 Point fields} *)

type 'a field

val field :
  ?col:string -> ?cell:('a -> string) -> string -> ('a -> Json.t) -> 'a field
(** A JSON key, shown in the table under [col] if given.  [cell]
    renders the table cell (default: the JSON value, strings
    unquoted). *)

val int : ?col:string -> string -> ('a -> int) -> 'a field

val col : string -> ('a -> string) -> 'a field
(** A table-only column. *)

val wallclock_field : cycles:('a -> int) -> host_secs:('a -> float) -> 'a field
(** The ["wallclock"] key: {!wallclock} of the point.  It varies with
    the host, so {!report} leaves it out. *)

val members : 'a field list -> 'a -> (string * Json.t) list
(** The point's JSON object members, in field order. *)

val table :
  title:string -> notes:string list -> 'a field list -> 'a list -> Stats.table

val report : 'a field list -> 'a -> unit
(** One [key: value] line per JSON field on stdout, host-dependent
    fields left out so reruns diff clean. *)
