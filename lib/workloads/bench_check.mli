(** The bounds CI holds [BENCH_nksim.json] to, runnable locally as
    [dune exec bench/main.exe -- check BENCH_nksim.json --baseline OLD.json].
    Only the wallclock gate reads the baseline; a key a gate needs but
    cannot find fails that gate. *)

val gates : string list
(** Every gate's name, in the order {!check} runs them. *)

val check : baseline:Json.t -> Json.t -> (string * string) list
(** [(gate, message)] for every bound the fresh results break. *)
