open Nkhw
open Outer_kernel

(** Deterministic open-loop load generator — the "network" side of
    the event-driven servers.

    Connections arrive at a seeded, fixed rate regardless of server
    progress (listener drops are retried, never silently forgotten).
    The first [active] clients issue keep-alive request chains with
    think-time gaps, the first [slow] of those are slowloris
    stragglers dribbling [slow_chunk] bytes per tick, and the
    remaining clients connect once and sit idle — the C10K population
    shape.  Request latency (first request byte to last response
    byte, simulated cycles) lands in the machine tracer's
    {!hist_name} histogram. *)

val hist_name : string
(** ["server_req_latency"]. *)

type config = {
  seed : int;
  conns : int;  (** live-connection target *)
  active : int;  (** requesters among them *)
  slow : int;  (** slowloris stragglers among the active *)
  slow_chunk : int;  (** straggler bytes per tick *)
  ramp_per_tick : int;  (** connection arrivals per tick *)
  keepalive : int;  (** requests per connection before recycling *)
  think_max : int;  (** 1..think_max idle ticks between requests *)
  gen : (int -> int) -> int * int * int;
      (** [gen rand] draws one request:
          [(request bytes, response bytes, cookie)] *)
}

type t

val create : Machine.t -> Socket.listener -> config -> t
val tick : t -> unit

val live_peak : t -> int
val completed : t -> int
val failed_connects : t -> int
val started : t -> int
