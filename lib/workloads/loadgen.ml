(* Open-loop load generator: the "network" side of the event-driven
   servers.  Connections arrive at a seeded, deterministic rate
   regardless of server progress (drops are retried, never silently
   forgotten); a bounded subset of them actively issues keep-alive
   request chains while the rest sit idle and just occupy fd-table,
   epoll and socket state — the C10K shape where readiness beats
   scanning.  A few active clients are slowloris stragglers that
   dribble their request bytes, stretching the latency tail.

   Request latency is measured in simulated cycles from first request
   byte to last response byte and recorded into the machine tracer's
   "server_req_latency" histogram. *)

open Nkhw
open Outer_kernel

let hist_name = "server_req_latency"

type config = {
  seed : int;
  conns : int;  (* live-connection target *)
  active : int;  (* how many of them issue requests *)
  slow : int;  (* slowloris stragglers among the active *)
  slow_chunk : int;  (* bytes per tick a straggler dribbles *)
  ramp_per_tick : int;  (* connection arrivals per tick *)
  keepalive : int;  (* requests per connection before recycling *)
  think_max : int;  (* 1..think_max idle ticks between requests *)
  gen : (int -> int) -> int * int * int;
      (* rand -> (request bytes, response bytes, cookie) *)
}

type client = {
  cl_active : bool;
  cl_slow : bool;
  mutable conn : Socket.conn option;
  mutable reqs_left : int;
  mutable to_send : int;  (* request bytes still to push *)
  mutable req_bytes : int;  (* full size of the in-flight request *)
  mutable expect : int;  (* response bytes still expected *)
  mutable got : int;
  mutable issued_at : int;  (* cycle stamp of the request's first byte *)
  mutable next_at : int;  (* tick gating reconnect / next request *)
}

type t = {
  machine : Machine.t;
  lst : Socket.listener;
  cfg : config;
  mutable rng : int;
  clients : client array;  (* the first [active] are requesters *)
  retryq : int Queue.t;  (* idle clients whose connect was dropped *)
  mutable started : int;  (* ramp cursor *)
  mutable tick_no : int;
  mutable live_now : int;
  mutable live_peak : int;
  mutable completed : int;
  mutable failed_connects : int;
}

let rand t bound =
  let x = t.rng in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  t.rng <- x land max_int;
  if bound <= 1 then 0 else t.rng mod bound

let create machine lst cfg =
  if cfg.active > cfg.conns then
    invalid_arg "Loadgen.create: active exceeds conns";
  {
    machine;
    lst;
    cfg;
    rng = (if cfg.seed = 0 then 0x9E3779B9 else cfg.seed);
    clients =
      Array.init cfg.conns (fun i ->
          {
            cl_active = i < cfg.active;
            cl_slow = i < cfg.slow;
            conn = None;
            reqs_left = 0;
            to_send = 0;
            req_bytes = 0;
            expect = 0;
            got = 0;
            issued_at = 0;
            next_at = 0;
          });
    retryq = Queue.create ();
    started = 0;
    tick_no = 0;
    live_now = 0;
    live_peak = 0;
    completed = 0;
    failed_connects = 0;
  }

let cpus t = Array.length (Socket.accepts_local t.lst)

let try_connect t cl =
  match Socket.connect t.lst ~cpu:(rand t (cpus t)) with
  | Some c ->
      cl.conn <- Some c;
      cl.reqs_left <- t.cfg.keepalive;
      cl.to_send <- 0;
      cl.expect <- 0;
      cl.got <- 0;
      cl.next_at <- t.tick_no;
      t.live_now <- t.live_now + 1;
      if t.live_now > t.live_peak then t.live_peak <- t.live_now
  | None ->
      (* Dropped at the listener (backlog full / injected overflow /
         buffer exhaustion): the client retries shortly, like any TCP
         stack would. *)
      t.failed_connects <- t.failed_connects + 1;
      cl.next_at <- t.tick_no + 2

let start_request t cl c =
  let rq, rs, cookie = t.cfg.gen (rand t) in
  Socket.set_cookie c cookie;
  cl.req_bytes <- rq;
  cl.to_send <- rq;
  cl.expect <- rs;
  cl.got <- 0;
  cl.issued_at <- Clock.cycles t.machine.Machine.clock

let drop_conn t cl =
  cl.conn <- None;
  t.live_now <- t.live_now - 1

let step_client t cl =
  match cl.conn with
  | None -> if t.tick_no >= cl.next_at then try_connect t cl
  | Some c ->
      if Socket.server_closed c then begin
        drop_conn t cl;
        cl.next_at <- t.tick_no + 2
      end
      else begin
        if
          cl.to_send = 0 && cl.expect = 0 && cl.reqs_left > 0
          && t.tick_no >= cl.next_at
        then start_request t cl c;
        if cl.to_send > 0 then begin
          let chunk =
            if cl.cl_slow then min t.cfg.slow_chunk cl.to_send else cl.to_send
          in
          Socket.send_request c chunk;
          cl.to_send <- cl.to_send - chunk
        end;
        if cl.expect > 0 then begin
          cl.got <- cl.got + Socket.drain_response c;
          if cl.got >= cl.expect then begin
            Nktrace.observe t.machine.Machine.trace hist_name
              (Clock.cycles t.machine.Machine.clock - cl.issued_at);
            t.completed <- t.completed + 1;
            cl.expect <- 0;
            cl.got <- 0;
            cl.reqs_left <- cl.reqs_left - 1;
            if cl.reqs_left = 0 then begin
              (* Keep-alive chain exhausted: close and reconnect soon —
                 the connection churn the fd table has to absorb. *)
              Socket.client_close c;
              drop_conn t cl;
              cl.next_at <- t.tick_no + 1 + rand t t.cfg.think_max
            end
            else cl.next_at <- t.tick_no + 1 + rand t t.cfg.think_max
          end
        end
      end

let tick t =
  t.tick_no <- t.tick_no + 1;
  (* Arrivals: open-loop, so the ramp advances every tick no matter
     how the server is doing; a dropped idle connect queues for
     retry rather than vanishing. *)
  let arrivals = min t.cfg.ramp_per_tick (t.cfg.conns - t.started) in
  for i = t.started to t.started + arrivals - 1 do
    let cl = t.clients.(i) in
    try_connect t cl;
    if cl.conn = None && not cl.cl_active then Queue.push i t.retryq
  done;
  t.started <- t.started + arrivals;
  let retries = Queue.length t.retryq in
  for _ = 1 to retries do
    let i = Queue.pop t.retryq in
    let cl = t.clients.(i) in
    if cl.conn = None then
      if t.tick_no >= cl.next_at then begin
        try_connect t cl;
        if cl.conn = None then Queue.push i t.retryq
      end
      else Queue.push i t.retryq
  done;
  (* Only the active prefix does per-tick work; the idle majority
     costs nothing here, mirroring what the readiness loop gives the
     server side.  Active clients manage their own reconnects. *)
  for i = 0 to min t.cfg.active t.started - 1 do
    step_client t t.clients.(i)
  done

let live_peak t = t.live_peak
let completed t = t.completed
let failed_connects t = t.failed_connects
let started t = t.started
