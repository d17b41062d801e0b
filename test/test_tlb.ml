open Nkhw

let entry ?(writable = true) ?(global = false) frame =
  { Tlb.frame; writable; user = false; nx = false; global }

let test_miss_then_hit () =
  let tlb = Tlb.create () in
  Alcotest.(check (option reject)) "initial miss" None
    (Option.map ignore (Tlb.lookup tlb ~asid:0 ~vpage:5));
  Tlb.insert tlb ~asid:0 ~vpage:5 (entry 42);
  (match Tlb.lookup tlb ~asid:0 ~vpage:5 with
  | Some e -> Alcotest.(check int) "hit frame" 42 e.Tlb.frame
  | None -> Alcotest.fail "expected hit");
  Alcotest.(check int) "hits" 1 (Tlb.hits tlb)

let test_flush_page () =
  let tlb = Tlb.create () in
  Tlb.insert tlb ~asid:0 ~vpage:1 (entry 10);
  Tlb.insert tlb ~asid:0 ~vpage:2 (entry 20);
  Tlb.flush_page tlb ~vpage:1;
  Alcotest.(check bool) "flushed gone" true
    (Tlb.lookup tlb ~asid:0 ~vpage:1 = None);
  Alcotest.(check bool) "other survives" true
    (Tlb.lookup tlb ~asid:0 ~vpage:2 <> None)

let test_flush_all_keeps_global () =
  let tlb = Tlb.create () in
  Tlb.insert tlb ~asid:0 ~vpage:1 (entry 10);
  Tlb.insert tlb ~asid:0 ~vpage:2 (entry ~global:true 20);
  Tlb.flush_all tlb;
  Alcotest.(check bool) "non-global gone" true
    (Tlb.lookup tlb ~asid:0 ~vpage:1 = None);
  Alcotest.(check bool) "global kept" true
    (Tlb.lookup tlb ~asid:0 ~vpage:2 <> None)

let test_stale_entry_semantics () =
  (* The TLB intentionally serves whatever was inserted — staleness is
     the caller's problem, exactly as on hardware. *)
  let tlb = Tlb.create () in
  Tlb.insert tlb ~asid:0 ~vpage:9 (entry ~writable:true 1);
  Tlb.insert tlb ~asid:0 ~vpage:9 (entry ~writable:false 1);
  match Tlb.lookup tlb ~asid:0 ~vpage:9 with
  | Some e -> Alcotest.(check bool) "latest wins" false e.Tlb.writable
  | None -> Alcotest.fail "entry missing"

let test_asid_isolation () =
  let tlb = Tlb.create () in
  Tlb.insert tlb ~asid:1 ~vpage:5 (entry 11);
  Tlb.insert tlb ~asid:2 ~vpage:5 (entry 22);
  (match Tlb.lookup tlb ~asid:1 ~vpage:5 with
  | Some e -> Alcotest.(check int) "asid 1 frame" 11 e.Tlb.frame
  | None -> Alcotest.fail "asid 1 miss");
  (match Tlb.lookup tlb ~asid:2 ~vpage:5 with
  | Some e -> Alcotest.(check int) "asid 2 frame" 22 e.Tlb.frame
  | None -> Alcotest.fail "asid 2 miss");
  Alcotest.(check bool) "asid 3 misses" true
    (Tlb.lookup tlb ~asid:3 ~vpage:5 = None)

let test_global_visible_in_all_asids () =
  let tlb = Tlb.create () in
  Tlb.insert tlb ~asid:1 ~vpage:7 (entry ~global:true 70);
  Alcotest.(check bool) "asid 2 sees global" true
    (Tlb.lookup tlb ~asid:2 ~vpage:7 <> None);
  Alcotest.(check bool) "asid 0 sees global" true
    (Tlb.lookup tlb ~asid:0 ~vpage:7 <> None)

let frame_of w = if w = Tlb.miss then -1 else Tlb.packed_frame w

let test_global_shadows_asid_entry () =
  (* ASID 2's own entry for the page stays live, but the global wins. *)
  let tlb = Tlb.create () in
  Tlb.insert tlb ~asid:2 ~vpage:7 (entry 71);
  Tlb.insert tlb ~asid:1 ~vpage:7 (entry ~global:true 70);
  Alcotest.(check int) "global shadows asid 2's entry" 70
    (frame_of (Tlb.lookup_packed tlb ~asid:2 ~vpage:7));
  Alcotest.(check int) "peek agrees" 70
    (frame_of (Tlb.peek_packed tlb ~asid:2 ~vpage:7));
  Alcotest.(check int) "asid 2's entry still live" 71
    (frame_of (Tlb.live_packed tlb ~asid:2 ~vpage:7));
  Alcotest.(check int) "global entry live" 70
    (frame_of (Tlb.live_packed tlb ~asid:(-1) ~vpage:7));
  Alcotest.(check int) "both counted" 2 (Tlb.size tlb)

let vmax = (1 lsl 36) - 1

let test_one_key () =
  (* The table, the insert log and the coherence oracle's index all
     name a translation by [Tlb.key]; a global's key is its bare vpage. *)
  Alcotest.(check int) "global key is the vpage" 1234
    (Tlb.key ~asid:(-1) ~vpage:1234);
  List.iter
    (fun (asid, vpage) ->
      let k = Tlb.key ~asid ~vpage in
      Alcotest.(check bool) "non-negative" true (k >= 0);
      Alcotest.(check (pair int int)) "round trip" (asid, vpage)
        (Tlb.key_asid k, Tlb.key_vpage k))
    [ (-1, 0); (-1, vmax); (0, 0); (0, vmax); (4095, 7); (4095, vmax) ];
  let tlb = Tlb.create () in
  Tlb.start_insert_log tlb;
  Tlb.insert tlb ~asid:4095 ~vpage:vmax (entry 1);
  Tlb.insert tlb ~asid:3 ~vpage:5 (entry ~global:true 2);
  Alcotest.(check (list int)) "the log holds the keys"
    [ Tlb.key ~asid:4095 ~vpage:vmax; 5 ]
    (List.init (Tlb.logged_inserts tlb) (Tlb.logged_key tlb));
  Alcotest.(check int) "live under its key" 1
    (frame_of (Tlb.live_packed tlb ~asid:4095 ~vpage:vmax))

let test_probes_see_live_only () =
  let tlb = Tlb.create () in
  Tlb.insert tlb ~asid:1 ~vpage:5 (entry 10);
  Tlb.insert tlb ~asid:2 ~vpage:9 (entry ~global:true 20);
  Alcotest.(check bool) "asid 1 held" true (Tlb.holds_asid tlb ~asid:1);
  Alcotest.(check bool) "a global is no ASID's" false
    (Tlb.holds_asid tlb ~asid:2);
  Tlb.flush_asid tlb ~asid:1;
  Alcotest.(check bool) "flushed asid not held" false
    (Tlb.holds_asid tlb ~asid:1);
  Alcotest.(check bool) "flushed page not held" false
    (Tlb.holds_span tlb ~vpage:5 ~count:1);
  Tlb.flush_all tlb;
  Alcotest.(check bool) "global survives a full flush" true
    (Tlb.holds_span tlb ~vpage:0 ~count:16);
  Tlb.flush_global_too tlb;
  Alcotest.(check bool) "nothing held" false
    (Tlb.holds_span tlb ~vpage:0 ~count:16)

let test_asid_ranges_stop_at_neighbours () =
  (* One ASID's keys are a contiguous range; the entries just outside
     it — ASID 0's last vpage, ASID 2's first — must survive a
     wraparound purge of ASID 1 and never count as ASID 1's. *)
  let tlb = Tlb.create ~epoch_limit:3 () in
  Tlb.insert tlb ~asid:0 ~vpage:vmax (entry 1);
  Tlb.insert tlb ~asid:2 ~vpage:0 (entry 2);
  Tlb.insert tlb ~asid:1 ~vpage:0 (entry 3);
  Tlb.insert tlb ~asid:1 ~vpage:vmax (entry 4);
  for _ = 1 to 3 do
    Tlb.flush_asid tlb ~asid:1
  done;
  (* The generation wrapped back to the one ASID 1's entries were filled
     under: only the purge keeps them from coming back to life. *)
  Alcotest.(check bool) "asid 1 empty" false (Tlb.holds_asid tlb ~asid:1);
  Alcotest.(check int) "asid 1 misses" (-1)
    (frame_of (Tlb.peek_packed tlb ~asid:1 ~vpage:0));
  Alcotest.(check int) "asid 0 neighbour" 1
    (frame_of (Tlb.live_packed tlb ~asid:0 ~vpage:vmax));
  Alcotest.(check int) "asid 2 neighbour" 2
    (frame_of (Tlb.live_packed tlb ~asid:2 ~vpage:0));
  Alcotest.(check int) "only the neighbours remain" 2 (Tlb.size tlb)

let test_flush_asid () =
  let tlb = Tlb.create () in
  Tlb.insert tlb ~asid:1 ~vpage:1 (entry 10);
  Tlb.insert tlb ~asid:2 ~vpage:1 (entry 20);
  Tlb.insert tlb ~asid:1 ~vpage:3 (entry ~global:true 30);
  Tlb.flush_asid tlb ~asid:1;
  Alcotest.(check bool) "asid 1 flushed" true
    (Tlb.lookup tlb ~asid:1 ~vpage:1 = None);
  Alcotest.(check bool) "asid 2 untouched" true
    (Tlb.lookup tlb ~asid:2 ~vpage:1 <> None);
  Alcotest.(check bool) "global untouched" true
    (Tlb.lookup tlb ~asid:1 ~vpage:3 <> None)

let test_flush_all_covers_every_asid () =
  let tlb = Tlb.create () in
  Tlb.insert tlb ~asid:1 ~vpage:1 (entry 10);
  Tlb.insert tlb ~asid:2 ~vpage:2 (entry 20);
  Tlb.flush_all tlb;
  Alcotest.(check bool) "asid 1 gone" true
    (Tlb.lookup tlb ~asid:1 ~vpage:1 = None);
  Alcotest.(check bool) "asid 2 gone" true
    (Tlb.lookup tlb ~asid:2 ~vpage:2 = None)

let test_flush_global_too () =
  let tlb = Tlb.create () in
  Tlb.insert tlb ~asid:1 ~vpage:1 (entry 10);
  Tlb.insert tlb ~asid:1 ~vpage:2 (entry ~global:true 20);
  Tlb.flush_global_too tlb;
  Alcotest.(check bool) "non-global gone" true
    (Tlb.lookup tlb ~asid:1 ~vpage:1 = None);
  Alcotest.(check bool) "global gone too" true
    (Tlb.lookup tlb ~asid:1 ~vpage:2 = None)

let test_flush_page_all_asids () =
  let tlb = Tlb.create () in
  Tlb.insert tlb ~asid:1 ~vpage:4 (entry 10);
  Tlb.insert tlb ~asid:2 ~vpage:4 (entry 20);
  Tlb.insert tlb ~asid:3 ~vpage:4 (entry ~global:true 30);
  Tlb.insert tlb ~asid:1 ~vpage:5 (entry 50);
  Tlb.flush_page tlb ~vpage:4;
  Alcotest.(check bool) "asid 1 gone" true
    (Tlb.lookup tlb ~asid:1 ~vpage:4 = None);
  Alcotest.(check bool) "asid 2 gone" true
    (Tlb.lookup tlb ~asid:2 ~vpage:4 = None);
  Alcotest.(check bool) "global gone" true
    (Tlb.lookup tlb ~asid:3 ~vpage:4 = None);
  Alcotest.(check bool) "other page survives" true
    (Tlb.lookup tlb ~asid:1 ~vpage:5 <> None)

let test_size_counts_live_entries () =
  let tlb = Tlb.create () in
  Tlb.insert tlb ~asid:1 ~vpage:1 (entry 10);
  Tlb.insert tlb ~asid:2 ~vpage:1 (entry 20);
  Tlb.insert tlb ~asid:1 ~vpage:2 (entry ~global:true 30);
  Alcotest.(check int) "3 live" 3 (Tlb.size tlb);
  Tlb.flush_asid tlb ~asid:1;
  Alcotest.(check int) "asid 1 dropped" 2 (Tlb.size tlb);
  Tlb.flush_all tlb;
  Alcotest.(check int) "globals only" 1 (Tlb.size tlb);
  Tlb.flush_global_too tlb;
  Alcotest.(check int) "empty" 0 (Tlb.size tlb)

let test_refill_after_generation_flush () =
  (* The generation trick must not resurrect or shadow entries:
     insert, flush, re-insert must serve the new entry. *)
  let tlb = Tlb.create () in
  Tlb.insert tlb ~asid:1 ~vpage:8 (entry 80);
  Tlb.flush_all tlb;
  Alcotest.(check bool) "stale invisible" true
    (Tlb.lookup tlb ~asid:1 ~vpage:8 = None);
  Tlb.insert tlb ~asid:1 ~vpage:8 (entry 81);
  (match Tlb.lookup tlb ~asid:1 ~vpage:8 with
  | Some e -> Alcotest.(check int) "fresh frame" 81 e.Tlb.frame
  | None -> Alcotest.fail "refill lost");
  Tlb.flush_asid tlb ~asid:1;
  Tlb.insert tlb ~asid:1 ~vpage:8 (entry 82);
  match Tlb.lookup tlb ~asid:1 ~vpage:8 with
  | Some e -> Alcotest.(check int) "post-asid-flush frame" 82 e.Tlb.frame
  | None -> Alcotest.fail "refill after asid flush lost"

let test_many_flushes_stay_cheap () =
  (* 100k flush_all calls with a populated table: feasible only if the
     flush is O(1).  Completes instantly with the generation scheme,
     would take noticeable time rebuilding a hashtable per call. *)
  let tlb = Tlb.create () in
  for vpage = 0 to 255 do
    Tlb.insert tlb ~asid:(vpage land 7) ~vpage (entry vpage)
  done;
  for _ = 1 to 100_000 do
    Tlb.flush_all tlb
  done;
  Alcotest.(check int) "all dead" 0 (Tlb.size tlb)

(* Randomized differential check: the packed open-addressed table
   against a naive reference map, over a key space small enough to
   force slot collisions, tombstone reuse and rehashing.  The
   reference mirrors the documented semantics — globals hit first and
   under every ASID, flushes are scoped — so any divergence is a bug
   in the packed machinery (lazy generation reclamation, epoch
   wraparound purges, occupancy lists), not a modelling choice. *)
let differential_soak ?epoch_limit ~seed ~ops () =
  let tlb = Tlb.create ?epoch_limit () in
  let ref_local : (int * int, Tlb.entry) Hashtbl.t = Hashtbl.create 64 in
  let ref_glob : (int, Tlb.entry) Hashtbl.t = Hashtbl.create 64 in
  let state = ref (if seed = 0 then 0x2545F4914F6CDD1D else seed) in
  let rand bound =
    let x = !state in
    let x = x lxor (x lsl 13) land max_int in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) land max_int in
    state := x;
    x mod bound
  in
  let n_asids = 8 and n_vpages = 64 in
  let ref_lookup ~asid ~vpage =
    match Hashtbl.find_opt ref_glob vpage with
    | Some e -> Some e
    | None -> Hashtbl.find_opt ref_local (asid, vpage)
  in
  let check_point ~probe ~asid ~vpage =
    let got = probe tlb ~asid ~vpage in
    let want = ref_lookup ~asid ~vpage in
    if got <> want then
      Alcotest.failf "divergence at asid=%d vpage=%d: tlb=%s ref=%s" asid
        vpage
        (match got with
        | Some (e : Tlb.entry) -> string_of_int e.Tlb.frame
        | None -> "miss")
        (match want with
        | Some e -> string_of_int e.Tlb.frame
        | None -> "miss")
  in
  (* Every fill since the last sweep, as the insert log must hold it. *)
  let logged = ref [] in
  Tlb.start_insert_log tlb;
  let entry_of w = if w = Tlb.miss then None else Some (Tlb.unpack w) in
  let sweep () =
    for asid = 0 to n_asids - 1 do
      for vpage = 0 to n_vpages - 1 do
        check_point ~probe:Tlb.peek ~asid ~vpage
      done
    done;
    let live = Hashtbl.length ref_local + Hashtbl.length ref_glob in
    Alcotest.(check int) "live-entry count" live (Tlb.size tlb);
    (* The per-entry views: one ASID's own entry (the global set for
       ASID -1), the full live set, and the occupancy probes. *)
    for vpage = 0 to n_vpages - 1 do
      if
        entry_of (Tlb.live_packed tlb ~asid:(-1) ~vpage)
        <> Hashtbl.find_opt ref_glob vpage
      then Alcotest.failf "live_packed global vpage=%d" vpage;
      for asid = 0 to n_asids - 1 do
        if
          entry_of (Tlb.live_packed tlb ~asid ~vpage)
          <> Hashtbl.find_opt ref_local (asid, vpage)
        then Alcotest.failf "live_packed asid=%d vpage=%d" asid vpage
      done
    done;
    let got = ref [] in
    Tlb.iter_live_packed tlb ~f:(fun ~asid ~vpage w ->
        got := (asid, vpage, Tlb.unpack w) :: !got);
    let want =
      Hashtbl.fold (fun v e l -> (-1, v, e) :: l) ref_glob
        (Hashtbl.fold (fun (a, v) e l -> (a, v, e) :: l) ref_local [])
    in
    Alcotest.(check bool) "iter_live_packed contents" true
      (List.sort compare !got = List.sort compare want);
    for asid = 0 to n_asids - 1 do
      let want =
        Hashtbl.fold (fun (a, _) _ b -> b || a = asid) ref_local false
      in
      Alcotest.(check bool) "holds_asid" want (Tlb.holds_asid tlb ~asid)
    done;
    List.iter
      (fun count ->
        for vpage = 0 to n_vpages - 1 do
          let last = vpage + count - 1 in
          let within v = v >= vpage && v <= last in
          let want =
            Hashtbl.fold (fun v _ b -> b || within v) ref_glob false
            || Hashtbl.fold (fun (_, v) _ b -> b || within v) ref_local false
          in
          if Tlb.holds_span tlb ~vpage ~count <> want then
            Alcotest.failf "holds_span vpage=%d count=%d" vpage count
        done)
      [ 1; 5 ];
    Alcotest.(check bool) "insert log within capacity" false
      (Tlb.insert_log_overflowed tlb);
    Alcotest.(check (list (pair int int))) "insert-log keys"
      (List.rev !logged)
      (List.init (Tlb.logged_inserts tlb) (fun i ->
           let k = Tlb.logged_key tlb i in
           Alcotest.(check int) "key round trip" k
             (Tlb.key ~asid:(Tlb.key_asid k) ~vpage:(Tlb.key_vpage k));
           (Tlb.key_asid k, Tlb.key_vpage k)));
    Tlb.clear_insert_log tlb;
    logged := []
  in
  for op = 1 to ops do
    (match rand 16 with
    | 0 | 1 | 2 | 3 | 4 | 5 ->
        let asid = rand n_asids and vpage = rand n_vpages in
        let global = rand 8 = 0 in
        let e = entry ~writable:(rand 2 = 0) ~global (rand 10_000) in
        Tlb.insert tlb ~asid ~vpage e;
        logged := ((if global then -1 else asid), vpage) :: !logged;
        if global then Hashtbl.replace ref_glob vpage e
        else Hashtbl.replace ref_local (asid, vpage) e
    | 6 | 7 | 8 | 9 | 10 ->
        let asid = rand n_asids and vpage = rand n_vpages in
        check_point ~probe:Tlb.lookup ~asid ~vpage
    | 11 ->
        Tlb.flush_all tlb;
        Hashtbl.reset ref_local
    | 12 ->
        let asid = rand n_asids in
        Tlb.flush_asid tlb ~asid;
        Hashtbl.iter
          (fun (a, v) _ -> if a = asid then Hashtbl.remove ref_local (a, v))
          (Hashtbl.copy ref_local)
    | 13 ->
        let vpage = rand n_vpages and count = 1 + rand 16 in
        Tlb.flush_span tlb ~vpage ~count;
        for v = vpage to vpage + count - 1 do
          Hashtbl.remove ref_glob v;
          for a = 0 to n_asids - 1 do
            Hashtbl.remove ref_local (a, v)
          done
        done
    | 14 ->
        let vpage = rand n_vpages in
        Tlb.flush_page tlb ~vpage;
        Hashtbl.remove ref_glob vpage;
        for a = 0 to n_asids - 1 do
          Hashtbl.remove ref_local (a, vpage)
        done
    | _ ->
        Tlb.flush_global_too tlb;
        Hashtbl.reset ref_local;
        Hashtbl.reset ref_glob);
    if op mod 500 = 0 then sweep ()
  done;
  sweep ()

let test_differential () = differential_soak ~seed:7 ~ops:20_000 ()

let test_differential_epoch_wrap () =
  (* A tiny epoch limit forces the generation counters to wrap (and
     physically purge) hundreds of times across the soak, so equality
     tagging after a wrap is exercised, not just the fast path. *)
  differential_soak ~epoch_limit:5 ~seed:1337 ~ops:20_000 ()

let prop_insert_lookup =
  Helpers.qtest "insert/lookup"
    QCheck2.Gen.(
      triple (int_range 0 1_000_000) (int_range 0 10_000) (int_range 0 4095))
    (fun (vpage, frame, asid) ->
      let tlb = Tlb.create () in
      Tlb.insert tlb ~asid ~vpage (entry frame);
      match Tlb.lookup tlb ~asid ~vpage with
      | Some e -> e.Tlb.frame = frame
      | None -> false)

let prop_asid_flush_isolated =
  Helpers.qtest "flush_asid leaves other asids intact"
    QCheck2.Gen.(
      triple (int_range 0 1_000_000) (int_range 1 4095) (int_range 1 4095))
    (fun (vpage, a, b) ->
      QCheck2.assume (a <> b);
      let tlb = Tlb.create () in
      Tlb.insert tlb ~asid:a ~vpage (entry 1);
      Tlb.insert tlb ~asid:b ~vpage (entry 2);
      Tlb.flush_asid tlb ~asid:a;
      Tlb.lookup tlb ~asid:a ~vpage = None
      && Tlb.lookup tlb ~asid:b ~vpage <> None)

(* --- in-place restore ------------------------------------------ *)

let live tlb =
  let l = ref [] in
  Tlb.iter_live_packed tlb ~f:(fun ~asid ~vpage w -> l := (asid, vpage, w) :: !l);
  List.sort compare !l

(* Enough entries to grow the (asid, vpage) table past its initial 2048
   slots and the global table past 128. *)
let grown () =
  let tlb = Tlb.create () in
  for v = 0 to 1499 do
    Tlb.insert tlb ~asid:(v mod 3) ~vpage:(1000 + v) (entry v)
  done;
  for v = 0 to 99 do
    Tlb.insert tlb ~asid:0 ~vpage:(9000 + v) (entry ~global:true v)
  done;
  tlb

let small () =
  let tlb = Tlb.create () in
  Tlb.insert tlb ~asid:0 ~vpage:1 (entry 10);
  Tlb.insert tlb ~asid:1 ~vpage:1 (entry ~writable:false 11);
  Tlb.insert tlb ~asid:0 ~vpage:7 (entry ~global:true 12);
  Tlb.flush_asid tlb ~asid:1;
  Tlb.insert tlb ~asid:1 ~vpage:2 (entry 13);
  tlb

(* The same traffic on two TLBs must leave them serving the same
   entries with the same statistics. *)
let same_behaviour msg a b =
  Alcotest.(check bool) (msg ^ ": same live entries") true (live a = live b);
  let drive t =
    Tlb.insert t ~asid:2 ~vpage:3 (entry 30);
    Tlb.flush_page t ~vpage:1;
    ignore (Tlb.lookup t ~asid:0 ~vpage:7);
    ignore (Tlb.lookup t ~asid:1 ~vpage:2);
    Tlb.flush_asid t ~asid:0;
    Tlb.insert t ~asid:0 ~vpage:4 (entry ~global:true 40);
    (live t, Tlb.hits t, Tlb.misses t, Tlb.logged_inserts t)
  in
  Alcotest.(check bool) (msg ^ ": same after more traffic") true (drive a = drive b)

let test_restore_across_sizes () =
  let src = small () and dst = grown () in
  Tlb.restore ~src dst;
  same_behaviour "grown dst" (small ()) dst;
  let src = grown () and dst = small () in
  Tlb.restore ~src dst;
  let before = live src in
  same_behaviour "grown src" (grown ()) dst;
  Alcotest.(check bool) "source untouched by the copy's traffic" true
    (live src = before)

let test_restore_insert_log () =
  let src = small () in
  Tlb.start_insert_log src;
  Tlb.insert src ~asid:0 ~vpage:5 (entry 50);
  Tlb.insert src ~asid:0 ~vpage:6 (entry ~global:true 60);
  let dst = Tlb.create () in
  Tlb.restore ~src dst;
  let log t =
    List.init (Tlb.logged_inserts t) (fun i -> let k = Tlb.logged_key t i in (Tlb.key_asid k, Tlb.key_vpage k))
  in
  Alcotest.(check (list (pair int int))) "armed log copied" [ (0, 5); (-1, 6) ] (log dst);
  Tlb.insert dst ~asid:1 ~vpage:8 (entry 80);
  Alcotest.(check int) "copy logs on its own" 3 (Tlb.logged_inserts dst);
  Alcotest.(check int) "source log unchanged" 2 (Tlb.logged_inserts src);
  (* An overflowed log stays overflowed in the copy. *)
  for v = 0 to 1099 do
    Tlb.insert src ~asid:0 ~vpage:(20_000 + v) (entry v)
  done;
  Alcotest.(check bool) "source overflowed" true (Tlb.insert_log_overflowed src);
  Tlb.restore ~src dst;
  Alcotest.(check bool) "copy overflowed" true (Tlb.insert_log_overflowed dst);
  same_behaviour "overflowed" src dst;
  (* Restoring from a TLB with the log off turns the copy's off. *)
  Tlb.restore ~src:(small ()) dst;
  Tlb.insert dst ~asid:0 ~vpage:5 (entry 50);
  Alcotest.(check int) "log off" 0 (Tlb.logged_inserts dst);
  Alcotest.(check bool) "not overflowed" false (Tlb.insert_log_overflowed dst)

let suite =
  [
    Alcotest.test_case "miss then hit" `Quick test_miss_then_hit;
    Alcotest.test_case "flush page" `Quick test_flush_page;
    Alcotest.test_case "full flush keeps globals" `Quick test_flush_all_keeps_global;
    Alcotest.test_case "stale entries served" `Quick test_stale_entry_semantics;
    Alcotest.test_case "asid isolation" `Quick test_asid_isolation;
    Alcotest.test_case "globals visible in all asids" `Quick
      test_global_visible_in_all_asids;
    Alcotest.test_case "global shadows a same-vpage asid entry" `Quick
      test_global_shadows_asid_entry;
    Alcotest.test_case "one key names a translation" `Quick test_one_key;
    Alcotest.test_case "occupancy probes see live entries only" `Quick
      test_probes_see_live_only;
    Alcotest.test_case "asid key ranges stop at their neighbours" `Quick
      test_asid_ranges_stop_at_neighbours;
    Alcotest.test_case "flush asid" `Quick test_flush_asid;
    Alcotest.test_case "full flush covers every asid" `Quick
      test_flush_all_covers_every_asid;
    Alcotest.test_case "flush global too" `Quick test_flush_global_too;
    Alcotest.test_case "flush page hits all asids" `Quick
      test_flush_page_all_asids;
    Alcotest.test_case "size counts live entries" `Quick
      test_size_counts_live_entries;
    Alcotest.test_case "refill after generation flush" `Quick
      test_refill_after_generation_flush;
    Alcotest.test_case "100k flushes stay cheap" `Quick
      test_many_flushes_stay_cheap;
    Alcotest.test_case "differential vs reference map" `Quick test_differential;
    Alcotest.test_case "differential with epoch wraparound" `Quick
      test_differential_epoch_wrap;
    Alcotest.test_case "restore across table sizes" `Quick test_restore_across_sizes;
    Alcotest.test_case "restore copies the insert log" `Quick test_restore_insert_log;
    prop_insert_lookup;
    prop_asid_flush_isolated;
  ]
