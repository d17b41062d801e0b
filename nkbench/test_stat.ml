(* Tests of the benchmark's own arithmetic: which percentile a tail may
   be reported at, nearest-rank percentiles, medians, ratio bases,
   decile profiles, and self time over nested spans. *)

open Nkbench_core

let int = Alcotest.(check int)
let flt = Alcotest.(check (float 1e-9))

let test_rank () =
  int "p50 of 100" 50 (Stat.rank ~n:100 0.5);
  (* 0.99 *. 100. is 99.00000000000001 in floating point *)
  int "p99 of 100" 99 (Stat.rank ~n:100 0.99);
  int "p99 of 1024" 1014 (Stat.rank ~n:1024 0.99);
  int "one sample" 1 (Stat.rank ~n:1 0.99);
  int "beyond p99 of 1024" 10 (Stat.beyond ~n:1024 0.99);
  int "beyond p99 of 1000" 10 (Stat.beyond ~n:1000 0.99);
  int "beyond p99 of 999" 9 (Stat.beyond ~n:999 0.99)

let test_tail_choice () =
  let q = Alcotest.(check (option (float 0.0))) in
  q "40k quanta: p99.9 has 40 beyond" (Some 0.999) (Stat.tail_quantile 40_000);
  q "1024-sample reservoir: p99 has exactly 10" (Some 0.99) (Stat.tail_quantile 1024);
  q "999 samples: p99 has 9, fall to p95" (Some 0.95) (Stat.tail_quantile 999);
  q "20 samples: only the median" (Some 0.5) (Stat.tail_quantile 20);
  q "19 samples: nothing has ten beyond" None (Stat.tail_quantile 19)

let test_percentile () =
  let s = Stat.sorted (Array.init 100 (fun i -> 100 - i)) in
  int "p50" 50 (Stat.percentile s 0.5);
  int "p99" 99 (Stat.percentile s 0.99);
  int "p100" 100 (Stat.percentile s 1.0);
  flt "odd median" 2.0 (Stat.median [ 3.0; 1.0; 2.0 ]);
  flt "even median" 2.5 (Stat.median [ 4.0; 1.0; 3.0; 2.0 ])

let test_ratios () =
  (* accept_local_ratio: local over (local + steal) *)
  flt "local share" 0.75 (Stat.ratio 3 (3 + 1));
  (* an empty base reads 0, never nan *)
  flt "empty base" 0.0 (Stat.ratio 0 0);
  flt "per op" 2.5 (Stat.per 10.0 4);
  flt "per nothing" 0.0 (Stat.per 10.0 0)

let test_deciles () =
  let d = Stat.deciles (Array.init 100 (fun i -> i)) in
  flt "first decile" 4.5 d.(0);
  flt "last decile" 94.5 d.(9);
  (* 15 samples: slices of 1 or 2, none empty *)
  let d = Stat.deciles (Array.init 15 (fun i -> i)) in
  flt "short first slice" 0.0 d.(0);
  flt "long last slice" 13.5 d.(9)

(* root [0,100) ns holds A [10,40) (with a grandchild [20,30)) and
   B [50,90) (with a 5 ns aggregated leaf); cycles follow the same
   shape at 10x, and words at 2x. *)
let tree () =
  let t = Spans.create ~cap:2 () in
  let root = Spans.intern t "root" and a = Spans.intern t "a" in
  let g = Spans.intern t "g" and b = Spans.intern t "b" and v = Spans.intern t "v" in
  let o id x = Spans.open_ t id ~ns:x ~words:(2 * x) ~cycles:(10 * x) in
  let c x = Spans.close t ~ns:x ~words:(2 * x) ~cycles:(10 * x) in
  o root 0;
  o a 10;
  o g 20;
  c 30;
  c 40;
  o b 50;
  Spans.leaf t v ~ns:5 ~words:10 ~cycles:50;
  c 90;
  c 100;
  t

let test_self_time () =
  let t = tree () in
  let sum = Spans.summary t in
  int "root self" 30 (sum "root").Spans.self_ns;
  int "a self" 20 (sum "a").Spans.self_ns;
  int "g self" 10 (sum "g").Spans.self_ns;
  int "b self excludes its leaf" 35 (sum "b").Spans.self_ns;
  int "leaf" 5 (sum "v").Spans.self_ns;
  int "leaf count" 1 (sum "v").Spans.count;
  int "b words" 70 (sum "b").Spans.self_words;
  int "unknown name" 0 (sum "nope").Spans.count;
  int "all closed" 0 (Spans.depth t);
  (* self times tile the root exactly: the conservation identity *)
  int "conservation" (Spans.root_cycles t) (Spans.total_self_cycles t);
  int "root cycles" 1000 (Spans.root_cycles t)

let test_retag () =
  let t = Spans.create () in
  let q = Spans.intern t "q" in
  Spans.open_ t q ~ns:0 ~words:0 ~cycles:0;
  Spans.open_ t q ~ns:1 ~words:0 ~cycles:0;
  Spans.set_tags t ~quantum:7 ~cpu:3 ~pid:42 ~dom:2;
  Spans.retag_from t 1;
  int "retagged cpu" 3 (Spans.get t 1 Spans.f_cpu);
  int "retagged quantum" 7 (Spans.get t 1 Spans.f_quantum);
  int "earlier span untouched" 0 (Spans.get t 0 Spans.f_cpu)

let () =
  Alcotest.run "nkbench"
    [
      ( "stat",
        [
          Alcotest.test_case "nearest rank" `Quick test_rank;
          Alcotest.test_case "tail percentile choice" `Quick test_tail_choice;
          Alcotest.test_case "percentile and median" `Quick test_percentile;
          Alcotest.test_case "ratio bases" `Quick test_ratios;
          Alcotest.test_case "deciles" `Quick test_deciles;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "retag" `Quick test_retag;
        ] );
    ]
