(* The arithmetic behind every number the benchmark reports: percentile
   choice, medians, ratios with an explicit base, per-decile means and
   the conservation sum.  Pure functions over arrays, so the tests in
   test_stat.ml can pin each one. *)

(* Nearest-rank index (1-based) of quantile [q] over [n] samples: the
   smallest rank with at least [q] of the samples at or below it.  The
   epsilon keeps 0.99 *. 100. = 99.000000001 from rounding up a rank. *)
let rank ~n q =
  if n <= 0 then 0
  else max 1 (min n (int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9))))

(* Samples strictly beyond the nearest-rank [q] point. *)
let beyond ~n q = n - rank ~n q

(* The quantiles a tail may be reported at, highest first. *)
let tail_ladder = [ 0.999; 0.99; 0.95; 0.9; 0.75; 0.5 ]

(* The highest ladder quantile with at least ten samples beyond it;
   [None] when even the median has fewer than ten. *)
let tail_quantile n = List.find_opt (fun q -> beyond ~n q >= 10) tail_ladder

let sorted a =
  let b = Array.copy a in
  Array.sort compare b;
  b

(* [percentile s q] over an already-sorted array. *)
let percentile s q =
  let n = Array.length s in
  if n = 0 then invalid_arg "Stat.percentile: no samples" else s.(rank ~n q - 1)

(* Median of a float list, averaging the middle pair. *)
let median = function
  | [] -> invalid_arg "Stat.median: no samples"
  | xs ->
      let s = Array.of_list xs in
      Array.sort Float.compare s;
      let n = Array.length s in
      if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* [num / den], 0 on an empty base.  Every ratio the benchmark reports
   names its base in METRICS.md; callers pass it explicitly. *)
let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

let per num den = if den = 0 then 0.0 else num /. float_of_int den

(* Means of ten consecutive, near-equal slices of [a]: the steadiness
   profile of a window. *)
let deciles a =
  let n = Array.length a in
  Array.init 10 (fun d ->
      let lo = d * n / 10 and hi = (d + 1) * n / 10 in
      if hi <= lo then 0.0
      else begin
        let s = ref 0 in
        for i = lo to hi - 1 do
          s := !s + a.(i)
        done;
        float_of_int !s /. float_of_int (hi - lo)
      end)
