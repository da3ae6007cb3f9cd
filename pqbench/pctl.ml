(* Exact percentiles over raw per-operation samples.  [Histogram]'s 1.3x
   buckets merge backends whose tails differ by less than a bucket, so the
   benchmark sorts the samples and reads the nearest rank instead. *)

(* [of_sorted a permille] is the nearest-rank quantile of the sorted
   samples [a]: the smallest sample with at least [permille/1000] of all
   samples at or below it.  Integer arithmetic, so p99 of 100 samples is
   exactly the 99th.  0 for no samples. *)
let of_sorted a permille =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    let rank = ((n * permille) + 999) / 1000 in
    a.(Int.min (n - 1) (Int.max 0 (rank - 1)))
  end

let sorted samples =
  let a = Array.copy samples in
  Array.sort Int.compare a;
  a

let p50 a = of_sorted a 500
let p99 a = of_sorted a 990

let median_float = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
