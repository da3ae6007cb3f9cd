(* Tests for the utility substrate: PRNG, bit-reversal, statistics,
   table rendering and ASCII plots. *)

module Rng = Repro_util.Rng
module Bitrev = Repro_util.Bitrev
module Stats = Repro_util.Stats
module Table = Repro_util.Table
module Ascii_plot = Repro_util.Ascii_plot

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Rng ---------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.of_seed 42L and b = Rng.of_seed 42L in
  for _ = 0 to 99 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.of_seed 1L and b = Rng.of_seed 2L in
  let equal = ref 0 in
  for _ = 0 to 99 do
    if Rng.bits64 a = Rng.bits64 b then incr equal
  done;
  check_bool "streams diverge" true (!equal < 3)

let test_rng_split_independent () =
  let parent = Rng.of_seed 7L in
  let child1 = Rng.split parent in
  let child2 = Rng.split parent in
  check_bool "children differ" true (Rng.bits64 child1 <> Rng.bits64 child2)

let test_rng_copy () =
  let a = Rng.of_seed 5L in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_int_bounds () =
  let rng = Rng.of_seed 3L in
  for _ = 0 to 9999 do
    let v = Rng.int rng 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_rejects_bad_bound () =
  let rng = Rng.of_seed 3L in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_float_bounds () =
  let rng = Rng.of_seed 9L in
  for _ = 0 to 9999 do
    let v = Rng.float rng 2.5 in
    check_bool "in range" true (v >= 0.0 && v < 2.5)
  done

let test_rng_uniformity () =
  (* Chi-squared-ish sanity: 10 buckets, 10k draws; each bucket within
     plus/minus 30 percent of the expectation. *)
  let rng = Rng.of_seed 123L in
  let buckets = Array.make 10 0 in
  let draws = 10_000 in
  for _ = 1 to draws do
    let b = Rng.int rng 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter
    (fun c -> check_bool "bucket near uniform" true (c > 700 && c < 1300))
    buckets

let test_rng_bernoulli () =
  let rng = Rng.of_seed 77L in
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  check_bool "p=0.3 frequency" true (!hits > 2_700 && !hits < 3_300)

let test_rng_geometric_level () =
  let rng = Rng.of_seed 31L in
  let counts = Array.make 33 0 in
  let draws = 20_000 in
  for _ = 1 to draws do
    let l = Rng.geometric_level rng ~p:0.5 ~max_level:32 in
    check_bool "at least 1" true (l >= 1);
    check_bool "at most max" true (l <= 32);
    counts.(l) <- counts.(l) + 1
  done;
  (* Level 1 frequency should be about one half; level 2 about a quarter. *)
  check_bool "level 1 ~ 1/2" true
    (counts.(1) > draws * 4 / 10 && counts.(1) < draws * 6 / 10);
  check_bool "level 2 ~ 1/4" true
    (counts.(2) > draws * 15 / 100 && counts.(2) < draws * 35 / 100)

let test_rng_geometric_truncation () =
  let rng = Rng.of_seed 32L in
  for _ = 1 to 1000 do
    check_int "max_level 1 forces level 1" 1
      (Rng.geometric_level rng ~p:0.99 ~max_level:1)
  done

let test_rng_exponential_mean () =
  let rng = Rng.of_seed 55L in
  let total = ref 0.0 in
  let n = 50_000 in
  for _ = 1 to n do
    let v = Rng.exponential rng ~mean:4.0 in
    check_bool "nonnegative" true (v >= 0.0);
    total := !total +. v
  done;
  let mean = !total /. float_of_int n in
  check_bool "mean near 4" true (mean > 3.8 && mean < 4.2)

let test_rng_shuffle_permutes () =
  let rng = Rng.of_seed 66L in
  let a = Array.init 100 Fun.id in
  Rng.shuffle_in_place rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 100 Fun.id) sorted;
  check_bool "actually shuffled" true (a <> Array.init 100 Fun.id)

(* --- Bitrev ------------------------------------------------------------- *)

let test_bitrev_reverse () =
  check_int "3 bits" 0b100 (Bitrev.reverse ~bits:3 0b001);
  check_int "3 bits b" 0b110 (Bitrev.reverse ~bits:3 0b011);
  check_int "0 bits" 0 (Bitrev.reverse ~bits:0 0);
  check_int "palindrome" 0b101 (Bitrev.reverse ~bits:3 0b101)

let test_bitrev_involution () =
  let rng = Rng.of_seed 8L in
  for _ = 1 to 1000 do
    let bits = 1 + Rng.int rng 20 in
    let n = Rng.int rng (1 lsl bits) in
    check_int "reverse twice" n (Bitrev.reverse ~bits (Bitrev.reverse ~bits n))
  done

let test_bitrev_counter_sequence () =
  (* Hunt et al.'s published fill order for the first 12 slots. *)
  let got = List.init 12 (fun i -> Bitrev.position_of_size (i + 1)) in
  Alcotest.(check (list int)) "fill order" [ 1; 2; 3; 4; 6; 5; 7; 8; 12; 10; 14; 9 ] got

let test_bitrev_counter_levels_disjoint () =
  (* Every heap level must be filled exactly once: positions 2^l .. 2^(l+1)-1
     are a permutation. *)
  let seen = Hashtbl.create 64 in
  for s = 1 to 255 do
    let pos = Bitrev.position_of_size s in
    check_bool "unseen" true (not (Hashtbl.mem seen pos));
    Hashtbl.add seen pos ();
    (* position lies in the same level as s *)
    let level n = int_of_float (Float.log2 (float_of_int n)) in
    check_int "same level" (level s) (level pos)
  done

(* --- Stats -------------------------------------------------------------- *)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  check_int "count" 4 (Stats.count s);
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean s);
  Alcotest.(check (float 1e-9)) "variance" (5.0 /. 3.0) (Stats.variance s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.min_value s);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Stats.max_value s);
  Alcotest.(check (float 1e-9)) "total" 10.0 (Stats.total s)

let test_stats_empty () =
  let s = Stats.create () in
  check_int "count" 0 (Stats.count s);
  Alcotest.(check (float 0.0)) "mean" 0.0 (Stats.mean s);
  Alcotest.(check (float 0.0)) "variance" 0.0 (Stats.variance s)

let test_stats_merge_equals_sequential () =
  let rng = Rng.of_seed 17L in
  let a = Stats.create () and b = Stats.create () and whole = Stats.create () in
  for i = 0 to 999 do
    let v = Rng.float rng 100.0 in
    Stats.add (if i mod 2 = 0 then a else b) v;
    Stats.add whole v
  done;
  let merged = Stats.merge a b in
  check_int "count" (Stats.count whole) (Stats.count merged);
  Alcotest.(check (float 1e-6)) "mean" (Stats.mean whole) (Stats.mean merged);
  Alcotest.(check (float 1e-3)) "variance" (Stats.variance whole) (Stats.variance merged)

let test_percentiles () =
  let data = [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "median" 3.0 (Stats.median data);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.percentile data 0.0);
  Alcotest.(check (float 1e-9)) "p100" 5.0 (Stats.percentile data 1.0);
  Alcotest.(check (float 1e-9)) "p25" 2.0 (Stats.percentile data 0.25)

let test_percentile_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty data")
    (fun () -> ignore (Stats.percentile [||] 0.5));
  Alcotest.check_raises "bad q" (Invalid_argument "Stats.percentile: q outside [0, 1]")
    (fun () -> ignore (Stats.percentile [| 1.0 |] 1.5))

(* --- Table -------------------------------------------------------------- *)

let test_table_render () =
  let out =
    Table.render ~header:[ "n"; "latency" ] [ [ "1"; "10.0" ]; [ "256"; "123.4" ] ]
  in
  let lines = String.split_on_char '\n' out in
  check_int "four lines and trailing" 5 (List.length lines);
  let contains line sub =
    let n = String.length sub in
    let rec scan i = i + n <= String.length line && (String.sub line i n = sub || scan (i + 1)) in
    scan 0
  in
  check_bool "contains data" true
    (List.exists (fun l -> contains l "256" && contains l "123.4") lines);
  (* right alignment: every line has the same width *)
  let widths = List.filter_map (fun l -> if l = "" then None else Some (String.length l)) lines in
  check_bool "aligned" true (List.for_all (fun w -> w = List.hd widths) widths)

let test_table_rejects_wide_row () =
  Alcotest.check_raises "row too wide"
    (Invalid_argument "Table.render: row wider than header") (fun () ->
      ignore (Table.render ~header:[ "a" ] [ [ "1"; "2" ] ]))

let test_float_cell () =
  Alcotest.(check string) "default decimals" "3.1" (Table.float_cell 3.14159);
  Alcotest.(check string) "3 decimals" "3.142" (Table.float_cell ~decimals:3 3.14159)

(* --- Ascii_plot ---------------------------------------------------------- *)

let test_plot_renders_markers () =
  let out =
    Ascii_plot.render
      [
        { Ascii_plot.label = "a"; marker = '#'; points = [ (1.0, 1.0); (2.0, 2.0) ] };
        { Ascii_plot.label = "b"; marker = 'o'; points = [ (1.0, 2.0); (2.0, 1.0) ] };
      ]
  in
  check_bool "has # marker" true (String.contains out '#');
  check_bool "has o marker" true (String.contains out 'o');
  check_bool "has legend" true
    (List.exists
       (fun line -> line = "  # = a")
       (String.split_on_char '\n' out))

let test_plot_log_scales_skip_nonpositive () =
  let out =
    Ascii_plot.render
      [
        {
          Ascii_plot.label = "s";
          marker = '*';
          points = [ (0.0, 5.0); (-3.0, 5.0); (4.0, 100.0); (8.0, 1000.0) ];
        };
      ]
  in
  check_bool "renders" true (String.length out > 0);
  check_bool "positive points plotted" true (String.contains out '*')

let test_plot_rejects_empty () =
  Alcotest.check_raises "nothing to plot"
    (Invalid_argument "Ascii_plot.render: nothing to plot") (fun () ->
      ignore
        (Ascii_plot.render
           [ { Ascii_plot.label = "x"; marker = 'x'; points = [ (nan, 1.0) ] } ]))

let test_plot_single_point () =
  (* degenerate ranges must not divide by zero *)
  let out =
    Ascii_plot.render
      [ { Ascii_plot.label = "p"; marker = '@'; points = [ (5.0, 7.0) ] } ]
  in
  check_bool "plots the lone point" true (String.contains out '@')

(* --- property tests ----------------------------------------------------- *)

let prop_bitrev_involution =
  QCheck.Test.make ~name:"bitrev reverse is an involution" ~count:500
    QCheck.(pair (int_bound 20) (int_bound 1_000_000))
    (fun (bits, n) ->
      let bits = Int.max 1 bits in
      let n = n land ((1 lsl bits) - 1) in
      Bitrev.reverse ~bits (Bitrev.reverse ~bits n) = n)

let prop_stats_mean_in_range =
  QCheck.Test.make ~name:"mean lies between min and max" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.0))
    (fun xs ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      Stats.mean s >= Stats.min_value s -. 1e-9
      && Stats.mean s <= Stats.max_value s +. 1e-9)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile is monotone in q" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 50) (float_bound_exclusive 100.0))
        (pair (float_bound_inclusive 1.0) (float_bound_inclusive 1.0)))
    (fun (xs, (q1, q2)) ->
      let data = Array.of_list xs in
      let lo = Float.min q1 q2 and hi = Float.max q1 q2 in
      Stats.percentile data lo <= Stats.percentile data hi +. 1e-9)

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int bad bound" `Quick test_rng_int_rejects_bad_bound;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
          Alcotest.test_case "bernoulli" `Quick test_rng_bernoulli;
          Alcotest.test_case "geometric level" `Quick test_rng_geometric_level;
          Alcotest.test_case "geometric truncation" `Quick test_rng_geometric_truncation;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
        ] );
      ( "bitrev",
        [
          Alcotest.test_case "reverse" `Quick test_bitrev_reverse;
          Alcotest.test_case "involution" `Quick test_bitrev_involution;
          Alcotest.test_case "counter sequence" `Quick test_bitrev_counter_sequence;
          Alcotest.test_case "levels disjoint" `Quick test_bitrev_counter_levels_disjoint;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "merge" `Quick test_stats_merge_equals_sequential;
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "percentile errors" `Quick test_percentile_errors;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "wide row" `Quick test_table_rejects_wide_row;
          Alcotest.test_case "float cell" `Quick test_float_cell;
        ] );
      ( "ascii-plot",
        [
          Alcotest.test_case "markers and legend" `Quick test_plot_renders_markers;
          Alcotest.test_case "log scales" `Quick test_plot_log_scales_skip_nonpositive;
          Alcotest.test_case "rejects empty" `Quick test_plot_rejects_empty;
          Alcotest.test_case "single point" `Quick test_plot_single_point;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_bitrev_involution; prop_stats_mean_in_range; prop_percentile_monotone ]
      );
    ]
