type t = {
  mutable count : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min_v : float;
  mutable max_v : float;
}

let create () =
  { count = 0; mean = 0.0; m2 = 0.0; min_v = infinity; max_v = neg_infinity }

let add t x =
  t.count <- t.count + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.count);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min_v then t.min_v <- x;
  if x > t.max_v then t.max_v <- x

let merge a b =
  if a.count = 0 then { b with count = b.count }
  else if b.count = 0 then { a with count = a.count }
  else begin
    let n = a.count + b.count in
    let delta = b.mean -. a.mean in
    let mean = a.mean +. (delta *. float_of_int b.count /. float_of_int n) in
    let m2 =
      a.m2 +. b.m2
      +. (delta *. delta *. float_of_int a.count *. float_of_int b.count
          /. float_of_int n)
    in
    { count = n; mean; m2; min_v = Float.min a.min_v b.min_v;
      max_v = Float.max a.max_v b.max_v }
  end

let count t = t.count
let total t = t.mean *. float_of_int t.count
let mean t = if t.count = 0 then 0.0 else t.mean
let variance t = if t.count < 2 then 0.0 else t.m2 /. float_of_int (t.count - 1)
let min_value t = t.min_v
let max_value t = t.max_v

let percentile data q =
  let n = Array.length data in
  if n = 0 then invalid_arg "Stats.percentile: empty data";
  if q < 0.0 || q > 1.0 then invalid_arg "Stats.percentile: q outside [0, 1]";
  let sorted = Array.copy data in
  Array.sort compare sorted;
  let rank = q *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) in
  let hi = int_of_float (ceil rank) in
  if lo = hi then sorted.(lo)
  else begin
    let w = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. w)) +. (sorted.(hi) *. w)
  end

let median data = percentile data 0.5
