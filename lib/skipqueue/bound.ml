type t = Bottom | Key of int | Top

let compare a b =
  match (a, b) with
  | Bottom, Bottom | Top, Top -> 0
  | Bottom, _ | _, Top -> -1
  | Top, _ | _, Bottom -> 1
  | Key x, Key y -> Int.compare x y
