let reverse ~bits n =
  if bits < 0 || bits > 62 then invalid_arg "Bitrev.reverse: bits out of range";
  let r = ref 0 in
  for i = 0 to bits - 1 do
    if n land (1 lsl i) <> 0 then r := !r lor (1 lsl (bits - 1 - i))
  done;
  !r

(* The position of the [s]-th element (1-based) of a bit-reversed heap fill:
   within the level containing slot [s], the offset is bit-reversed. *)
let position_of_size s =
  if s <= 0 then invalid_arg "Bitrev.position_of_size";
  let level_bits =
    let rec count b = if 1 lsl (b + 1) <= s then count (b + 1) else b in
    count 0
  in
  let base = 1 lsl level_bits in
  base + reverse ~bits:level_bits (s - base)
