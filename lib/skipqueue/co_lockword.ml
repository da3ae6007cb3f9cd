(* Packed lock-word layout: [ born | claimed | full | level_max .. level_1 ].
   Pure arithmetic on OCaml ints; the skiplist supplies the atomicity by
   CASing whole words.  See the .mli for the discipline contract.

   The live count is not stored directly: the high bits hold two
   monotone tickets — [born], elements ever admitted to the node, and
   [claimed], elements ever claimed by delete-mins — and the live count
   is their difference.  Splitting the count this way is what lets the
   delete path claim an element with ONE lock-free CAS: the claim ticket
   it reads identifies the claimed element's position in the append-only
   slab, with no full-bit acquisition and no slab write, while joins and
   claims still commit on the same cell and therefore totally order. *)

type layout = {
  max_level : int;
  full_bit : int;
  claimed_shift : int; (* = max_level + 1 *)
  born_shift : int;
  field_bits : int; (* width of each ticket field *)
  count_capacity : int;
}

exception Violation of string

let violation fmt = Printf.ksprintf (fun s -> raise (Violation s)) fmt

(* Cap max_level so both ticket fields keep a useful width inside a
   62-bit positive int (OCaml's native int less the sign bit we never
   touch).  At the cap (40) each field still gets 10 bits. *)
let word_bits = 62

let make ~max_level =
  if max_level < 1 || max_level > 40 then
    invalid_arg "Co_lockword.make: max_level outside [1, 40]";
  let claimed_shift = max_level + 1 in
  let field_bits = (word_bits - 1 - claimed_shift) / 2 in
  {
    max_level;
    full_bit = 1 lsl max_level;
    claimed_shift;
    born_shift = claimed_shift + field_bits;
    field_bits;
    count_capacity = (1 lsl field_bits) - 1;
  }

let max_level l = l.max_level
let count_capacity l = l.count_capacity
let empty = 0

(* ---- level locks ---- *)

let level_bit l i =
  if i < 1 || i > l.max_level then
    invalid_arg
      (Printf.sprintf "Co_lockword: level %d outside [1, %d]" i l.max_level);
  1 lsl (i - 1)

let level_locked l w i = w land level_bit l i <> 0

let lock_level l w i =
  let bit = level_bit l i in
  if w land bit <> 0 then violation "level %d lock already held" i;
  w lor bit

let unlock_level l w i =
  let bit = level_bit l i in
  if w land bit = 0 then violation "double release of level %d lock" i;
  w land lnot bit

(* ---- full-node lock ---- *)

let full_bit l = l.full_bit
let full_locked l w = w land l.full_bit <> 0

let lock_full l w =
  if w land l.full_bit <> 0 then violation "full lock already held";
  w lor l.full_bit

let unlock_full l w =
  if w land l.full_bit = 0 then violation "double release of full lock";
  w land lnot l.full_bit

(* ---- tickets and the live count ---- *)

let field_mask l = (1 lsl l.field_bits) - 1
let born l w = (w lsr l.born_shift) land field_mask l
let claimed l w = (w lsr l.claimed_shift) land field_mask l
let count l w = born l w - claimed l w

let admit l w =
  if born l w >= l.count_capacity then
    violation "born ticket overflow at %d" l.count_capacity;
  w + (1 lsl l.born_shift)

let claim_n l w n =
  if n < 1 then violation "claim of %d elements" n;
  if claimed l w + n > born l w then
    violation "claim ticket overtakes born (claim raced or tore)";
  w + (n lsl l.claimed_shift)

(* ---- decoded view ---- *)

type fields = { born : int; claimed : int; full : bool; levels : int list }

let encode l { born = b; claimed = c; full; levels } =
  if b < 0 || b > l.count_capacity then
    violation "born %d outside [0, %d]" b l.count_capacity;
  if c < 0 || c > b then violation "claimed %d outside [0, born=%d]" c b;
  let w = (b lsl l.born_shift) lor (c lsl l.claimed_shift) in
  let w = if full then lock_full l w else w in
  List.fold_left (fun w i -> lock_level l w i) w levels

let decode l w =
  let levels = ref [] in
  for i = l.max_level downto 1 do
    if level_locked l w i then levels := i :: !levels
  done;
  { born = born l w; claimed = claimed l w; full = full_locked l w; levels = !levels }
