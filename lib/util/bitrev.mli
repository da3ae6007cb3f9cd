(** The bit-reversed fill order of the Hunt et al. concurrent heap.

    Successive insertions into the heap must target leaves that are as far
    apart as possible so that concurrent bottom-up bubbling paths do not
    share nodes.  Hunt et al. achieve this by allocating the [i]-th slot of
    each heap level in bit-reversed order of [i]; this module computes
    that order. *)

val reverse : bits:int -> int -> int
(** [reverse ~bits n] reverses the lowest [bits] bits of [n].
    E.g. [reverse ~bits:3 0b001 = 0b100]. *)

val position_of_size : int -> int
(** [position_of_size s] is the (1-based) heap slot holding the [s]-th
    element under bit-reversed filling, which the concurrent heap computes
    under its size lock.  Successive sizes enumerate each heap level in
    bit-reversed order: 1, 2, 3, 4, 6, 5, 7, 8, 12, 10, 14, ...  Raises
    [Invalid_argument] when [s <= 0]. *)
